"""Remote next-token-distribution protocol over HTTP POST.

Request (JSON body, any path)::

    {"context_tokens": [int, ...]   # or "context_text": str
     "allowed": [int, ...] | null,  # renormalize + constrain argmax over these
     "query": [int, ...] | null,    # report these ids without constraining
     "top_k": int}                  # optional, unmasked asks only

``allowed`` is the mask's whole admissible set, expanded: a termination
class travels as its ids, and the server answers for every one of them.

Response::

    {"probs": {"<token id>": float, ...}, "argmax": int | null}

An unmasked ask without ``top_k`` is answered with the whole table. With
``top_k`` the answer holds only the ``query`` ids plus the ``top_k`` most
probable ids, ties to the smallest id, and ``argmax`` is ``null`` at
``top_k=0``: the same floats a local ask returns, trimmed by the same
:func:`~trierank.backend.top_k_answer`. A ``top_k`` that is not a
non-negative integer, or one sent with ``allowed``, is a bad request.

The client reads a 200 answer only if it fits its ask (:func:`_read_answer`):
every key a distinct decimal id, every value a finite non-negative number,
``argmax`` an integer it reports (inside the mask for a masked ask) or
``null`` for an unmasked ``top_k=0`` ask alone, and every ``query`` id and
explicit mask id reported. Any other answer raises :class:`BackendUnavailable`.

Connections are HTTP/1.1 and persistent. A :class:`RemoteBackend` asks on an
idle connection or a new one, so its threads share no socket. The server sets
``TCP_NODELAY``, because it writes a reply's headers and body separately and
Nagle's algorithm against delayed ACKs would hold each body for about 40 ms.
The server closes a connection left idle for :data:`IDLE_TIMEOUT_S`; a client
whose kept-alive connection turns out closed retries the ask once on a new
one, which is safe because an ask is a pure function of its body.

A request whose ``Content-Length`` is missing or not a non-negative integer,
or whose body does not parse or validate, yields HTTP 400 with
``{"error": "bad_request"}``. A body above :data:`MAX_BODY_BYTES` yields HTTP
413 with ``{"error": "body_too_large"}`` and is not read. A context exceeding
the server's window yields HTTP 413 with ``{"error": "context_too_long"}``.
The client raises :class:`ContextTooLong` for 413. Anything else the backend
raises yields HTTP 500 with ``{"error": "internal"}`` and is logged
server-side with its traceback. The client raises :class:`BackendUnavailable`
for 400, 500 and transport failures. Every error reply carries
``Connection: close`` and ends the connection, so a body left unread or
unparsed cannot desync the next request.

Both directions stay compatible with v1. A v1 server ignores ``top_k`` and
answers with the whole table, which holds every id the client reads, and
its HTTP/1.0 replies close each connection. A v1 client sends no ``top_k``
and gets the whole table.

:func:`serve_backend` wraps any local backend in a threaded HTTP server,
optionally with a vocabulary so ``context_text`` requests can be tokenized
server-side (the fallback for clients whose greedy rule disagrees with the
model's tokenizer).
"""

from __future__ import annotations

import contextlib
import http.client
import json
import logging
import math
import socket
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .backend import Distribution, LogitMask, ModelBackend, top_k_answer
from .errors import BackendUnavailable, ContextTooLong, EmptyInput
from .vocab import Vocabulary, greedy_tokenize

MAX_BODY_BYTES = 8 << 20
"""The largest request body the server reads. A terminal step's ``allowed``
list at a 32k vocabulary is about 116 KB."""

IDLE_TIMEOUT_S = 30.0
"""Seconds a server-side connection may wait for its next request."""

def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a probability")


# Parses answers with NaN and Infinity refused; one decoder serves every call.
_ANSWER_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


class RemoteBackend(ModelBackend):
    """Client side of the protocol; safe to share between threads.

    Each ask takes an idle kept-alive connection, or opens one, and gives it
    back after a successful exchange: ``N`` threads use at most ``N``.
    """

    def __init__(self, endpoint: str, timeout: float = 10.0):
        self.endpoint = endpoint
        self.timeout = timeout
        # Idle connections; ``list.pop`` and ``list.append`` are atomic.
        self._idle: list[http.client.HTTPConnection] = []

    def next_distribution(self, context, allowed=None, query=None, top_k=None) -> Distribution:
        query = sorted(query) if query else None
        payload = {
            "context_tokens": list(context),
            "allowed": sorted(allowed.allowed) if allowed is not None else None,
            "query": query,
        }
        if top_k is not None:
            payload["top_k"] = top_k
        data = self._request(payload)
        try:
            return _read_answer(data, allowed, query or (), top_k)
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise BackendUnavailable(f"malformed response from {self.endpoint}: {exc}") from None

    def close(self) -> None:
        """Close every idle connection once no ask is in flight; the next ask
        opens a new one."""
        while self._idle:
            self._idle.pop().close()

    def _request(self, payload: dict) -> bytes:
        """The body of the 200 answer to ``payload``."""
        try:
            response, data = self._post(json.dumps(payload).encode("utf-8"))
        except (http.client.HTTPException, OSError) as exc:  # TimeoutError is an OSError
            raise BackendUnavailable(f"cannot reach {self.endpoint}: {exc}") from None
        if response.status == 413:
            raise ContextTooLong(f"server rejected context: {response.reason}")
        if response.status != 200:
            raise BackendUnavailable(f"HTTP {response.status} from {self.endpoint}")
        return data

    def _post(self, body: bytes) -> tuple[http.client.HTTPResponse, bytes]:
        """One exchange on an idle connection or a new one. The server may have
        closed a connection that already carried an exchange while it sat idle;
        such a connection is retried once, on a new one. A new connection's
        failure is final."""
        url = urllib.parse.urlsplit(self.endpoint)
        try:
            connection = self._idle.pop()
        except IndexError:
            if url.scheme not in ("http", "https"):
                raise http.client.InvalidURL(f"unsupported endpoint scheme {url.scheme!r}")
            secure = url.scheme == "https"
            factory = http.client.HTTPSConnection if secure else http.client.HTTPConnection
            connection = factory(url.netloc, timeout=self.timeout)
        target = urllib.parse.urlunsplit(("", "", url.path or "/", url.query, ""))
        reused = connection.sock is not None
        try:
            exchanged = _exchange(connection, target, body)
        # ``RemoteDisconnected``, a read that finds the server gone, is a ``ConnectionResetError``.
        except (ConnectionResetError, BrokenPipeError):
            if not reused:
                raise
            exchanged = _exchange(connection, target, body)  # on a new connection
        self._idle.append(connection)
        return exchanged


def _read_answer(data: bytes, mask: LogitMask | None, query, top_k: int | None) -> Distribution:
    """The distribution a 200 answer holds. Raises ``ValueError`` (or a lookup or
    type error) unless every key is a distinct decimal id and every value a
    finite, non-negative number, and the answer reports what the ask reads: a
    non-null ``argmax`` among the ids, inside ``mask`` for a masked ask, and
    every explicit mask id and ``query`` id. Only an unmasked ``top_k=0`` ask
    may get a null ``argmax``."""
    body = _ANSWER_DECODER.decode(data.decode("utf-8"))
    table, argmax = body["probs"], body["argmax"]
    # Each check runs in C over the whole answer. ``int()`` alone would take
    # "1_0" and " 1", and ``float()`` would take true and "0.5".
    digits = "".join(table).replace("-", "")
    if digits and not (digits.isascii() and digits.isdigit()):
        raise ValueError("an id is not a decimal integer")
    if not {int, float}.issuperset(map(type, table.values())):
        raise ValueError("a probability is not a JSON number")
    probs = dict(zip(map(int, table), map(float, table.values())))
    if len(probs) < len(table):
        raise ValueError("an id is reported twice, as in '7' and '07'")
    # With NaN refused while parsing, ``min`` and ``max`` see every value.
    if probs and not 0.0 <= min(probs.values()) <= max(probs.values()) < math.inf:
        raise ValueError("a probability is negative or not finite")
    if argmax is None:
        if mask is not None or top_k != 0:
            raise ValueError("null argmax for an ask that reads it")
    elif type(argmax) is not int or argmax not in probs:
        raise ValueError(f"argmax {argmax!r} is not a reported id")
    elif mask is not None and argmax not in mask:
        raise ValueError(f"argmax {argmax} lies outside the mask")
    asked = set(query) if mask is None else mask.ids.union(query)
    if not probs.keys() >= asked:
        raise ValueError(f"no probability for asked id {min(asked - probs.keys())}")
    return Distribution(probs, argmax)


def _exchange(
    connection: http.client.HTTPConnection, target: str, body: bytes
) -> tuple[http.client.HTTPResponse, bytes]:
    """One request and its reply; a connection that fails is closed and not reused."""
    try:
        connection.request("POST", target, body, {"Content-Type": "application/json"})
        response = connection.getresponse()
        return response, response.read()
    except BaseException:
        connection.close()
        raise


def _parse_ask(payload, vocab: Vocabulary | None):
    """(context, mask, query, top_k) of a request body; raises on any field
    that does not validate."""
    context = payload.get("context_tokens")
    if context is None:
        text = payload.get("context_text")
        if text is None or vocab is None:
            raise ValueError("no usable context in request")
        context = list(greedy_tokenize(text, vocab).ids)
    if not context:
        raise EmptyInput("context must be non-empty")
    allowed, query, top_k = payload.get("allowed"), payload.get("query"), payload.get("top_k")
    for ids in (context, allowed or [], query or []):
        # ``int()`` would turn 1.9, true and "1" into ids that were never sent.
        if type(ids) is not list or any(type(t) is not int for t in ids):
            raise ValueError("token ids must be lists of integers")
    mask = None if allowed is None else LogitMask(frozenset(allowed))
    query = query or None
    if top_k is not None and (type(top_k) is not int or top_k < 0 or mask is not None):
        raise ValueError("top_k must be a non-negative integer and cannot come with allowed")
    return context, mask, query, top_k


def _make_handler(backend: ModelBackend, vocab: Vocabulary | None):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # A reply's headers and body are two writes; without TCP_NODELAY the
        # body waits for the client's delayed ACK of the headers.
        disable_nagle_algorithm = True
        timeout = IDLE_TIMEOUT_S

        def log_message(self, *args):  # quiet test servers
            pass

        def do_POST(self):
            try:
                length = int(self.headers.get("Content-Length", ""))
            except ValueError:
                length = -1
            if length < 0:
                detail = "Content-Length must be a non-negative integer"
                self._reply(400, {"error": "bad_request", "detail": detail})
                return
            if length > MAX_BODY_BYTES:
                detail = f"body of {length} bytes exceeds {MAX_BODY_BYTES}"
                self._reply(413, {"error": "body_too_large", "detail": detail})
                return
            try:
                payload = json.loads(self.rfile.read(length).decode("utf-8"))
                context, mask, query, top_k = _parse_ask(payload, vocab)
            except Exception as exc:  # any body that does not parse or validate
                self._reply(400, {"error": "bad_request", "detail": str(exc)})
                return
            try:
                if top_k is None:
                    dist = backend.next_distribution(context, mask, query)
                    probs, argmax = dist.probs, dist.argmax
                else:
                    # The whole table, trimmed as a local ask trims it.
                    table = backend.next_distribution(context, None, None).probs
                    probs, argmax = top_k_answer(table, query or (), top_k)
            except ContextTooLong as exc:
                self._reply(413, {"error": "context_too_long", "detail": str(exc)})
                return
            except Exception:  # a fault of the backend, not of the request
                logging.getLogger(__name__).exception("backend failed to answer a request")
                self._reply(500, {"error": "internal"})
                return
            self._reply(200, {"probs": {str(t): p for t, p in probs.items()}, "argmax": argmax})

        def _reply(self, code: int, body: dict):
            data = json.dumps(body).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            if code != 200:
                # The body may be unread or unparsed: read no next request after it.
                self.send_header("Connection", "close")
                self.close_connection = True
            self.end_headers()
            self.wfile.write(data)

    return Handler


class _Server(ThreadingHTTPServer):
    """Ends the connections it accepted in ``server_close()``: a daemon handler
    thread would otherwise keep answering a kept-alive client after the stop."""

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self._accepted: set[socket.socket] = set()

    def process_request(self, request, client_address):
        self._accepted.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        self._accepted.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address):
        # A connection that server_close() ended fails in its handler: not a fault.
        if self.socket.fileno() != -1:
            super().handle_error(request, client_address)

    def server_close(self):
        super().server_close()
        for request in self._accepted.copy():
            with contextlib.suppress(OSError):  # its handler closed it meanwhile
                request.shutdown(socket.SHUT_RDWR)


def serve_backend(
    backend: ModelBackend,
    vocab: Vocabulary | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> tuple[ThreadingHTTPServer, str]:
    """Expose ``backend`` over the protocol; returns (server, endpoint URL).

    The server runs on a daemon thread; call ``server.shutdown()`` and then
    ``server.server_close()`` when done. ``server_close()`` ends every
    connection a client still holds open, so the client's next ask raises
    :class:`BackendUnavailable`, without waiting for the daemon handler
    threads.
    """
    server = _Server((host, port), _make_handler(backend, vocab))
    # ``shutdown()`` waits up to one poll interval; the library default is 0.5 s.
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    return server, f"http://{server.server_address[0]}:{server.server_address[1]}/"
