"""Remote next-token-distribution protocol over HTTP POST.

Request (JSON body, any path)::

    {"context_tokens": [int, ...]   # or "context_text": str
     "allowed": [int, ...]          # renormalize + constrain argmax over these,
              | {"ids": [int, ...], "termination": str}  # or these plus a named class,
              | null,
     "query": [int, ...] | null,    # report these ids without constraining
     "top_k": int}                  # optional, unmasked asks only

A server built with a vocabulary names its vocabulary's termination class in
every 200 reply, in the :data:`TERMINATION_HEADER` header: a short digest of
the class's ascending ids (:func:`_class_tag`). A client whose last 200 reply
named the class its mask carries sends the object form: the mask's explicit
ids and the class's name. The server rebuilds the mask with its own class
and answers as a local masked ask does, for the explicit ids and the argmax.
In every other case (no header, another class, a mask without a class)
``allowed`` is the mask's whole admissible set, expanded, and the server
answers for every one of its ids. A named class the server does not hold,
or one sent to a server without a vocabulary, is a bad request.

Response::

    {"probs": {"<token id>": float, ...}, "argmax": int | null}

An unmasked ask without ``top_k`` is answered with the whole table. With
``top_k`` the answer holds only the ``query`` ids plus the ``top_k`` most
probable ids, ties to the smallest id, and ``argmax`` is ``null`` at
``top_k=0``: the same floats a local ask returns, trimmed by the same
:func:`~trierank.backend.top_k_answer`. A ``top_k`` that is not a
non-negative integer, or one sent with ``allowed``, is a bad request.

Every 200 reply carries the :data:`BATCH_HEADER`, which says that the server
also takes a batch of asks in one body::

    {"shared": [int, ...],          # leading tokens common to every context
     "asks": [{"context_tokens": [int, ...], "allowed": ..., "query": ...,
               "top_k": int}, ...]}  # each ask's context minus ``shared``

and answers ``{"answers": [answer, ...]}``, one answer of the form above per
ask, in order. Each ask is checked as a single body is, with ``shared``
joined in front of its ``context_tokens``; an ask carrying ``context_text``
is a bad request. The server answers the asks one by one, calling its backend
once per ask as it does for single bodies; the first ask whose context is
too long answers the whole batch with 413, and a backend fault with 500. A
client sends two or more asks as a batch only when the last 200 reply
carried the header, and one request per ask otherwise
(:meth:`RemoteBackend.next_distributions`). ``beam_all`` asks that way,
because none of its asks depends on another's answer.

The client reads a 200 answer only if it fits its ask (:func:`_read_answer`):
every key a distinct decimal id, every value a finite non-negative number,
``argmax`` an integer it reports (inside the mask for a masked ask) or
``null`` for an unmasked ``top_k=0`` ask alone, and every ``query`` id and
explicit mask id reported. A batch's ``answers`` must be a list with one
answer per ask, each checked against its ask. Any other answer raises
:class:`BackendUnavailable`.

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

Both directions stay compatible with v1 and v2. A v1 server ignores
``top_k`` and answers with the whole table, which holds every id the client
reads, and its HTTP/1.0 replies close each connection. A v1 client sends no
``top_k`` and gets the whole table. Neither v1 nor v2 servers send the
termination or the batch header, so they only ever get expanded masks and
one ask per request, and v1 and v2 clients only send those. A v2 server
refuses a non-list ``allowed``, so a client that names the class to a server
swapped for an older one gets an error, never a ranking over its explicit
ids alone. A batch body has no top-level ``context_tokens``, so such a
server refuses it with 400 too, never answering one distribution for it.

:func:`serve_backend` wraps any local backend in a threaded HTTP server,
optionally with a vocabulary, so that ``context_text`` requests can be
tokenized server-side (the fallback for clients whose greedy rule disagrees
with the model's tokenizer) and terminal asks can name the termination class.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import logging
import math
import os.path
import socket
import threading
import urllib.parse
from functools import lru_cache, partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Sequence

from .backend import Ask, Distribution, LogitMask, ModelBackend, _check_ask, top_k_answer
from .errors import BackendUnavailable, ContextTooLong, EmptyInput
from .vocab import Vocabulary, greedy_tokenize

MAX_BODY_BYTES = 8 << 20
"""The largest request body the server reads. At a 32k vocabulary a terminal
request with its ``allowed`` list expanded is about 120 KB, and one that
names the termination class about 6.5 KB."""

TERMINATION_HEADER = "Trierank-Termination"
"""The reply header that names the termination class of a server's vocabulary."""

BATCH_HEADER = "Trierank-Batch"
"""The reply header by which a server says that it answers batch bodies."""

IDLE_TIMEOUT_S = 30.0
"""Seconds a server-side connection may wait for its next request."""

def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a probability")


# Parses answers with NaN and Infinity refused; one decoder serves every call.
_ANSWER_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)

# What parsing or checking an answer that does not fit its ask raises.
_MALFORMED = (AttributeError, KeyError, OverflowError, RecursionError, TypeError, ValueError)


@lru_cache(maxsize=8)
def _class_tag(cls: frozenset[int]) -> str:
    """The name of a termination class on the wire: a digest of its ascending
    ids, the same in every process. A vocabulary has one class, so client and
    server each compute it once."""
    text = ",".join(map(str, sorted(cls)))
    return hashlib.blake2b(text.encode("ascii"), digest_size=12).hexdigest()


class RemoteBackend(ModelBackend):
    """Client side of the protocol; safe to share between threads. Its endpoint
    is parsed once, here: a malformed or non-HTTP one raises :class:`BackendUnavailable`.

    Each ask takes an idle kept-alive connection, or opens one, and gives it
    back after a successful exchange: ``N`` threads use at most ``N``.

    A mask travels with its termination class named when the last 200 reply
    named the same class in its :data:`TERMINATION_HEADER`, and expanded
    otherwise. A batch of asks travels as one request when the last 200
    reply carried the :data:`BATCH_HEADER`, and as one request per ask
    otherwise.
    """

    def __init__(self, endpoint: str, timeout: float = 10.0):
        self.endpoint = endpoint
        try:
            url = urllib.parse.urlsplit(endpoint)
            if url.scheme not in ("http", "https"):
                raise ValueError(f"unsupported endpoint scheme {url.scheme!r}")
        except ValueError as exc:
            raise BackendUnavailable(f"cannot reach {endpoint}: {exc}") from None
        secure = url.scheme == "https"
        factory = http.client.HTTPSConnection if secure else http.client.HTTPConnection
        self._connect = partial(factory, url.netloc, timeout=timeout)
        self._target = urllib.parse.urlunsplit(("", "", url.path or "/", url.query, ""))
        # Idle connections; ``list.pop`` and ``list.append`` are atomic.
        self._idle: list[http.client.HTTPConnection] = []
        # The termination class the last 200 reply named; ``None`` if it named none.
        self._termination: str | None = None
        # Whether the last 200 reply said that the server answers batch bodies.
        self._batches = False

    def next_distribution(self, context, allowed=None, query=None, top_k=None) -> Distribution:
        query = sorted(query) if query else None
        data = self._request(self._wire_ask(context, allowed, query, top_k))
        try:
            return _read_answer(_decode(data), allowed, query or (), top_k)
        except _MALFORMED as exc:
            raise BackendUnavailable(f"malformed response from {self.endpoint}: {exc}") from None

    def next_distributions(self, asks: Sequence[Ask]) -> list[Distribution]:
        """One request for two or more asks if the server takes batches, else
        one request per ask. The batch body sends the contexts' common leading
        tokens once, as ``shared``, and each ask with the rest of its context."""
        if not self._batches or len(asks) < 2:
            return super().next_distributions(asks)
        for context, mask, _, top_k in asks:
            _check_ask(context, mask, top_k)
        contexts = [list(context) for context, *_ in asks]
        # ``commonprefix`` compares any sequences element by element, not only paths.
        shared = os.path.commonprefix(contexts)
        queries = [sorted(query) if query else None for _, _, query, _ in asks]
        wire = [
            self._wire_ask(context[len(shared) :], mask, query, top_k)
            for context, query, (_, mask, _, top_k) in zip(contexts, queries, asks)
        ]
        data = self._request({"shared": shared, "asks": wire})
        try:
            answers = _decode(data)["answers"]
            if type(answers) is not list or len(answers) != len(asks):
                raise ValueError(f"{len(asks)} asks need a list of as many answers")
            return [
                _read_answer(answer, mask, query or (), top_k)
                for answer, query, (_, mask, _, top_k) in zip(answers, queries, asks)
            ]
        except _MALFORMED as exc:
            raise BackendUnavailable(f"malformed response from {self.endpoint}: {exc}") from None

    def _wire_ask(self, context, mask: LogitMask | None, query, top_k: int | None) -> dict:
        """The request fields of one ask; ``query`` is sorted or ``None``."""
        ask = {
            "context_tokens": list(context),
            "allowed": None if mask is None else self._wire_mask(mask),
            "query": query,
        }
        if top_k is not None:
            ask["top_k"] = top_k
        return ask

    def _wire_mask(self, mask: LogitMask):
        """The ``allowed`` field for ``mask``: its explicit ids and the name of
        its class if the server named that class, else its whole admissible set."""
        tag = self._termination
        if mask.termination and tag is not None and _class_tag(mask.termination) == tag:
            return {"ids": sorted(mask.ids), "termination": tag}
        return sorted(mask.allowed)

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
        self._termination = response.getheader(TERMINATION_HEADER)
        self._batches = response.getheader(BATCH_HEADER) is not None
        return data

    def _post(self, body: bytes) -> tuple[http.client.HTTPResponse, bytes]:
        """One exchange on an idle connection or a new one. The server may have
        closed a connection that already carried an exchange while it sat idle;
        such a connection is retried once, on a new one. A new connection's
        failure is final."""
        try:
            connection = self._idle.pop()
        except IndexError:
            connection = self._connect()
        reused = connection.sock is not None
        try:
            exchanged = _exchange(connection, self._target, body)
        # ``RemoteDisconnected``, a read that finds the server gone, is a ``ConnectionResetError``.
        except (ConnectionResetError, BrokenPipeError):
            if not reused:
                raise
            exchanged = _exchange(connection, self._target, body)  # on a new connection
        self._idle.append(connection)
        return exchanged


def _decode(data: bytes):
    """The parsed body of a 200 reply; raises ``ValueError`` or ``RecursionError``."""
    return _ANSWER_DECODER.decode(data.decode("utf-8"))


def _read_answer(body, mask: LogitMask | None, query, top_k: int | None) -> Distribution:
    """The distribution one parsed answer holds. Raises ``ValueError`` (or a
    lookup or type error) unless every key is a distinct decimal id and
    every value a finite, non-negative number, and the answer reports what the
    ask reads: a non-null ``argmax`` among the ids, inside ``mask`` for a
    masked ask, and every explicit mask id and ``query`` id. Only an unmasked
    ``top_k=0`` ask may get a null ``argmax``."""
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
    masked, termination = allowed is not None, frozenset()
    if type(allowed) is dict:  # explicit ids and a named class
        if allowed.keys() != {"ids", "termination"}:
            raise ValueError("a named mask holds exactly ids and termination")
        if vocab is None or allowed["termination"] != _class_tag(vocab.termination_ids()):
            raise ValueError("the mask names a termination class this server does not hold")
        termination, allowed = vocab.termination_ids(), allowed["ids"]
    for ids in (context, allowed if masked else [], [] if query is None else query):
        # ``int()`` would turn 1.9, true and "1" into ids that were never sent.
        if type(ids) is not list or any(type(t) is not int for t in ids):
            raise ValueError("token ids must be lists of integers")
    mask = LogitMask(frozenset(allowed), termination) if masked else None
    query = query or None
    if top_k is not None and (type(top_k) is not int or top_k < 0 or mask is not None):
        raise ValueError("top_k must be a non-negative integer and cannot come with allowed")
    return context, mask, query, top_k


def _parse_batch(payload: dict, vocab: Vocabulary | None) -> list:
    """The parsed asks of a batch body, each with ``shared`` joined to its
    ``context_tokens``; raises on any field that does not validate."""
    shared, asks = payload["shared"], payload["asks"]
    if type(shared) is not list or any(type(t) is not int for t in shared):
        raise ValueError("shared must be a list of integers")
    if type(asks) is not list:
        raise ValueError("asks must be a list")
    parsed = []
    for ask in asks:
        if type(ask) is not dict or type(ask.get("context_tokens")) is not list:
            raise ValueError("each batch ask needs a context_tokens list")
        if "context_text" in ask:
            raise ValueError("a batch ask carries no context_text")
        parsed.append(_parse_ask({**ask, "context_tokens": shared + ask["context_tokens"]}, vocab))
    return parsed


def _answer(backend: ModelBackend, context, mask, query, top_k) -> dict:
    """The answer object to one parsed ask. An unmasked ``top_k`` ask gets the
    whole table, trimmed as a local ask trims it."""
    if top_k is None:
        dist = backend.next_distribution(context, mask, query)
        probs, argmax = dist.probs, dist.argmax
    else:
        table = backend.next_distribution(context, None, None).probs
        probs, argmax = top_k_answer(table, query or (), top_k)
    return {"probs": {str(t): p for t, p in probs.items()}, "argmax": argmax}


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
                batch = type(payload) is dict and "asks" in payload
                asks = _parse_batch(payload, vocab) if batch else [_parse_ask(payload, vocab)]
            except Exception as exc:  # any body that does not parse or validate
                self._reply(400, {"error": "bad_request", "detail": str(exc)})
                return
            try:
                answers = [_answer(backend, *ask) for ask in asks]
            except ContextTooLong as exc:
                self._reply(413, {"error": "context_too_long", "detail": str(exc)})
                return
            except Exception:  # a fault of the backend, not of the request
                logging.getLogger(__name__).exception("backend failed to answer a request")
                self._reply(500, {"error": "internal"})
                return
            self._reply(200, {"answers": answers} if batch else answers[0])

        def _reply(self, code: int, body: dict):
            data = json.dumps(body).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            if code != 200:
                # The body may be unread or unparsed: read no next request after it.
                self.send_header("Connection", "close")
                self.close_connection = True
            else:
                self.send_header(BATCH_HEADER, "1")
                if vocab is not None:
                    self.send_header(TERMINATION_HEADER, _class_tag(vocab.termination_ids()))
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

    With ``vocab`` the server tokenizes ``context_text`` requests and names
    the vocabulary's termination class in every 200 reply, so that terminal
    asks send the class's name instead of its ids. The name is computed at
    the first reply, not here.

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
