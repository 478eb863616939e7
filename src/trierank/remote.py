"""Remote next-token-distribution protocol over HTTP POST.

Request (JSON body, any path)::

    {"context_tokens": [int, ...]   # or "context_text": str
     "allowed": [int, ...] | null,  # renormalize + constrain argmax over these
     "query": [int, ...] | null}    # report these ids without constraining

``allowed`` is the mask's whole admissible set, expanded: a termination
class travels as its ids, and the server answers for every one of them.

Response::

    {"probs": {"<token id>": float, ...}, "argmax": int}

Without ``allowed`` the response holds the whole table, whatever the
client's ``top_k``.

A body that does not parse or validate yields HTTP 400 with
``{"error": "bad_request"}``. A context exceeding the server's window yields
HTTP 413 with ``{"error": "context_too_long"}``; the client raises
:class:`ContextTooLong`. Anything else the backend raises yields HTTP 500
with ``{"error": "internal"}`` and is logged server-side with its traceback.
The client raises :class:`BackendUnavailable` for 400, 500 and transport
failures.

:func:`serve_backend` wraps any local backend in a threaded HTTP server,
optionally with a vocabulary so ``context_text`` requests can be tokenized
server-side (the fallback for clients whose greedy rule disagrees with the
model's tokenizer).
"""

from __future__ import annotations

import json
import logging
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .backend import Distribution, LogitMask, ModelBackend
from .errors import BackendUnavailable, ContextTooLong, EmptyInput
from .vocab import Vocabulary, greedy_tokenize


class RemoteBackend(ModelBackend):
    """Client side of the protocol; one instance per in-flight completion."""

    def __init__(self, endpoint: str, timeout: float = 10.0):
        self.endpoint = endpoint
        self.timeout = timeout

    def session(self) -> "RemoteBackend":
        return RemoteBackend(self.endpoint, self.timeout)

    def next_distribution(self, context, allowed=None, query=None, top_k=None) -> Distribution:
        """The server's answer; an unmasked one holds the whole table, which
        covers any ``top_k``, so ``top_k`` never goes on the wire."""
        payload = {
            "context_tokens": list(context),
            "allowed": sorted(allowed.allowed) if allowed is not None else None,
            "query": sorted(query) if query else None,
        }
        return self._request(payload)

    def _request(self, payload: dict) -> Distribution:
        request = urllib.request.Request(
            self.endpoint,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            if exc.code == 413:
                raise ContextTooLong(f"server rejected context: {exc.reason}") from None
            raise BackendUnavailable(f"HTTP {exc.code} from {self.endpoint}") from None
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            raise BackendUnavailable(f"cannot reach {self.endpoint}: {exc}") from None
        try:
            probs = {int(token): float(p) for token, p in body["probs"].items()}
            return Distribution(probs, int(body["argmax"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise BackendUnavailable(f"malformed response from {self.endpoint}: {exc}") from None


def _make_handler(backend: ModelBackend, vocab: Vocabulary | None):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):  # quiet test servers
            pass

        def do_POST(self):
            try:
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length).decode("utf-8"))
                context = payload.get("context_tokens")
                if context is None:
                    text = payload.get("context_text")
                    if text is None or vocab is None:
                        raise ValueError("no usable context in request")
                    context = list(greedy_tokenize(text, vocab).ids)
                context = [int(t) for t in context]
                if not context:
                    raise EmptyInput("context must be non-empty")
                allowed, query = payload.get("allowed"), payload.get("query")
                mask = None if allowed is None else LogitMask(frozenset(int(t) for t in allowed))
                query = [int(t) for t in query] if query else None
            except Exception as exc:  # any body that does not parse or validate
                self._reply(400, {"error": "bad_request", "detail": str(exc)})
                return
            try:
                dist = backend.next_distribution(context, mask, query)
            except ContextTooLong as exc:
                self._reply(413, {"error": "context_too_long", "detail": str(exc)})
                return
            except Exception:  # a fault of the backend, not of the request
                logging.getLogger(__name__).exception("backend failed to answer a request")
                self._reply(500, {"error": "internal"})
                return
            self._reply(
                200,
                {"probs": {str(t): p for t, p in dist.probs.items()}, "argmax": dist.argmax},
            )

        def _reply(self, code: int, body: dict):
            data = json.dumps(body).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

    return Handler


def serve_backend(
    backend: ModelBackend,
    vocab: Vocabulary | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> tuple[ThreadingHTTPServer, str]:
    """Expose ``backend`` over the protocol; returns (server, endpoint URL).

    The server runs on a daemon thread; call ``server.shutdown()`` and then
    ``server.server_close()`` when done.
    """
    server = ThreadingHTTPServer((host, port), _make_handler(backend, vocab))
    # ``shutdown()`` waits up to one poll interval; the library default is 0.5 s.
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    return server, f"http://{server.server_address[0]}:{server.server_address[1]}/"
