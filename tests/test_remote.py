import json
import logging
import os
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from trierank import (
    LogitMask,
    beam_all,
    MockBackend,
    ModelBackend,
    SeededBackend,
    Vocabulary,
    build_tree,
    full_subtoken_map,
    greedy_tokenize,
    next_distribution,
    rank,
)
from trierank.errors import BackendUnavailable, ContextTooLong
from trierank.ranking import DecodeConfig, build_allowed_set
from trierank.remote import MAX_BODY_BYTES, RemoteBackend, serve_backend

from support import count_connections, garble


@pytest.fixture
def hosted():
    """(vocab, local backend, server, endpoint) of a loopback server."""
    vocab = Vocabulary.from_texts(["x", ".", "add", "clear"])
    backend = MockBackend(
        default={vocab.id("x"): 1.0},
        contexts={(vocab.id("."),): {vocab.id("add"): 0.7, vocab.id("clear"): 0.3}},
        max_context=16,
    )
    server, url = serve_backend(backend, vocab)
    yield vocab, backend, server, url
    server.shutdown()
    server.server_close()


@pytest.fixture
def served(hosted, connect):
    vocab, backend, _, url = hosted
    return vocab, backend, connect(url)


def test_remote_matches_local(served):
    vocab, local, remote = served
    for ctx in ([vocab.id(".")], [vocab.id("x"), vocab.id(".")]):
        a = next_distribution(local, ctx)
        b = next_distribution(remote, ctx)
        assert a.probs == b.probs and a.argmax == b.argmax


def test_remote_masked_renormalization(served):
    vocab, local, remote = served
    mask = LogitMask(frozenset({vocab.id("add"), vocab.id("clear")}))
    dist = remote.next_distribution([vocab.id(".")], mask)
    assert dist.probs[vocab.id("add")] == pytest.approx(0.7, abs=1e-12)
    assert dist.argmax == vocab.id("add")


def test_remote_query_ids_reported(served):
    vocab, _, remote = served
    dist = remote.next_distribution([vocab.id(".")], None, [vocab.id("x")])
    assert dist.probs[vocab.id("x")] == 0.0


def post(endpoint: str, payload: dict) -> dict:
    request = urllib.request.Request(
        endpoint, data=json.dumps(payload).encode(), headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def test_wire_format_fields(served):
    vocab, _, remote = served
    payload = {"context_tokens": [vocab.id(".")], "allowed": None, "query": None}
    body = post(remote.endpoint, payload)
    assert set(body) == {"probs", "argmax"}
    assert all(isinstance(k, str) and k.isdigit() for k in body["probs"])
    assert isinstance(body["argmax"], int)


def test_context_text_tokenized_server_side(served):
    vocab, local, remote = served
    body = post(remote.endpoint, {"context_text": "x.", "allowed": None, "query": None})
    via_ids = next_distribution(local, [vocab.id("x"), vocab.id(".")])
    assert {int(t): p for t, p in body["probs"].items()} == via_ids.probs
    assert body["argmax"] == via_ids.argmax


def test_context_too_long_maps_to_413(served):
    vocab, _, remote = served
    with pytest.raises(ContextTooLong):
        remote.next_distribution([0] * 17)


def test_unreachable_endpoint():
    remote = RemoteBackend("http://127.0.0.1:9/", timeout=0.5)
    with pytest.raises(BackendUnavailable):
        remote.next_distribution([1])


def test_malformed_request_is_backend_error(served, connect):
    _, _, remote = served
    bad = connect(remote.endpoint)
    # Server answers 400 for requests without a usable context.
    with pytest.raises(BackendUnavailable):
        bad._request({"allowed": None, "query": None})


def post_raw(endpoint: str, body: bytes) -> tuple[int, dict]:
    request = urllib.request.Request(endpoint, data=body)
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_unparsable_or_invalid_body_answers_400(served):
    _, _, remote = served
    for body in [
        b"not json",
        b"[1, 2]",
        b'{"context_tokens": ["x"]}',
        b'{"context_tokens": 5}',
        b'{"context_tokens": [1], "allowed": []}',
        b'{"context_tokens": [1], "query": [null]}',
        b'{"context_tokens": [1], "top_k": -1}',
        b'{"context_tokens": [1], "top_k": 1.0}',
        b'{"context_tokens": [1], "top_k": "2"}',
        b'{"context_tokens": [1], "top_k": true}',
        b'{"context_tokens": [1], "top_k": 1, "allowed": [1]}',
        b'{"context_tokens": [1.9]}',
        b'{"context_tokens": [true]}',
        b'{"context_tokens": ["1"]}',
        b'{"context_tokens": "12"}',
        b'{"context_tokens": [1], "allowed": [2.5, 3]}',
        b'{"context_tokens": [1], "allowed": [false, 3]}',
        b'{"context_tokens": [1], "query": [2.0]}',
        b'{"context_tokens": [1], "query": ["2"]}',
    ]:
        code, reply = post_raw(remote.endpoint, body)
        assert code == 400 and reply["error"] == "bad_request", body


class _Crashing(ModelBackend):
    def next_distribution(self, context, allowed=None, query=None):
        raise RuntimeError("model process died")


def test_backend_fault_answers_500_and_the_client_reports_it(caplog, connect):
    """The wire says only "internal"; the cause is logged on the server side."""
    server, url = serve_backend(_Crashing())
    try:
        with caplog.at_level(logging.ERROR, logger="trierank.remote"):
            code, reply = post_raw(url, b'{"context_tokens": [1]}')
        assert code == 500 and reply == {"error": "internal"}
        (record,) = [r for r in caplog.records if r.name == "trierank.remote"]
        assert record.exc_info[0] is RuntimeError
        assert "model process died" in caplog.text
        with pytest.raises(BackendUnavailable, match="HTTP 500"):
            connect(url).next_distribution([1])
    finally:
        server.shutdown()
        server.server_close()


def _ask_only_backends():
    """A sparse table with tied and zero entries and unlisted low ids, and a
    full-support seeded one."""
    yield MockBackend(default={5: 0.2, 1: 0.2, 7: 0.1, 3: 0.4, 9: 0.0, 4: 0.1}), 6
    yield SeededBackend(40, seed=3), 40


@pytest.mark.parametrize(
    "query", [None, [3], [0, 3, 8, 60]], ids=["no-query", "inside", "inside-and-outside"]
)
def test_remote_top_k_answer_equals_the_local_one(query, connect):
    """An unmasked ``top_k`` ask is answered on the wire with exactly the local
    answer: the queried ids, inside the table or not, plus the ``top_k`` most
    probable ids, and ``argmax`` ``None`` at ``top_k=0``."""
    for backend, size in _ask_only_backends():
        server, url = serve_backend(backend)
        try:
            remote = connect(url)
            for top_k in (0, 1, size // 2, size, size + 3):
                local = next_distribution(backend, [1, 2], query=query, top_k=top_k)
                assert next_distribution(remote, [1, 2], query=query, top_k=top_k) == local
                assert (local.argmax is None) == (top_k == 0)
        finally:
            server.shutdown()
            server.server_close()


@pytest.mark.parametrize("over", ["local", "remote"])
def test_out_of_range_ids_read_zero_from_a_dense_table(over, connect):
    """A ``query`` or ``allowed`` id of -1 or of the vocabulary's size reads 0.0
    from a dense seeded table, as from the equal dict table, locally and over
    the wire, where any integer id passes the server's checks: -1 never wraps
    around to the last token."""
    seeded = SeededBackend(8, seed=1)
    by_dict = MockBackend(default=dict(enumerate(seeded.raw_distribution([1]))))
    outside = [-1, 8]
    asks = [
        {"mask": LogitMask(frozenset({-1, 3, 8}))},
        {"mask": LogitMask(frozenset({3}), frozenset({-1, 5, 8}))},
        {},
        {"top_k": 2},
    ]
    server, url = serve_backend(seeded)
    try:
        backend = seeded if over == "local" else connect(url)
        for ask in asks:
            dist = next_distribution(backend, [1], query=outside, **ask)
            assert dist == next_distribution(by_dict, [1], query=outside, **ask)
            assert dist.probs[-1] == dist.probs[8] == 0.0
            assert dist.argmax not in outside
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("context", [{"context_tokens": []}, {"context_text": ""}])
def test_empty_context_answers_400(served, context):
    _, _, remote = served
    with pytest.raises(urllib.error.HTTPError) as err:
        post(remote.endpoint, {**context, "allowed": None, "query": None})
    assert err.value.code == 400
    assert json.loads(err.value.read())["detail"] == "context must be non-empty"


def test_remote_drives_full_ranking(served):
    from trierank import rank, greedy_tokenize

    vocab, local, remote = served
    prefix = greedy_tokenize("x.", vocab)
    via_remote, _ = rank(remote, prefix, ["add", "clear"], vocab)
    via_local, _ = rank(local, prefix, ["add", "clear"], vocab)
    assert [r.identifier for r in via_remote] == [r.identifier for r in via_local]


def test_seeded_backend_over_the_wire_is_deterministic(connect):
    server, url = serve_backend(SeededBackend(8, seed=5))
    try:
        a = connect(url).next_distribution([1, 2])
        b = connect(url).next_distribution([1, 2])
        assert a.probs == b.probs
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("seed", range(4))
def test_remote_matches_local_at_a_terminal_node(seed, connect):
    """The client expands the termination class on the wire; the server's
    floats on the explicit ids, and its argmax, equal the local class path's."""
    vocab = Vocabulary.from_texts(["x", ".", "(", ")", ";", "\n", "add", "All", "Al", "A", "a"])
    local = SeededBackend(vocab.size, seed)
    prefix = greedy_tokenize("x.", vocab)
    tree = build_tree(["add", "addAll"], vocab)
    node = tree.root.children[vocab.id("add")]
    mask = build_allowed_set(node, full_subtoken_map(vocab), vocab, DecodeConfig())
    assert mask.termination
    context = [*prefix.ids, vocab.id("add")]
    server, url = serve_backend(local)
    try:
        remote = connect(url)
        a = next_distribution(local, context, mask)
        b = next_distribution(remote, context, mask)
        assert a.argmax == b.argmax
        assert all(a.probs[t] == b.probs[t] for t in a.probs)
        candidates = ["add", "addAll", "a", "Al"]
        via_local, local_stats = rank(local, prefix, candidates, vocab)
        via_remote, remote_stats = rank(remote, prefix, candidates, vocab)
        assert via_local == via_remote and local_stats == remote_stats
    finally:
        server.shutdown()
        server.server_close()



def test_one_connection_carries_every_ask(hosted, connect):
    vocab, local, server, url = hosted
    opened = count_connections(server)
    remote = connect(url)
    for i in range(20):
        context = [vocab.id("x")] * (i % 3) + [vocab.id(".")]
        assert remote.next_distribution(context) == local.next_distribution(context)
    assert len(opened) == 1


def test_threads_sharing_one_backend_get_the_local_answers(hosted, connect):
    """More threads than cores, switching often: every answer is the local
    one, no thread holds two connections, and every connection ends idle."""
    vocab, local, server, url = hosted
    opened = count_connections(server)
    remote = connect(url)
    contexts = [[vocab.id("x")] * (i % 4) + [vocab.id(".")] for i in range(40)]
    threads = max(2, (os.cpu_count() or 1) + 1)
    answers: dict[int, list] = {}
    start = threading.Barrier(threads)

    def ask(worker: int) -> None:
        start.wait()
        answers[worker] = [remote.next_distribution(c) for c in contexts]

    workers = [threading.Thread(target=ask, args=(w,)) for w in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    expected = [local.next_distribution(c) for c in contexts]
    assert answers == {w: expected for w in range(threads)}
    assert 1 <= len(opened) <= threads and len(remote._idle) == len(opened)


def test_close_leaves_no_idle_connection_open(hosted, connect):
    vocab, local, server, url = hosted
    opened = count_connections(server)
    remote = connect(url)
    context = [vocab.id(".")]
    barrier = threading.Barrier(3)

    def ask() -> None:
        barrier.wait()
        remote.next_distribution(context)

    workers = [threading.Thread(target=ask) for _ in range(3)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(10)
    assert not any(w.is_alive() for w in workers)
    idle = list(remote._idle)
    assert len(idle) == len(opened) >= 1
    remote.close()
    assert not remote._idle and all(c.sock is None for c in idle)
    assert remote.next_distribution(context) == local.next_distribution(context)
    assert len(opened) == len(idle) + 1  # the next ask opens a new one


def test_shutdown_is_prompt_while_a_client_connection_is_open(connect):
    local = SeededBackend(8, seed=1)
    server, url = serve_backend(local)
    opened = count_connections(server)
    remote = connect(url)
    remote.next_distribution([1])
    remote.next_distribution([2])
    assert len(opened) == 1  # kept alive
    started = time.monotonic()
    stopper = threading.Thread(target=lambda: (server.shutdown(), server.server_close()))
    stopper.start()
    stopper.join(5)
    assert not stopper.is_alive() and time.monotonic() - started < 1.0


def test_a_stopped_server_answers_no_kept_alive_client(connect):
    local = SeededBackend(8, seed=1)
    server, url = serve_backend(local)
    remote = connect(url)
    assert remote.next_distribution([1]) == local.next_distribution([1])
    server.shutdown()
    server.server_close()
    with pytest.raises(BackendUnavailable):
        remote.next_distribution([1])
    with pytest.raises(BackendUnavailable):
        connect(url).next_distribution([1])


def test_an_idle_connection_is_closed_and_the_ask_retried_once(hosted, connect):
    vocab, local, server, url = hosted
    opened = count_connections(server)
    server.RequestHandlerClass.timeout = 0.2
    remote = connect(url)
    context = [vocab.id(".")]
    assert remote.next_distribution(context) == local.next_distribution(context)
    time.sleep(0.5)  # the server closes the idle connection
    assert remote.next_distribution(context) == local.next_distribution(context)
    assert len(opened) == 2


def test_a_new_connection_that_fails_is_not_retried(hosted, connect):
    _, _, server, url = hosted
    opened = count_connections(server)

    class Hangup(server.RequestHandlerClass):
        def do_POST(self):
            self.close_connection = True  # no reply at all

    server.RequestHandlerClass = Hangup
    with pytest.raises(BackendUnavailable, match="cannot reach"):
        connect(url).next_distribution([1])
    assert len(opened) == 1


def raw_exchange(endpoint: str, head: bytes) -> tuple[int, dict]:
    """Send one request with no body and read the reply up to the server's
    close; a server that kept the connection open would time this out."""
    host, port = endpoint.split("/")[2].split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(b"POST / HTTP/1.1\r\nHost: x\r\n" + head + b"\r\n")
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    status, _, rest = data.partition(b"\r\n")
    return int(status.split()[1]), json.loads(rest.partition(b"\r\n\r\n")[2])


@pytest.mark.parametrize(
    "head, code, error",
    [
        (b"", 400, "bad_request"),
        (b"Content-Length: -1\r\n", 400, "bad_request"),
        (b"Content-Length: abc\r\n", 400, "bad_request"),
        (b"Content-Length: 1.5\r\n", 400, "bad_request"),
        (f"Content-Length: {MAX_BODY_BYTES + 1}\r\n".encode(), 413, "body_too_large"),
    ],
    ids=["missing-length", "negative-length", "word-length", "fraction-length", "too-large"],
)
def test_a_bad_request_head_is_answered_and_its_connection_closed(hosted, head, code, error, connect):
    """Answered without reading a body; the server then closes the connection,
    and a client's kept-alive connection still answers."""
    vocab, local, server, url = hosted
    opened = count_connections(server)
    remote = connect(url)
    context = [vocab.id(".")]
    assert remote.next_distribution(context) == local.next_distribution(context)
    reply_code, reply = raw_exchange(url, head)
    assert reply_code == code and reply["error"] == error
    assert remote.next_distribution(context) == local.next_distribution(context)
    assert len(opened) == 2


class _Faulty(MockBackend):
    """A table model whose forward pass fails on any context holding token 13."""

    def raw_distribution(self, context):
        if 13 in context:
            raise RuntimeError("model process died")
        return super().raw_distribution(context)


@pytest.mark.parametrize(
    "bad_ask, error",
    [
        (lambda remote: remote._request({"query": None}), BackendUnavailable),
        (lambda remote: remote.next_distribution([1] * 17), ContextTooLong),
        (lambda remote: remote.next_distribution([13]), BackendUnavailable),
    ],
    ids=["400", "413", "500"],
)
def test_an_error_reply_ends_the_connection_and_the_client_recovers(bad_ask, error, caplog, connect):
    local = _Faulty(default={1: 0.6, 2: 0.4}, max_context=16)
    server, url = serve_backend(local)
    opened = count_connections(server)
    try:
        remote = connect(url)
        assert remote.next_distribution([1]) == local.next_distribution([1])
        with caplog.at_level(logging.CRITICAL, logger="trierank.remote"), pytest.raises(error):
            bad_ask(remote)
        assert remote.next_distribution([2, 1]) == local.next_distribution([2, 1])
        assert len(opened) == 2
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize(
    "body",
    [
        b"not json",
        b"[1]",
        b'{"probs": [], "argmax": 1}',
        b'{"probs": {"1": 0.5}}',
        b'{"probs": {"1": 0.5}, "argmax": true}',
        b'{"probs": {"1": 0.5}, "argmax": 99}',
        b'{"probs": {"1": 0.5}, "argmax": 1.9}',
        b'{"probs": {"1": 0.5}, "argmax": "1"}',
        b'{"probs": {"1": 0.5}, "argmax": null}',
        b'{"probs": {"1": "0.5"}, "argmax": 1}',
        b'{"probs": {"1": true}, "argmax": 1}',
        b'{"probs": {"1": null}, "argmax": 1}',
        b'{"probs": {"1": NaN}, "argmax": 1}',
        b'{"probs": {"1": Infinity}, "argmax": 1}',
        b'{"probs": {"1": 1e999}, "argmax": 1}',
        b'{"probs": {"1": -4}, "argmax": 1}',
        b'{"probs": {"1": 1' + b"0" * 400 + b'}, "argmax": 1}',
        b'{"probs": {"one": 0.5}, "argmax": 1}',
        b'{"probs": {"1_0": 0.5}, "argmax": 10}',
        b'{"probs": {" 1": 0.5}, "argmax": 1}',
        b'{"probs": {"1.0": 0.5}, "argmax": 1}',
        b'{"probs": {"1": 0.5, "01": 0.5}, "argmax": 1}',
    ],
)
def test_a_malformed_answer_is_backend_error(hosted, body, connect):
    _, _, server, url = hosted

    class Garbled(server.RequestHandlerClass):
        def _reply(self, code, _):
            self.send_response(code)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    server.RequestHandlerClass = Garbled
    with pytest.raises(BackendUnavailable, match="malformed response"):
        connect(url).next_distribution([1])


MASK = LogitMask(frozenset({1, 2}))


@pytest.mark.parametrize(
    "ask, body",
    [
        ({"allowed": MASK}, {"probs": {"1": 0.5, "2": 0.4, "3": 0.9}, "argmax": 3}),
        ({"allowed": MASK}, {"probs": {"1": 0.5, "2": 0.5, "-1": 0.0}, "argmax": -1}),
        ({"allowed": MASK}, {"probs": {"1": 1.0}, "argmax": 1}),
        ({"allowed": MASK}, {"probs": {"1": 0.5, "2": 0.5}, "argmax": None}),
        ({"query": [1, 2], "top_k": 0}, {"probs": {"1": 0.5}, "argmax": None}),
        ({"query": [1, 2], "top_k": 1}, {"probs": {"1": 0.5, "2": 0.5}, "argmax": None}),
        ({"query": [2], "top_k": None}, {"probs": {"1": 1.0}, "argmax": 1}),
    ],
    ids=[
        "argmax-outside-mask", "negative-argmax-outside-mask", "mask-id-missing",
        "masked-null-argmax", "query-id-missing", "top-k-1-null-argmax", "whole-table-query-missing",
    ],
)
def test_an_answer_that_lacks_what_the_ask_reads_is_backend_error(hosted, ask, body, connect):
    _, _, server, url = hosted
    garble(server, json.dumps(body).encode())
    with pytest.raises(BackendUnavailable, match="malformed response"):
        next_distribution(connect(url), [1], ask.get("allowed"), ask.get("query"), ask.get("top_k"))


@pytest.mark.parametrize(
    "ask", [{}, {"query": [1, 2], "top_k": 0}, {"query": [2], "top_k": 1}, {"allowed": MASK}]
)
def test_a_v1_whole_table_answers_every_ask(hosted, ask, connect):
    """A v1 server answers every unmasked ask with the whole table and its argmax."""
    _, _, server, url = hosted
    garble(server, b'{"probs": {"1": 0.7, "2": 0.3}, "argmax": 1}')
    dist = next_distribution(connect(url), [1], ask.get("allowed"), ask.get("query"), ask.get("top_k"))
    assert dist.probs == {1: 0.7, 2: 0.3} and dist.argmax == 1


def test_rank_and_beam_all_report_a_malformed_answer(hosted, connect):
    vocab, _, server, url = hosted
    prefix, candidates = greedy_tokenize("x.", vocab), ["add", "clear"]
    add, clear = vocab.id("add"), vocab.id("clear")
    # A connection keeps the handler it was accepted with: each body gets a new client.
    # An argmax outside the mask, which the decode used to assert on.
    garble(server, json.dumps({"probs": {add: 0.5, clear: 0.5, 0: 0.9}, "argmax": 0}).encode())
    with pytest.raises(BackendUnavailable, match="outside the mask"):
        rank(connect(url), prefix, candidates, vocab)
    # A top_k=0 answer without a child's probability, which beam_all used to index.
    garble(server, json.dumps({"probs": {add: 0.5}, "argmax": None}).encode())
    with pytest.raises(BackendUnavailable, match=f"asked id {clear}"):
        beam_all(connect(url), build_tree(candidates, vocab), prefix)


class _ThreeArgument(ModelBackend):
    """A hosted backend whose ``next_distribution`` takes no ``top_k``."""

    def __init__(self, inner: ModelBackend):
        self.inner = inner

    def next_distribution(self, context, allowed=None, query=None):
        return self.inner.next_distribution(context, allowed, query)


def test_a_three_argument_backend_serves_top_k_asks(connect):
    local = SeededBackend(30, seed=2)
    server, url = serve_backend(_ThreeArgument(local))
    try:
        remote = connect(url)
        for top_k in (0, 2):
            expected = next_distribution(local, [4, 5], query=[7], top_k=top_k)
            assert next_distribution(remote, [4, 5], query=[7], top_k=top_k) == expected
    finally:
        server.shutdown()
        server.server_close()
