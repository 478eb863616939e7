import json
import logging
import urllib.error
import urllib.request

import pytest

from trierank import (
    LogitMask,
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
from trierank.remote import RemoteBackend, serve_backend


@pytest.fixture
def served():
    vocab = Vocabulary.from_texts(["x", ".", "add", "clear"])
    backend = MockBackend(
        default={vocab.id("x"): 1.0},
        contexts={(vocab.id("."),): {vocab.id("add"): 0.7, vocab.id("clear"): 0.3}},
        max_context=16,
    )
    server, url = serve_backend(backend, vocab)
    yield vocab, backend, RemoteBackend(url)
    server.shutdown()
    server.server_close()


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
    return json.loads(urllib.request.urlopen(request).read())


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


def test_malformed_request_is_backend_error(served):
    _, _, remote = served
    bad = RemoteBackend(remote.endpoint)
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
    ]:
        code, reply = post_raw(remote.endpoint, body)
        assert code == 400 and reply["error"] == "bad_request", body


class _Crashing(ModelBackend):
    def next_distribution(self, context, allowed=None, query=None):
        raise RuntimeError("model process died")


def test_backend_fault_answers_500_and_the_client_reports_it(caplog):
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
            RemoteBackend(url).next_distribution([1])
    finally:
        server.shutdown()
        server.server_close()


def test_remote_top_k_is_answered_with_the_whole_table(served):
    """``top_k`` never goes on the wire: the answer is the full unmasked table."""
    vocab, local, remote = served
    context = [vocab.id(".")]
    assert next_distribution(remote, context, top_k=1) == next_distribution(local, context)


@pytest.mark.parametrize("context", [{"context_tokens": []}, {"context_text": ""}])
def test_empty_context_answers_400(served, context):
    _, _, remote = served
    with pytest.raises(urllib.error.HTTPError) as err:
        post(remote.endpoint, {**context, "allowed": None, "query": None})
    assert err.value.code == 400
    assert json.loads(err.value.read())["detail"] == "context must be non-empty"


def test_session_is_fresh_instance(served):
    _, _, remote = served
    session = remote.session()
    assert session is not remote and session.endpoint == remote.endpoint


def test_remote_drives_full_ranking(served):
    from trierank import rank, greedy_tokenize

    vocab, local, remote = served
    prefix = greedy_tokenize("x.", vocab)
    via_remote, _ = rank(remote, prefix, ["add", "clear"], vocab)
    via_local, _ = rank(local, prefix, ["add", "clear"], vocab)
    assert [r.identifier for r in via_remote] == [r.identifier for r in via_local]


def test_seeded_backend_over_the_wire_is_deterministic():
    server, url = serve_backend(SeededBackend(8, seed=5))
    try:
        a = RemoteBackend(url).next_distribution([1, 2])
        b = RemoteBackend(url).next_distribution([1, 2])
        assert a.probs == b.probs
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("seed", range(4))
def test_remote_matches_local_at_a_terminal_node(seed):
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
        remote = RemoteBackend(url)
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
