import heapq
import io
import itertools
import json
import math
import random

import pytest

from trierank import (
    CountingBackend,
    DecodeConfig,
    MockBackend,
    SeededBackend,
    Vocabulary,
    beam_all,
    beam_search,
    build_tree,
    filter_to_candidates,
    greedy_complete,
    greedy_tokenize,
    load_dataset,
    mock_backend_from_spec,
    next_distribution,
    rank,
)
from trierank.remote import RemoteBackend, serve_backend
from trierank.vocab import identifier_prefix

from support import random_model


class TestGreedyComplete:
    def test_truncates_at_boundary(self, worked_vocab, worked_prefix):
        t = worked_vocab.id
        backend = MockBackend(
            default={t("ret"): 1.0},
            contexts={
                (t("."),): {t("add"): 0.9, t("clear"): 0.1},
                (t("add"),): {t("("): 0.6, t("All"): 0.4},
            },
        )
        assert greedy_complete(backend, worked_prefix, worked_vocab) == "add"

    def test_immediate_truncation_is_empty(self, worked_vocab, worked_prefix):
        t = worked_vocab.id
        backend = MockBackend(
            default={t("ret"): 1.0},
            contexts={(t("."),): {t("("): 0.9, t("add"): 0.1}},
        )
        assert greedy_complete(backend, worked_prefix, worked_vocab) == ""

    def test_multi_token_identifier(self):
        vocab = Vocabulary.from_texts(["x", ".", "is", "Empty", "\n"])
        t = vocab.id
        backend = MockBackend(
            default={t("\n"): 1.0},
            contexts={
                (t("."),): {t("is"): 0.8, t("Empty"): 0.2},
                (t("is"),): {t("Empty"): 0.9, t("\n"): 0.1},
            },
        )
        prefix = greedy_tokenize("x.", vocab)
        assert greedy_complete(backend, prefix, vocab) == "isEmpty"

    def test_respects_max_steps(self):
        vocab = Vocabulary.from_texts(["a", "."])
        backend = MockBackend(default={0: 1.0})
        prefix = greedy_tokenize("a.", vocab)
        assert greedy_complete(backend, prefix, vocab, max_steps=3) == "aaa"
        with pytest.raises(ValueError):
            greedy_complete(backend, prefix, vocab, max_steps=0)


def enumerate_paths(backend, prefix, vocab, max_steps):
    """Exhaustive DFS over token paths; mirrors the beam finish rule."""
    finals = []

    def walk(ids, text, logp, depth):
        if identifier_prefix(text) != text or depth == max_steps:
            finals.append((text, logp))
            return
        dist = next_distribution(backend, list(prefix.ids) + ids)
        for token, p in dist.probs.items():
            walk(
                ids + [token],
                text + vocab.texts[token],
                logp + (math.log(p) if p > 0 else float("-inf")),
                depth + 1,
            )

    walk([], "", 0.0, 0)
    best: dict[str, float] = {}
    for text, logp in finals:
        ident = identifier_prefix(text)
        if ident not in best or logp > best[ident]:
            best[ident] = logp
    return best


class TestBeamSearch:
    @pytest.fixture
    def toy(self):
        vocab = Vocabulary.from_texts(["x", ".", "a", "b", "("])
        t = vocab.id
        backend = MockBackend(
            default={t("("): 1.0},
            contexts={
                (t("."),): {t("a"): 0.6, t("b"): 0.3, t("("): 0.1},
                (t("a"),): {t("b"): 0.7, t("("): 0.3},
                (t("b"),): {t("a"): 0.2, t("("): 0.8},
            },
        )
        return vocab, backend, greedy_tokenize("x.", vocab)

    def test_width_one_equals_greedy(self, toy):
        vocab, backend, prefix = toy
        beams = beam_search(backend, prefix, vocab, width=1, max_steps=4)
        assert beams[0][0] == greedy_complete(backend, prefix, vocab, max_steps=4)

    def test_wide_beam_matches_exhaustive_enumeration(self, toy):
        vocab, backend, prefix = toy
        expected = enumerate_paths(backend, prefix, vocab, max_steps=2)
        beams = beam_search(backend, prefix, vocab, width=64, max_steps=2)
        assert {b[0] for b in beams} == set(expected)
        for ident, logp in beams:
            assert logp == pytest.approx(expected[ident], rel=1e-12)
        scores = [b[1] for b in beams]
        assert scores == sorted(scores, reverse=True)

    def test_equal_probabilities_expand_the_smallest_ids(self):
        vocab = Vocabulary.from_texts(["(", "a", "b", "c"])
        backend = MockBackend(default={3: 0.25, 2: 0.25, 1: 0.25, 0: 0.25})
        beams = beam_search(backend, greedy_tokenize("a", vocab), vocab, width=2, max_steps=1)
        assert [ident for ident, _ in beams] == ["", "a"]

    def test_width_zero_rejected(self, toy):
        vocab, backend, prefix = toy
        with pytest.raises(ValueError):
            beam_search(backend, prefix, vocab, width=0)

    def test_max_steps_zero_rejected(self, toy):
        # A decode of no step would return the empty identifier.
        vocab, backend, prefix = toy
        with pytest.raises(ValueError, match="max_steps"):
            beam_search(backend, prefix, vocab, width=2, max_steps=0)

    def test_width_larger_than_path_count(self, toy):
        vocab, backend, prefix = toy
        wide = beam_search(backend, prefix, vocab, width=500, max_steps=2)
        wider = beam_search(backend, prefix, vocab, width=1000, max_steps=2)
        assert wide == wider


def _counter_beam_search(backend, prefix, vocab, width, max_steps):
    """The former ``beam_search``: ties broken by an explicit creation counter,
    and a final re-sort. The reference for the stability-based tie rule."""
    beams = [((), "", 0.0, False, 0)]  # token ids, text, score, finished, creation index
    counter = 1
    for _ in range(max_steps):
        live = [b for b in beams if not b[3]]
        if not live:
            break
        expanded = [b for b in beams if b[3]]
        for ids, text, score, _, _ in live:
            dist = next_distribution(backend, list(prefix.ids) + list(ids), top_k=width)
            top = heapq.nsmallest(width, dist.probs.items(), key=lambda kv: (-kv[1], kv[0]))
            for token, p in top:
                grown = text + vocab.texts[token]
                logp = math.log(p) if p > 0.0 else float("-inf")
                finished = identifier_prefix(grown) != grown
                expanded.append((ids + (token,), grown, score + logp, finished, counter))
                counter += 1
        expanded.sort(key=lambda b: (-b[2], b[4]))
        beams = expanded[:width]
    results, seen = [], set()
    for _, text, score, _, _ in sorted(beams, key=lambda b: (-b[2], b[4])):
        ident = identifier_prefix(text)
        if ident not in seen:
            seen.add(ident)
            results.append((ident, score))
    return results


def _tie_heavy_backend(rng: random.Random, size: int) -> MockBackend:
    """Integer weights 0-3 on one- and two-token suffixes: equal scores are common."""

    def table():
        return {t: rng.randint(0, 3) for t in range(size)}

    contexts = {(t,): table() for t in range(size)}
    for _ in range(size):
        contexts.setdefault((rng.randrange(size), rng.randrange(size)), table())
    return MockBackend(table(), contexts)


class TestBeamTies:
    WIDTHS = (1, 2, 5, 20)

    def test_matches_the_counter_based_reference(self):
        """Sort stability orders equal scores as the creation counter did."""
        vocab = Vocabulary.from_texts(["x", ".", "a", "b", "ab", "ba", "(", " a", "c"])
        prefix = greedy_tokenize("x.", vocab)
        rng = random.Random(0)
        models = [_tie_heavy_backend(rng, vocab.size) for _ in range(60)]
        models += [SeededBackend(vocab.size, seed) for seed in range(10)]
        ties = 0
        for backend in models:
            for width in self.WIDTHS:
                for max_steps in range(1, 5):
                    got = beam_search(backend, prefix, vocab, width, max_steps)
                    assert got == _counter_beam_search(backend, prefix, vocab, width, max_steps)
                    ties += len({score for _, score in got}) < len(got)
        assert ties > 0


class TestFilter:
    def test_keeps_candidates_only(self):
        beams = [("x", -0.1), ("add", -0.2), ("y", -0.3)]
        assert filter_to_candidates(beams, {"add", "clear"}) == [("add", -0.2)]

    def test_no_overlap(self):
        assert filter_to_candidates([("x", -0.1)], {"add"}) == []

    def test_full_overlap_and_idempotence(self):
        beams = [("add", -0.1), ("clear", -0.2)]
        once = filter_to_candidates(beams, {"add", "clear"})
        assert once == beams
        assert filter_to_candidates(once, {"add", "clear"}) == once


class TestBeamAll:
    def test_worked_example_alpha_one(
        self, worked_backend, worked_vocab, worked_prefix, worked_candidates
    ):
        tree = build_tree(worked_candidates, worked_vocab)
        scores = beam_all(worked_backend, tree, worked_prefix, alpha=1.0)
        by_name = {s.identifier: s for s in scores}
        assert by_name["add"].penalized == pytest.approx(math.log(0.6), rel=1e-12)
        assert by_name["addAll"].penalized == pytest.approx(
            (math.log(0.6) + math.log(0.5)) / 2, rel=1e-12
        )
        assert by_name["clear"].penalized == pytest.approx(math.log(0.3), rel=1e-12)
        assert [s.identifier for s in scores] == ["add", "addAll", "clear"]

    def test_worked_example_alpha_zero(
        self, worked_backend, worked_vocab, worked_prefix, worked_candidates
    ):
        tree = build_tree(worked_candidates, worked_vocab)
        scores = beam_all(worked_backend, tree, worked_prefix, alpha=0.0)
        assert [s.identifier for s in scores][0] == "add"
        by_name = {s.identifier: s for s in scores}
        assert by_name["addAll"].sum_logprob == pytest.approx(math.log(0.3), rel=1e-12)
        assert by_name["clear"].sum_logprob == pytest.approx(math.log(0.3), rel=1e-12)

    def test_exact_tie_breaks_by_candidate_order(self, worked_vocab, worked_prefix):
        t = worked_vocab.id
        backend = MockBackend(
            default={t("ret"): 1.0},
            contexts={(t("."),): {t("add"): 0.3, t("clear"): 0.3, t("ret"): 0.4}},
        )
        tree = build_tree(["add", "clear"], worked_vocab)
        scores = beam_all(backend, tree, worked_prefix, alpha=0.0)
        assert [s.identifier for s in scores] == ["add", "clear"]
        scores = beam_all(backend, build_tree(["clear", "add"], worked_vocab), worked_prefix)
        assert [s.identifier for s in scores] == ["clear", "add"]

    def test_single_candidate_any_alpha(self, worked_backend, worked_vocab, worked_prefix):
        for alpha in (0.0, 0.5, 1.0, 2.0):
            tree = build_tree(["addAll"], worked_vocab)
            scores = beam_all(worked_backend, tree, worked_prefix, alpha=alpha)
            assert scores[0].identifier == "addAll" and scores[0].length == 2

    def test_forward_passes_equal_internal_nodes(self):
        for seed in range(10):
            vocab, candidates, prefix, backend = random_model(seed, max_candidates=20)
            tree = build_tree(candidates, vocab)
            internal = sum(1 for node in tree.walk() if node.children)
            counter = CountingBackend(backend)
            beam_all(counter, tree, prefix)
            assert counter.calls == internal

    def test_matches_per_candidate_walk(self):
        for seed in range(10):
            vocab, candidates, prefix, backend = random_model(seed, max_candidates=15)
            tree = build_tree(candidates, vocab)
            scores = {s.identifier: s for s in beam_all(backend, tree, prefix, alpha=1.0)}
            for cand in candidates:
                seq = greedy_tokenize(cand, vocab)
                ctx = list(prefix.ids)
                total = 0.0
                for token in seq.ids:
                    dist = next_distribution(backend, ctx, query={token})
                    p = dist.probs[token]
                    total += math.log(p) if p > 0 else float("-inf")
                    ctx.append(token)
                assert scores[cand].sum_logprob == pytest.approx(total, rel=1e-12)
                assert scores[cand].length == len(seq)

    def test_alpha_validation(self, worked_backend, worked_vocab, worked_prefix):
        tree = build_tree(["add"], worked_vocab)
        with pytest.raises(ValueError):
            beam_all(worked_backend, tree, worked_prefix, alpha=-1.0)


class _AskOnlyGuard(CountingBackend):
    """Fails on any unmasked call that asks for the whole table."""

    def next_distribution(self, context, allowed=None, query=None, top_k=None):
        assert allowed is not None or top_k is not None, "unmasked call without top_k"
        return super().next_distribution(context, allowed, query, top_k)


def _models(seeds):
    """(vocab, backend, [(prefix, candidates), ...]): the fixture points, then
    one point per seed on a 2,000-token vocabulary of 1-3 letter pieces, a
    third of them led by a space so that free generation ends."""
    vocab = Vocabulary.load("fixtures/vocab.tsv")
    dataset = load_dataset("fixtures/smoke.jsonl")
    points = [(greedy_tokenize(p.prefix, vocab), p.candidates) for p in dataset]
    yield vocab, mock_backend_from_spec("fixtures/mockspec.json", vocab), points
    letters = "abcdefghijklmnop"
    pieces = ["".join(p) for n in (1, 2, 3) for p in itertools.product(letters, repeat=n)]
    vocab = Vocabulary.from_texts([".", "("] + pieces[:1332] + [" " + p for p in pieces[:666]])
    point = (greedy_tokenize("a.", vocab), ["abc", "abcd", "abd", "ba", "bad", "cafe"])
    for seed in seeds:
        yield vocab, SeededBackend(2000, seed), [point]


def _baseline_results(backend, vocab, prefix, candidates):
    tree = build_tree(candidates, vocab)
    return (
        beam_all(backend, tree, prefix),
        beam_search(backend, prefix, vocab, width=5),
        greedy_complete(backend, prefix, vocab),
    )


def _loop_greedy_complete(backend, prefix, vocab, max_steps):
    """The former ``greedy_complete``, its own argmax loop: the reference for
    greedy decoding as beam search of width one."""
    context = list(prefix.ids)
    text = ""
    for _ in range(max_steps):
        dist = next_distribution(backend, context, top_k=1)
        context.append(dist.argmax)
        text += vocab.texts[dist.argmax]
        if identifier_prefix(text) != text:
            break
    return identifier_prefix(text)


class _AskRecorder(CountingBackend):
    """Records every ask as ``(context, top_k)``."""

    def __init__(self, inner):
        super().__init__(inner)
        self.asks = []

    def next_distribution(self, context, allowed=None, query=None, top_k=None):
        self.asks.append((tuple(context), top_k))
        return super().next_distribution(context, allowed, query, top_k)


def test_greedy_complete_asks_and_returns_what_the_argmax_loop_did():
    """On the fixtures, 60 tie-heavy table models with zero weights and
    ``SeededBackend(2000, s)`` for three seeds, at several step budgets."""
    models = [
        (vocab, backend, [prefix for prefix, _ in points])
        for vocab, backend, points in _models([0, 1, 2])
    ]
    vocab = Vocabulary.from_texts(["x", ".", "a", "b", "ab", "ba", "(", " a", "c"])
    rng = random.Random(1)
    prefixes = [greedy_tokenize(p, vocab) for p in ("x.", "a")]
    models += [(vocab, _tie_heavy_backend(rng, vocab.size), prefixes) for _ in range(60)]
    truncated = 0
    for vocab, backend, prefixes in models:
        for prefix in prefixes:
            for max_steps in (1, 2, 3, 5, 16):
                got, expected = _AskRecorder(backend), _AskRecorder(backend)
                text = greedy_complete(got, prefix, vocab, max_steps)
                assert text == _loop_greedy_complete(expected, prefix, vocab, max_steps)
                assert got.asks == expected.asks
                truncated += len(got.asks) < max_steps
    assert truncated > 0


class TestAskOnly:
    def test_reference_strategies_never_ask_for_the_whole_table(self):
        """beam_all, beam_search, greedy_complete and the unconstrained rank()
        ablation name a ``top_k`` on every unmasked call."""
        models = list(_models([0]))
        for seed in range(5):
            vocab, candidates, prefix, backend = random_model(seed, max_candidates=15)
            models.append((vocab, backend, [(prefix, candidates)]))
        for vocab, backend, points in models:
            for prefix, candidates in points:
                guard = _AskOnlyGuard(backend)
                _baseline_results(guard, vocab, prefix, candidates)
                beam_search(guard, prefix, vocab, width=1)
                rank(guard, prefix, candidates, vocab, DecodeConfig(constrained=False))
                assert guard.calls > 0

    def test_remote_answers_give_the_local_results(self, connect):
        """The server trims an unmasked ask to the ``query`` ids and the
        ``top_k`` best ids, as a local ask does; the three baselines read the
        same results from it."""
        for vocab, backend, points in _models(range(3)):
            server, url = serve_backend(backend)
            try:
                for prefix, candidates in points:
                    local = _baseline_results(backend, vocab, prefix, candidates)
                    assert _baseline_results(connect(url), vocab, prefix, candidates) == local
            finally:
                server.shutdown()
                server.server_close()

    def test_an_old_server_gives_the_local_results(self, connect):
        """A v1 server speaks HTTP/1.0, closing each connection, and ignores
        ``top_k``, answering with the whole table: more than was asked, from
        which the three baselines read the same results."""
        for vocab, backend, points in _models(range(2)):
            server, url = serve_backend(backend)
            asks = []

            class V1Handler(server.RequestHandlerClass):
                protocol_version = "HTTP/1.0"

                def do_POST(self):
                    payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                    asks.append(payload.pop("top_k", None))
                    body = json.dumps(payload).encode()
                    self.rfile = io.BytesIO(body)
                    self.headers.replace_header("Content-Length", str(len(body)))
                    super().do_POST()

            server.RequestHandlerClass = V1Handler
            try:
                for prefix, candidates in points:
                    local = _baseline_results(backend, vocab, prefix, candidates)
                    assert _baseline_results(connect(url), vocab, prefix, candidates) == local
                assert asks and None not in asks  # every baseline ask named a top_k
            finally:
                server.shutdown()
                server.server_close()
