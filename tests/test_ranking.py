import random

import pytest

from trierank import (
    CountingBackend,
    Distribution,
    MockBackend,
    SeededBackend,
    Vocabulary,
    build_tree,
    full_subtoken_map,
    greedy_tokenize,
    mock_backend_from_spec,
    rank,
    ranking_record,
)
from trierank.errors import EmptyCandidateList, EmptyInput, EmptyMask, MissingChildProbability
from trierank.ranking import DecodeConfig, build_allowed_set, rank_from_traces, record_step
from trierank.tree import CompletionTree, TreeNode

from support import branch_following_backend, random_model


def identifiers(ranked):
    return [rc.identifier for rc in ranked]


class TestWorkedExample:
    """The add/addAll/clear decode, traced by hand."""

    def test_constrained_traces_and_ranking(
        self, worked_backend, worked_prefix, worked_vocab, worked_candidates
    ):
        ranked, stats = rank(worked_backend, worked_prefix, worked_candidates, worked_vocab)
        assert stats.traces == [(0.6,), (0.6, 0.5), (0.3,)]
        assert identifiers(ranked) == ["addAll", "add", "clear"]
        assert [rc.rank for rc in ranked] == [1, 2, 3]
        assert ranked[0].scored_len == 2 and ranked[0].last_prob == 0.5
        assert stats.steps_taken == 2
        assert stats.early_stopped is True
        assert stats.identified == 1

    def test_unconstrained_traces_match(
        self, worked_backend, worked_prefix, worked_vocab, worked_candidates
    ):
        config = DecodeConfig(constrained=False)
        ranked, stats = rank(
            worked_backend, worked_prefix, worked_candidates, worked_vocab, config
        )
        assert stats.traces == [(0.6,), (0.6, 0.5), (0.3,)]
        assert identifiers(ranked) == ["addAll", "add", "clear"]
        assert stats.off_tree_exit is False

    def test_single_candidate_early_stop(self, worked_backend, worked_prefix, worked_vocab):
        ranked, stats = rank(worked_backend, worked_prefix, ["add"], worked_vocab)
        assert identifiers(ranked) == ["add"]
        assert stats.steps_taken == 1
        assert stats.early_stopped is True

    def test_unconstrained_off_tree_exit(self, worked_vocab, worked_prefix, worked_candidates):
        t = worked_vocab.id
        backend = MockBackend(
            default={t("ret"): 1.0},
            contexts={(t("."),): {t("ret"): 0.5, t("add"): 0.3, t("clear"): 0.2}},
        )
        config = DecodeConfig(constrained=False)
        ranked, stats = rank(backend, worked_prefix, worked_candidates, worked_vocab, config)
        assert stats.off_tree_exit is True
        assert stats.steps_taken == 1
        assert stats.traces == [(0.3,), (0.3,), (0.2,)]
        # add and addAll tie exactly; original candidate order breaks it.
        assert identifiers(ranked) == ["add", "addAll", "clear"]


class TestSubtokenEvents:
    def test_main_token_push(self):
        vocab = Vocabulary.from_texts(["x", ".", "isEmpty", "is", "Empty"])
        backend = MockBackend(
            default={vocab.id("x"): 1.0},
            contexts={(vocab.id("."),): {vocab.id("is"): 0.9, vocab.id("isEmpty"): 0.1}},
        )
        prefix = greedy_tokenize("x.", vocab)
        ranked, stats = rank(backend, prefix, ["isEmpty"], vocab)
        assert stats.pushes == 1
        assert stats.splits == 0
        assert stats.steps_taken == 1
        assert stats.early_stopped is True
        # The push records the main token's own probability, not the subtoken's.
        assert stats.traces == [(0.1,)]
        assert stats.committed_tokens == [vocab.id("isEmpty")]
        assert stats.selected_tokens == [vocab.id("is")]

    def test_shared_prefix_split(self):
        vocab = Vocabulary.from_texts(["x", ".", "isEmpty", "isDone", "is", "Empty", "Done"])
        t = vocab.id
        backend = MockBackend(
            default={t("x"): 1.0},
            contexts={
                (t("."),): {t("is"): 0.8, t("isEmpty"): 0.15, t("isDone"): 0.05},
                (t("is"),): {t("Empty"): 0.7, t("Done"): 0.3},
            },
        )
        prefix = greedy_tokenize("x.", vocab)
        ranked, stats = rank(backend, prefix, ["isEmpty", "isDone"], vocab)
        assert stats.splits == 1
        assert stats.pushes == 0
        assert stats.steps_taken == 2
        # Step 1 overrides both traces with the selected subtoken's probability.
        assert stats.traces == [(0.8, 0.7), (0.8, 0.3)]
        assert identifiers(ranked) == ["isEmpty", "isDone"]
        assert stats.committed_tokens == [t("is"), t("Empty")]

    def test_termination_event_at_terminal_node(self, worked_vocab, worked_prefix):
        t = worked_vocab.id
        backend = MockBackend(
            default={t("ret"): 1.0},
            contexts={
                (t("."),): {t("add"): 0.9, t("clear"): 0.1},
                (t("add"),): {t("("): 0.8, t("All"): 0.2},
            },
        )
        ranked, stats = rank(backend, worked_prefix, ["add", "addAll", "clear"], worked_vocab)
        assert stats.steps_taken == 2
        assert stats.identified == 0
        assert stats.early_stopped is False
        # addAll still got its second-step probability before the stop.
        assert identifiers(ranked) == ["addAll", "add", "clear"]

    def test_termination_mass_off_forces_descent(self, worked_vocab, worked_prefix):
        t = worked_vocab.id
        backend = MockBackend(
            default={t("ret"): 1.0},
            contexts={
                (t("."),): {t("add"): 0.9, t("clear"): 0.1},
                (t("add"),): {t("("): 0.8, t("All"): 0.2},
            },
        )
        config = DecodeConfig(include_termination_mass=False)
        ranked, stats = rank(backend, worked_prefix, ["add", "addAll", "clear"], worked_vocab, config)
        # "(" is not admissible, so the decode descends to addAll's leaf.
        assert stats.identified == 1
        assert identifiers(ranked)[0] == "addAll"


class TestBuildAllowedSet:
    def config(self, **kw):
        return DecodeConfig(**kw)

    def test_subtoken_admitted(self):
        vocab = Vocabulary.from_texts(["is", "isEmpty"])
        tree = build_tree(["isEmpty"], vocab)
        mask = build_allowed_set(tree.root, full_subtoken_map(vocab), vocab, self.config())
        assert mask.allowed == {vocab.id("isEmpty"), vocab.id("is")}

    def test_plain_children_only(self):
        vocab = Vocabulary.from_texts(["add", "clear"])
        tree = build_tree(["add", "clear"], vocab)
        mask = build_allowed_set(tree.root, full_subtoken_map(vocab), vocab, self.config())
        assert mask.allowed == {vocab.id("add"), vocab.id("clear")}

    def test_termination_set_at_terminal(self):
        vocab = Vocabulary.from_texts(["add", "All", "(", ".", "\n"])
        tree = build_tree(["add", "addAll"], vocab)
        add_node = tree.root.children[vocab.id("add")]
        mask = build_allowed_set(add_node, full_subtoken_map(vocab), vocab, self.config())
        assert mask.allowed == {vocab.id("All"), vocab.id("("), vocab.id("."), vocab.id("\n")}

    def test_termination_is_the_shared_class(self):
        vocab = Vocabulary.from_texts(["add", "All", "(", ".", "\n"])
        tree = build_tree(["add", "addAll"], vocab)
        add_node = tree.root.children[vocab.id("add")]
        mask = build_allowed_set(add_node, full_subtoken_map(vocab), vocab, self.config())
        assert mask.ids == {vocab.id("All")}
        assert mask.termination is vocab.termination_ids()

    def test_constrained_rank_never_expands_the_class(self):
        """A terminal-node step costs O(children): no constrained step reads
        ``LogitMask.allowed``, the union with the whole termination class, and
        an unconstrained step queries only the node's explicit ids."""
        vocab = Vocabulary.load("fixtures/vocab.tsv")
        candidates = ["add", "addAll", "clear"]
        tree = build_tree(candidates, vocab)
        terminal = tree.root.children[vocab.id("add")]
        assert terminal.terminal_for is not None and terminal.children
        explicit = [
            build_allowed_set(node, full_subtoken_map(vocab), vocab, self.config()).ids
            for node in (tree.root, terminal)
        ]
        for constrained in (True, False):
            asks = []

            class Recording(CountingBackend):
                def next_distribution(self, context, allowed=None, query=None, top_k=None):
                    asks.append((allowed, query))
                    return super().next_distribution(context, allowed, query, top_k)

            backend = Recording(mock_backend_from_spec("fixtures/mockspec.json", vocab))
            config = self.config(constrained=constrained)
            rank(backend, greedy_tokenize("x.", vocab), candidates, vocab, config)
            if constrained:
                masks = [mask for mask, _ in asks]
                assert any(mask.termination for mask in masks)
                assert all("allowed" not in vars(mask) for mask in masks)
            else:
                # The root, then the terminal node "add" (argmax "All", a leaf).
                assert [mask for mask, _ in asks] == [None, None]
                assert [frozenset(query) for _, query in asks] == explicit

    def test_childless_terminal_with_termination_off(self):
        vocab = Vocabulary.from_texts(["add"])
        node = TreeNode(terminal_for=0)
        with pytest.raises(EmptyMask):
            build_allowed_set(
                node, full_subtoken_map(vocab), vocab, self.config(include_termination_mass=False)
            )


class TestRecordStep:
    def test_root_recording(self, worked_vocab, worked_candidates):
        t = worked_vocab.id
        tree = build_tree(worked_candidates, worked_vocab)
        traces = [[], [], []]
        record_step(traces, tree.root, Distribution({t("add"): 0.6, t("clear"): 0.3}, t("add")))
        assert traces == [[0.6], [0.6], [0.3]]
        add_node = tree.root.children[t("add")]
        record_step(traces, add_node, Distribution({t("All"): 0.5}, t("All")))
        assert traces == [[0.6], [0.6, 0.5], [0.3]]

    def test_leaf_is_noop(self, worked_vocab, worked_candidates):
        tree = build_tree(worked_candidates, worked_vocab)
        leaf = tree.root.children[worked_vocab.id("clear")]
        traces = [[], [], []]
        record_step(traces, leaf, Distribution({}, 0))
        assert traces == [[], [], []]

    def test_missing_child_probability(self, worked_vocab, worked_candidates):
        tree = build_tree(worked_candidates, worked_vocab)
        with pytest.raises(MissingChildProbability):
            record_step([[], [], []], tree.root, Distribution({worked_vocab.id("add"): 1.0}, 0))


def ranked_order(*traces):
    """Candidate indices in ranked order for the given per-candidate traces."""
    scores = [list(trace) for trace in traces]
    return [rc.candidate for rc in rank_from_traces(scores, [f"c{i}" for i in range(len(traces))])]


class TestCompare:
    def test_length_dominates(self):
        assert ranked_order((0.99,), (0.5, 0.1)) == [1, 0]

    def test_probability_breaks_equal_length(self):
        assert ranked_order((0.3,), (0.6,)) == [1, 0]
        assert ranked_order((0.6,), (0.3,)) == [0, 1]

    def test_full_equality(self):
        assert ranked_order((0.5,), (0.5,), (0.5,)) == [0, 1, 2]

    def test_matches_tuple_sort(self):
        rng = random.Random(3)
        keys = [(rng.randint(1, 3), rng.choice([0.1, 0.5, 0.9])) for _ in range(50)]
        traces = [(0.7,) * (length - 1) + (last,) for length, last in keys]
        by_tuple = sorted(range(50), key=lambda i: keys[i], reverse=True)
        assert ranked_order(*traces) == by_tuple


class TestDecodeProperties:
    def test_root_coverage_and_bounds(self):
        for seed in range(25):
            vocab, candidates, prefix, backend = random_model(seed, max_candidates=12)
            ranked, stats = rank(backend, prefix, candidates, vocab)
            assert all(len(t) >= 1 for t in stats.traces)
            assert stats.steps_taken <= DecodeConfig().max_steps
            assert sorted(identifiers(ranked)) == sorted(candidates)
            assert sorted(rc.rank for rc in ranked) == list(range(1, len(candidates) + 1))

    def test_early_stop_invariance_toy(self):
        for seed in range(25):
            vocab, candidates, prefix, backend = random_model(seed, max_candidates=12)
            for constrained in (True, False):
                on, _ = rank(
                    backend, prefix, candidates, vocab,
                    DecodeConfig(constrained=constrained, early_stop=True),
                )
                off, _ = rank(
                    backend, prefix, candidates, vocab,
                    DecodeConfig(constrained=constrained, early_stop=False),
                )
                assert identifiers(on) == identifiers(off)

    def test_mask_validity_sampled(self):
        class Recording(CountingBackend):
            def __init__(self, inner):
                super().__init__(inner)
                self.allowed_log = []

            def next_distribution(self, context, allowed=None, query=None):
                self.allowed_log.append(allowed)
                return super().next_distribution(context, allowed, query)

        for seed in range(20):
            vocab, candidates, prefix, backend = random_model(seed, max_candidates=10)
            recorder = Recording(backend)
            _, stats = rank(recorder, prefix, candidates, vocab)
            assert len(stats.selected_tokens) == stats.steps_taken
            for allowed, selected in zip(recorder.allowed_log, stats.selected_tokens):
                assert allowed is not None and selected in allowed

    def test_determinism(self):
        vocab, candidates, prefix, backend = random_model(99)
        a = rank(backend, prefix, candidates, vocab)
        b = rank(SeededBackend(vocab.size, 99), prefix, candidates, vocab)
        assert identifiers(a[0]) == identifiers(b[0])
        assert a[1].traces == b[1].traces

    def test_trace_growth_one_per_step_for_current_members_only(self, monkeypatch):
        import trierank.ranking as ranking_module

        real = ranking_module.record_step

        def checked(traces, node, dist):
            before = [len(t) for t in traces]
            result = real(traces, node, dist)
            under_children = set().union(*(c.members for c in node.children.values()), set())
            for i, prior in enumerate(before):
                grew = len(traces[i]) - prior
                assert grew in (0, 1)
                assert grew == (1 if i in under_children else 0)
            return result

        monkeypatch.setattr(ranking_module, "record_step", checked)
        for seed in range(20):
            vocab, candidates, prefix, backend = random_model(seed, max_candidates=12)
            rank(backend, prefix, candidates, vocab)

    def test_scored_length_bounded_by_token_sequence(self):
        # Without splits, a candidate's trace cannot outgrow its tokenization.
        for seed in range(20):
            rng = random.Random(4000 + seed)
            vocab, candidates, prefix, _ = random_model(seed, max_candidates=10)
            backend, _ = branch_following_backend(rng, vocab, candidates, prefix.ids)
            _, stats = rank(backend, prefix, candidates, vocab)
            assert stats.splits == 0
            for cand, trace in zip(candidates, stats.traces):
                assert 1 <= len(trace) <= len(greedy_tokenize(cand, vocab))


class TestValidation:
    def test_empty_candidates(self, worked_backend, worked_prefix, worked_vocab):
        with pytest.raises(EmptyCandidateList):
            rank(worked_backend, worked_prefix, [], worked_vocab)

    def test_empty_identifier(self, worked_backend, worked_prefix, worked_vocab):
        with pytest.raises(EmptyInput, match="candidate 0"):
            rank(worked_backend, worked_prefix, ["", "add"], worked_vocab)

    def test_empty_prefix(self, worked_backend, worked_vocab):
        from trierank import TokenSeq

        with pytest.raises(EmptyInput):
            rank(worked_backend, TokenSeq((), ()), ["add"], worked_vocab)

    def test_max_steps_validated(self):
        with pytest.raises(ValueError):
            DecodeConfig(max_steps=0)


def test_split_and_push_counters_match_instrumented_recount(monkeypatch):
    counts = {"splits": 0, "pushes": 0}
    real_split = CompletionTree.split_on_subtoken
    real_push = CompletionTree.main_token_push

    def counting_split(self, node, subtoken):
        before = self.spelled_identifiers()
        result = real_split(self, node, subtoken)
        counts["splits"] += 1
        assert self.spelled_identifiers() == before
        return result

    def counting_push(self, node, subtoken, submap):
        result = real_push(self, node, subtoken, submap)
        if result is not None:
            counts["pushes"] += 1
        return result

    monkeypatch.setattr(CompletionTree, "split_on_subtoken", counting_split)
    monkeypatch.setattr(CompletionTree, "main_token_push", counting_push)

    total = {"splits": 0, "pushes": 0}
    for seed in range(30):
        vocab, candidates, prefix, backend = random_model(seed, max_candidates=15)
        counts["splits"] = counts["pushes"] = 0
        _, stats = rank(backend, prefix, candidates, vocab)
        assert stats.splits == counts["splits"]
        assert stats.pushes == counts["pushes"]
        total["splits"] += counts["splits"]
        total["pushes"] += counts["pushes"]


def test_ranking_record_shape(worked_backend, worked_prefix, worked_vocab, worked_candidates):
    ranked, stats = rank(worked_backend, worked_prefix, worked_candidates, worked_vocab)
    record = ranking_record("treeranker", worked_candidates, identifiers(ranked), stats)
    assert record["strategy"] == "treeranker"
    assert [r["identifier"] for r in record["ranking"]] == ["addAll", "add", "clear"]
    assert [(r["scored_len"], r["last_prob"]) for r in record["ranking"]] == [
        rc.key for rc in ranked
    ]
    assert set(record["stats"]) == {"steps", "early_stopped", "splits", "pushes", "off_tree_exit"}
    assert record["stats"]["steps"] == 2
