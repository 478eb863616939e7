import json
from pathlib import Path

import pytest

import trierank.evaluate
from trierank import (
    CompletionPoint,
    ModelBackend,
    Vocabulary,
    load_dataset,
    mock_backend_from_spec,
)
from trierank.errors import ContextTooLong, EmptyCandidateList, EmptyInput
from trierank.evaluate import EvalConfig, UnknownStrategy, evaluate, tree_statistics
from trierank.ranking import DecodeConfig
from trierank.remote import serve_backend

from support import count_connections

FIXTURES = "fixtures"


@pytest.fixture(scope="module")
def fixture_env():
    vocab = Vocabulary.load(f"{FIXTURES}/vocab.tsv")
    backend = mock_backend_from_spec(f"{FIXTURES}/mockspec.json", vocab)
    dataset = load_dataset(f"{FIXTURES}/smoke.jsonl")
    return vocab, backend, dataset


@pytest.fixture(scope="module")
def tight_backend(fixture_env):
    """The fixture model with a 3-token window: treeranker finishes, greedy
    over-generates past it."""
    vocab = fixture_env[0]
    spec = json.loads(Path(f"{FIXTURES}/mockspec.json").read_text(encoding="utf-8"))
    spec["max_context"] = 3
    return mock_backend_from_spec(spec, vocab)


class NoCalls(ModelBackend):
    def next_distribution(self, context, allowed=None, query=None):
        raise AssertionError("backend called")


class TestTreeranker:
    def test_hand_computed_metrics(self, fixture_env):
        vocab, backend, dataset = fixture_env
        report = evaluate("treeranker", dataset, backend, vocab)
        rep = report.strategies["treeranker"]
        # Every point resolves to the ground truth at rank 1 (traced by hand).
        assert rep.mrr == 1.0
        assert rep.recall == {1: 1.0, 5: 1.0, 20: 1.0}
        assert rep.em == 1.0
        assert rep.early_stop_rate == 1.0
        assert rep.split_rate == 0.25
        assert rep.push_rate == 0.0
        assert rep.avg_generated_tokens == 1.5
        # gt token lengths 2,1,1,1 over steps 2,2,1,1.
        assert rep.token_efficiency == pytest.approx((1.0 + 0.5 + 1.0 + 1.0) / 4)

    def test_dataset_summary(self, fixture_env):
        vocab, backend, dataset = fixture_env
        report = evaluate("treeranker", dataset, backend, vocab)
        assert report.dataset["points"] == 4
        assert report.dataset["avg_candidates"] == pytest.approx((3 + 2 + 1 + 2) / 4)
        assert report.dataset["median_candidates"] == 2
        assert report.dataset["avg_ground_truth_tokens"] == pytest.approx(5 / 4)

    def test_tree_statistics(self, fixture_env):
        vocab, backend, dataset = fixture_env
        report = evaluate("treeranker", dataset, backend, vocab)
        stats = tree_statistics(report.details["treeranker"])
        assert stats["early_completion_rate"] == 1.0
        assert stats["split_rate"] == 0.25
        assert stats["single_forward_pass_rate"] == 0.5
        assert stats["within_two_passes_rate"] == 1.0
        assert stats["avg_generated_tokens"] == 1.5


class TestBaselineStrategies:
    def test_ide_baseline_never_calls_backend(self, fixture_env):
        vocab, _, dataset = fixture_env
        report = evaluate("ide-baseline:intellij", dataset, NoCalls(), vocab)
        assert all(d.backend_calls == 0 for d in report.details["ide-baseline:intellij"])
        rep = report.strategies["ide-baseline:intellij"]
        # ranks 3, 2, 1, 1 straight from the stored ordering
        assert rep.mrr == pytest.approx((1 / 3 + 1 / 2 + 1 + 1) / 4)
        assert rep.recall[1] == 0.5
        assert rep.token_efficiency is None

    def test_greedy_exact_match(self, fixture_env):
        vocab, backend, dataset = fixture_env
        report = evaluate("greedy", dataset, backend, vocab)
        rep = report.strategies["greedy"]
        assert rep.em == 1.0
        assert rep.recall[1] == 1.0

    def test_beam_and_filter(self, fixture_env):
        vocab, backend, dataset = fixture_env
        report = evaluate(["beam5", "beam5f", "beamall"], dataset, backend, vocab)
        assert set(report.strategies) == {"beam5", "beam5f", "beamall"}
        assert report.strategies["beamall"].recall[20] == 1.0
        # Filtering never hurts the rank of an in-list ground truth.
        assert report.strategies["beam5f"].mrr >= report.strategies["beam5"].mrr

    def test_unknown_strategy_rejected(self, fixture_env):
        vocab, backend, dataset = fixture_env
        with pytest.raises(UnknownStrategy):
            evaluate("beam7", dataset, backend, vocab)
        # Every name is resolved before any strategy runs.
        with pytest.raises(UnknownStrategy):
            evaluate(["treeranker", "beam7"], dataset, NoCalls(), vocab)


class TestHarnessBehavior:
    def test_empty_dataset_rejected(self, fixture_env):
        vocab, backend, _ = fixture_env
        with pytest.raises(EmptyInput):
            evaluate("treeranker", [], backend, vocab)

    @pytest.mark.parametrize("strategy", ["treeranker", "beamall"])
    def test_empty_identifier_rejected(self, fixture_env, strategy):
        vocab, backend, _ = fixture_env
        point = CompletionPoint("e", "x.", ["", "add"], "add")
        with pytest.raises(EmptyInput, match="empty identifier"):
            evaluate(strategy, [point], backend, vocab)

    def test_empty_candidate_list_rejected(self, fixture_env):
        vocab, backend, _ = fixture_env
        with pytest.raises(EmptyCandidateList):
            evaluate(["beamall"], [CompletionPoint("e", "x.", [], "add")], backend, vocab)

    def test_report_json_deterministic(self, fixture_env):
        vocab, backend, dataset = fixture_env
        a = evaluate("treeranker", dataset, backend, vocab)
        b = evaluate("treeranker", dataset, backend, vocab)
        assert a.to_json(include_timing=False) == b.to_json(include_timing=False)

    def test_timing_fields_with_multiple_runs(self, fixture_env):
        vocab, backend, dataset = fixture_env
        report = evaluate("treeranker", dataset, backend, vocab, EvalConfig(runs=5))
        rep = report.strategies["treeranker"]
        mean, ci = rep.ranking_time
        assert mean >= 0.0 and ci >= 0.0
        total_mean, _ = rep.total_time
        assert total_mean == pytest.approx(mean + 0.075)
        assert '"ranking_time"' in report.to_json(include_timing=True)
        assert '"ranking_time"' not in report.to_json(include_timing=False)

    def test_unconstrained_config_plumbed(self, fixture_env):
        vocab, backend, dataset = fixture_env
        cfg = EvalConfig(decode=DecodeConfig(constrained=False))
        report = evaluate("treeranker", dataset, backend, vocab, cfg)
        assert report.config["constrained"] is False
        assert report.strategies["treeranker"].mrr == 1.0

    def test_jobs_parallel_matches_serial(self, fixture_env):
        vocab, backend, dataset = fixture_env
        serial = evaluate("treeranker", dataset, backend, vocab)
        parallel = evaluate("treeranker", dataset, backend, vocab, EvalConfig(jobs=4))
        assert serial.to_json(include_timing=False) == parallel.to_json(include_timing=False)

    def test_jobs_parallel_over_the_wire_matches_local(self, fixture_env, connect):
        """Threads share one remote backend and never a socket."""
        vocab, backend, dataset = fixture_env
        strategies = ["treeranker", "beamall", "greedy", "beam5"]
        server, url = serve_backend(backend)
        try:
            local = evaluate(strategies, dataset, backend, vocab)
            remote = evaluate(strategies, dataset, connect(url), vocab, EvalConfig(jobs=2))
            assert local.to_json(include_timing=False) == remote.to_json(include_timing=False)
        finally:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize(
        "jobs, runs, most", [(1, 1, 1), (1, 3, 1), (2, 1, 2)], ids=["serial", "runs-3", "jobs-2"]
    )
    def test_an_eval_opens_at_most_one_connection_per_job(
        self, fixture_env, connect, jobs, runs, most
    ):
        vocab, backend, dataset = fixture_env
        strategies = ["treeranker", "beamall", "greedy", "beam5", "beam5f"]
        server, url = serve_backend(backend)
        opened = count_connections(server)
        try:
            config = EvalConfig(runs=runs, jobs=jobs)
            report = evaluate(strategies, dataset, connect(url), vocab, config)
            assert list(report.strategies) == strategies
            assert 1 <= len(opened) <= most
        finally:
            server.shutdown()
            server.server_close()

    def test_table_rendering(self, fixture_env):
        vocab, backend, dataset = fixture_env
        report = evaluate(["treeranker", "greedy"], dataset, backend, vocab)
        table = report.table()
        assert "treeranker" in table and "greedy" in table
        assert "MRR" in table and "R@20" in table

    def test_aborted_strategy_becomes_warning(self, fixture_env, tight_backend):
        vocab, _, dataset = fixture_env
        report = evaluate(["treeranker", "greedy"], dataset, tight_backend, vocab)
        assert set(report.strategies) == set(report.details) == {"treeranker"}
        assert report.config["strategies"] == ["treeranker"]
        assert report.warnings == ["strategy greedy aborted: context of 4 tokens exceeds 3"]

    def test_all_aborted_raises(self, fixture_env, tight_backend):
        vocab, _, dataset = fixture_env
        with pytest.raises(ContextTooLong):
            evaluate(["greedy"], dataset, tight_backend, vocab)

    def test_adapters_resolved_at_call_time(self, fixture_env, monkeypatch):
        vocab, backend, dataset = fixture_env
        resolve = trierank.evaluate.strategy_adapter
        looked_up = []

        def spy(name):
            looked_up.append(name)
            return resolve(name)

        monkeypatch.setattr(trierank.evaluate, "strategy_adapter", spy)
        evaluate(["treeranker", "greedy"], dataset, backend, vocab)
        assert looked_up == ["treeranker", "greedy"]

    @pytest.mark.parametrize(
        "bad", [{"alpha": -1.0}, {"runs": 0}, {"jobs": 0}, {"first_token_ms": -5.0}]
    )
    def test_config_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            EvalConfig(**bad)

    def test_runs_default_to_one(self):
        assert EvalConfig().runs == 1
