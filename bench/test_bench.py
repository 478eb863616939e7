"""Tests of the benchmark itself: ``python3 -m pytest bench -q``."""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

import trierank as tr

import inputs
import oracle
import workloads


@pytest.mark.parametrize("workload", sorted(inputs.SPECS))
def test_generator_is_byte_identical_per_seed(workload):
    first = inputs.generate(workload, 7)
    assert first == inputs.generate(workload, 7)
    assert first != inputs.generate(workload, 8)


def test_generated_inputs_load_and_tokenize(tmp_path):
    vocab_path, data_path = inputs.write_inputs("eval-2k", 3, tmp_path)
    vocab = tr.Vocabulary.load(vocab_path)
    points = tr.load_dataset(data_path, strict=True).points
    assert vocab.size == inputs.SPECS["eval-2k"].vocab_size
    assert len(points) == inputs.SPECS["eval-2k"].points
    for p in points:
        assert tr.greedy_tokenize(p.prefix, vocab).text == p.prefix


@pytest.fixture
def worked():
    """The add/addAll/clear example: after ``.`` the model gives add 0.6,
    clear 0.3, cl 0.1; after ``add`` it gives All 0.5, ( 0.4, Al 0.1."""
    vocab = tr.Vocabulary.from_texts(["x", ".", "add", "All", "clear", "cl", "Al", "(", "ret"])
    t = vocab.id
    backend = tr.MockBackend(
        default={t("ret"): 1.0},
        contexts={
            (t("."),): {t("add"): 0.6, t("clear"): 0.3, t("cl"): 0.1},
            (t("add"),): {t("All"): 0.5, t("("): 0.4, t("Al"): 0.1},
        },
    )
    return vocab, backend, tr.greedy_tokenize("x.", vocab)


def test_path_walk_oracle_matches_hand_computation(worked):
    vocab, backend, prefix = worked
    got = oracle.path_walk_ranking(
        backend.raw_distribution, prefix.ids, ["add", "addAll", "clear"], vocab.ids
    )
    # Mean log-probabilities: add log .6 = -0.511, addAll (log .6 + log .5) / 2
    # = -0.602, clear log .3 = -1.204.
    assert [ident for ident, _ in got] == ["add", "addAll", "clear"]
    sums = dict(got)
    assert math.isclose(sums["add"], math.log(0.6))
    assert math.isclose(sums["addAll"], math.log(0.6) + math.log(0.5))
    assert math.isclose(sums["clear"], math.log(0.3))


def test_beamall_check_accepts_beam_all_and_rejects_a_swap(worked):
    vocab, backend, prefix = worked
    point = tr.CompletionPoint("p", "x.", ["add", "addAll", "clear"], "add")
    scores = tr.beam_all(backend, tr.build_tree(point.candidates, vocab), prefix)
    args = (backend.raw_distribution, vocab, prefix.ids, 1.0)
    assert workloads.beamall_problems(point, scores, *args) == []
    swapped = [scores[1], scores[0], scores[2]]
    assert workloads.beamall_problems(point, swapped, *args)


def test_treeranker_check_accepts_rank_and_rejects_corruption(worked):
    vocab, backend, prefix = worked
    point = tr.CompletionPoint("p", "x.", ["add", "addAll", "clear"], "add")
    answer = workloads.Treeranked.from_ranked(*tr.rank(backend, prefix, point.candidates, vocab))
    assert workloads.treeranker_problems(point, answer, vocab, 16) == []

    swapped = workloads.Treeranked(
        [answer.ranking[1], answer.ranking[0], answer.ranking[2]],
        [answer.keys[1], answer.keys[0], answer.keys[2]],
        answer.steps,
        answer.splits,
    )
    assert any("out of order" in p for p in workloads.treeranker_problems(point, swapped, vocab, 16))
    dropped = workloads.Treeranked(answer.ranking[:2], answer.keys[:2], answer.steps, answer.splits)
    assert any("permutation" in p for p in workloads.treeranker_problems(point, dropped, vocab, 16))
    too_long = workloads.Treeranked(answer.ranking, answer.keys, 17, answer.splits)
    assert any("max_steps" in p for p in workloads.treeranker_problems(point, too_long, vocab, 16))


def test_metric_check_rejects_a_wrong_mrr():
    ranks = [1, 2, None, 4]
    recall = {1: 0.25, 5: 0.75, 20: 0.75}
    assert oracle.metric_problems("s", ranks, tr.mrr(ranks), recall) == []
    assert oracle.metric_problems("s", ranks, tr.mrr(ranks) + 0.01, recall)
    assert oracle.metric_problems("s", ranks, tr.mrr(ranks), {1: 0.5})
