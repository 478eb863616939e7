"""``rank()`` against the naive specification on the benchmark's inputs.

The benchmark vocabularies are code BPE-like: long tokens keep shorter
prefixes that are tokens too, so masks admit subtokens through the subtoken
map, which the spec does not share, and decodes split and push. The inputs
are written by ``bench/inputs.py`` for seed 1, as a benchmark run writes
them. The sample is a stride over each dataset plus the points whose default
decode splits (eval-2k 41 and 52, remote-2k 39 and 42), sized to keep the
sixteen cases under about 3 s. At 32k, where ``rank()`` builds its trie on
demand, the two smallest rank-32k points (50 and 52 candidates, the second
with a push) are checked under the default settings only.
"""

import pytest

from trierank import SeededBackend, Vocabulary, greedy_tokenize, load_dataset

from support import bench_inputs
from test_spec_rank import SETTINGS, observed, specified

SAMPLE = {"eval-2k": [14, 28, 41, 52], "remote-2k": [0, 15, 30, 39, 42, 60]}
RANK_32K_SAMPLE = [26, 63]


def load_sample(name: str, indices: list[int], tmp_path_factory):
    vocab_path, data_path = bench_inputs().write_inputs(name, 1, tmp_path_factory.mktemp(name))
    vocab = Vocabulary.load(vocab_path)
    points = load_dataset(data_path, strict=True).points
    return vocab, [points[i] for i in indices], SeededBackend(vocab.size, 1)


@pytest.fixture(scope="module", params=sorted(SAMPLE))
def workload(request, tmp_path_factory):
    return load_sample(request.param, SAMPLE[request.param], tmp_path_factory)


@pytest.mark.parametrize(
    "settings", SETTINGS, ids=lambda s: "-".join(k for k, v in s.items() if v) or "none"
)
def test_rank_equals_the_spec_on_benchmark_points(workload, settings):
    vocab, points, backend = workload
    splits = pushes = 0
    for point in points:
        prefix = greedy_tokenize(point.prefix, vocab)
        got = observed(backend, prefix, point.candidates, vocab, settings)
        assert got == specified(backend, prefix, point.candidates, vocab, settings), point.id
        splits += got["splits"]
        pushes += got["pushes"]
    # Only a constrained decode admits subtokens, and so splits and pushes.
    assert (splits > 0 and pushes > 0) == settings["constrained"]


def test_rank_equals_the_spec_on_the_smallest_32k_points(tmp_path_factory):
    vocab, points, backend = load_sample("rank-32k", RANK_32K_SAMPLE, tmp_path_factory)
    settings = dict(constrained=True, early_stop=True, include_termination_mass=True)
    pushes = 0
    for point in points:
        prefix = greedy_tokenize(point.prefix, vocab)
        got = observed(backend, prefix, point.candidates, vocab, settings)
        assert got == specified(backend, prefix, point.candidates, vocab, settings), point.id
        pushes += got["pushes"]
    assert [p.id for p in points] == ["rank-32k-1-26", "rank-32k-1-63"] and pushes == 1
