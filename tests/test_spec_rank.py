"""``rank()`` against the naive specification in ``spec_rank.py``.

Every output field is compared with ``==``, floats included: the spec
renormalizes with ``math.fsum`` over the admissible set, as the backend does.
"""

import itertools
import random
from dataclasses import asdict

import pytest

from trierank import SeededBackend, Vocabulary, greedy_tokenize, rank
from trierank.backend import ModelBackend
from trierank.ranking import DecodeConfig

from spec_rank import spec_rank
from support import ScriptedBackend, random_model

SETTINGS = [
    dict(constrained=c, early_stop=e, include_termination_mass=m)
    for c, e, m in itertools.product((True, False), repeat=3)
]


class CoarseBackend(ModelBackend):
    """A seeded table cut down to a few integer levels, half of them 0.0: ties
    at the argmax and masks without mass are common. ``dense`` picks the
    table's shape; the ``favored`` ids weigh eight times as much."""

    def __init__(self, vocab_size: int, seed: int, dense: bool, favored=frozenset()):
        self.inner = SeededBackend(vocab_size, seed)
        self.dense = dense
        self.favored = favored

    def raw_distribution(self, context):
        table = self.inner.raw_distribution(context)
        levels = tuple(
            float(int(p * len(table) * 2) * (8 if t in self.favored else 1))
            for t, p in enumerate(table)
        )
        return levels if self.dense else dict(enumerate(levels))


def split_fixture(seed: int):
    """Candidates whose first main tokens share a strict prefix the model
    favors, so the root step splits; ties and zero weights below it."""
    rng = random.Random(900_000 + seed)
    singles = list("abcdef")
    shared = "".join(rng.sample(singles, k=2))
    mains = [shared + c for c in rng.sample(singles, k=rng.randint(2, 4))]
    candidates = [
        main + "".join(rng.choice(singles) for _ in range(rng.randint(0, 2))) for main in mains
    ]
    vocab = Vocabulary.from_texts(sorted(set(singles) | {".", "("} | {shared} | set(mains)))
    prefix = greedy_tokenize("a.", vocab)
    root_table = {vocab.id(shared): 0.9, **{vocab.id(main): 0.01 for main in mains}}
    backend = ScriptedBackend(
        {tuple(prefix.ids): root_table}, CoarseBackend(vocab.size, seed, dense=seed % 2 == 0)
    )
    return vocab, candidates, prefix, backend


def with_prefixes(candidates: list[str], vocab: Vocabulary) -> list[str]:
    """``candidates`` followed by every shorter identifier their token paths spell."""
    out = dict.fromkeys(candidates)
    for c in candidates:
        texts = greedy_tokenize(c, vocab).texts
        out.update(dict.fromkeys("".join(texts[:k]) for k in range(1, len(texts))))
    return list(out)


def fixtures():
    for seed in range(60):
        yield random_model(seed, max_candidates=20)
    for seed in range(40):
        vocab, candidates, prefix, _ = random_model(1000 + seed, max_candidates=12)
        # Half the lists hold their own token-path prefixes, as terminal nodes
        # with children, and favor identifier-ending tokens: decodes stop there.
        stops = frozenset()
        if seed % 2:
            candidates = with_prefixes(candidates, vocab)
            stops = vocab.termination_ids()
        yield vocab, candidates, prefix, CoarseBackend(vocab.size, seed, seed % 4 < 2, stops)
    for seed in range(30):
        yield split_fixture(seed)


def observed(backend, prefix, candidates, vocab, settings) -> dict:
    """Every field of the decode's statistics, and the ranking."""
    ranked, stats = rank(backend, prefix, candidates, vocab, DecodeConfig(**settings))
    ranking = [(r.candidate, r.identifier, r.scored_len, r.last_prob, r.rank) for r in ranked]
    return {"ranking": ranking, **asdict(stats)}


def specified(backend, prefix, candidates, vocab, settings) -> dict:
    return asdict(spec_rank(backend, prefix.ids, candidates, list(vocab.texts), **settings))


@pytest.mark.parametrize(
    "settings", SETTINGS, ids=lambda s: "-".join(k for k, v in s.items() if v) or "none"
)
def test_rank_equals_the_spec(settings):
    splits = pushes = stops = 0
    for vocab, candidates, prefix, backend in fixtures():
        got = observed(backend, prefix, candidates, vocab, settings)
        assert got == specified(backend, prefix, candidates, vocab, settings), (candidates, settings)
        splits += got["splits"]
        pushes += got["pushes"]
        picks = got["selected_tokens"]
        stops += bool(picks) and picks[-1] in vocab.termination_ids() and not got["off_tree_exit"]
    # The fixtures reach every rule the spec spells out.
    assert splits > 0 and pushes > 0
    assert stops > 0 or not settings["include_termination_mass"]
