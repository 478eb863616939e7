import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trierank import (
    CountingBackend,
    LogitMask,
    MockBackend,
    SeededBackend,
    Vocabulary,
    mock_backend_from_spec,
    next_distribution,
    random_mock_spec,
)
from trierank.errors import ContextTooLong, MalformedSpec

ADD, CLEAR, RET = 0, 1, 2
TABLE = {ADD: 0.6, CLEAR: 0.3, RET: 0.1}


@pytest.fixture
def table_backend():
    return MockBackend(default={RET: 1.0}, contexts={(9,): TABLE})


def test_masked_renormalization(table_backend):
    dist = next_distribution(table_backend, [9], LogitMask(frozenset({ADD, CLEAR})))
    assert dist.probs[ADD] == pytest.approx(0.6 / 0.9, abs=1e-15)
    assert dist.probs[CLEAR] == pytest.approx(0.3 / 0.9, abs=1e-15)
    assert dist.argmax == ADD


def test_unmasked_table_verbatim(table_backend):
    dist = next_distribution(table_backend, [9])
    assert dist.probs == TABLE
    assert dist.argmax == ADD


def test_single_element_mask(table_backend):
    dist = next_distribution(table_backend, [9], LogitMask(frozenset({CLEAR})))
    assert dist.probs == {CLEAR: 1.0}
    assert dist.argmax == CLEAR


def test_query_reports_missing_tokens_as_zero(table_backend):
    dist = next_distribution(table_backend, [9], query={ADD, 7})
    assert dist.probs[7] == 0.0
    assert dist.argmax == ADD


def test_default_table_for_unseen_context():
    backend = MockBackend(default={i: 0.1 for i in range(10)})
    dist = next_distribution(backend, [1, 2, 3])
    assert all(p == 0.1 for p in dist.probs.values())
    assert len(dist.probs) == 10


def test_longest_suffix_wins():
    backend = MockBackend(
        default={RET: 1.0},
        contexts={(2,): {ADD: 1.0}, (1, 2): {CLEAR: 1.0}},
    )
    assert next_distribution(backend, [0, 1, 2]).argmax == CLEAR
    assert next_distribution(backend, [0, 0, 2]).argmax == ADD
    assert next_distribution(backend, [0, 0, 0]).argmax == RET


def test_masked_zero_mass_falls_back_to_uniform(table_backend):
    dist = next_distribution(table_backend, [9], LogitMask(frozenset({7, 8})))
    assert dist.probs == {7: 0.5, 8: 0.5}
    assert dist.argmax == 7


def test_argmax_tie_breaks_to_lowest_id():
    backend = MockBackend(default={3: 0.5, 1: 0.5})
    assert next_distribution(backend, [0]).argmax == 1


class TestSpecParsing:
    def test_text_keyed_spec(self):
        vocab = Vocabulary.from_texts(["x", ".", "add", "clear"])
        backend = mock_backend_from_spec(
            {
                "default": {"x": 1.0},
                "contexts": [{"suffix": ["."], "probs": {"add": 0.7, "clear": 0.3}}],
            },
            vocab,
        )
        dist = next_distribution(backend, [vocab.id(".")])
        assert dist.probs == {vocab.id("add"): 0.7, vocab.id("clear"): 0.3}

    def test_missing_default_rejected(self):
        with pytest.raises(MalformedSpec):
            mock_backend_from_spec({"contexts": []})

    def test_negative_probability_rejected(self):
        with pytest.raises(MalformedSpec):
            MockBackend(default={0: -0.1})

    def test_unknown_token_text_rejected(self):
        vocab = Vocabulary.from_texts(["a"])
        with pytest.raises(MalformedSpec):
            mock_backend_from_spec({"default": {"zzz": 1.0}}, vocab)

    def test_overlong_suffix_rejected(self):
        with pytest.raises(MalformedSpec):
            MockBackend(default={0: 1.0}, contexts={(1, 2, 3, 4, 5): {0: 1.0}})

    def test_spec_file_loading(self, tmp_path):
        vocab = Vocabulary.from_texts(["a", "b"])
        path = tmp_path / "spec.json"
        path.write_text('{"default": {"a": 0.9, "b": 0.1}}', encoding="utf-8")
        backend = mock_backend_from_spec(str(path), vocab)
        assert next_distribution(backend, [0]).argmax == vocab.id("a")


def test_random_spec_generator_is_deterministic():
    vocab = Vocabulary.from_texts(list("abcdef"))
    assert random_mock_spec(vocab, seed=7) == random_mock_spec(vocab, seed=7)
    assert random_mock_spec(vocab, seed=7) != random_mock_spec(vocab, seed=8)


def test_seeded_backend_bitwise_determinism():
    one, two = SeededBackend(16, seed=42), SeededBackend(16, seed=42)
    other = SeededBackend(16, seed=43)
    contexts = [[0], [1, 2], [3, 4, 5], [0, 0, 0, 0]]
    for ctx in contexts:
        a = next_distribution(one, ctx)
        b = next_distribution(two, ctx)
        assert a.probs == b.probs and a.argmax == b.argmax
    assert any(
        next_distribution(one, c).probs != next_distribution(other, c).probs
        for c in contexts
    )


@given(
    seed=st.integers(0, 10_000),
    allowed=st.sets(st.integers(0, 15), min_size=1, max_size=16),
    ctx=st.lists(st.integers(0, 15), min_size=1, max_size=5),
)
@settings(max_examples=150)
def test_masked_distribution_sums_to_one(seed, allowed, ctx):
    backend = SeededBackend(16, seed)
    dist = next_distribution(backend, ctx, LogitMask(frozenset(allowed)))
    assert sum(dist.probs.values()) == pytest.approx(1.0, abs=1e-9)
    assert set(dist.probs) == set(allowed)
    assert dist.argmax in allowed


def test_context_window_enforced():
    backend = MockBackend(default={0: 1.0}, max_context=2)
    with pytest.raises(ContextTooLong):
        next_distribution(backend, [1, 2, 3])


def test_empty_context_rejected():
    with pytest.raises(ValueError):
        next_distribution(MockBackend(default={0: 1.0}), [])


def test_empty_mask_rejected():
    with pytest.raises(ValueError):
        LogitMask(frozenset())


def test_counting_backend():
    backend = CountingBackend(MockBackend(default={0: 1.0}))
    next_distribution(backend, [1])
    next_distribution(backend, [1, 2])
    assert backend.calls == 2
    assert backend.first_response is not None
    session = backend.session()
    assert session.calls == 0 and session.first_response is None
