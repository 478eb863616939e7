import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trierank import (
    CountingBackend,
    LogitMask,
    MockBackend,
    ModelBackend,
    SeededBackend,
    Vocabulary,
    mock_backend_from_spec,
    next_distribution,
)
from trierank.backend import _argmax
from trierank.errors import ContextTooLong, EmptyInput, EmptyMask, MalformedSpec

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

    @pytest.mark.parametrize(
        "build",
        [
            # ``range(1, 2)`` is a key of its own that names the suffix ``(1,)`` again.
            lambda: MockBackend(default={0: 1.0}, contexts={(1,): {0: 1.0}, range(1, 2): {0: 1.0}}),
            lambda: MockBackend(default={}),
            lambda: mock_backend_from_spec(
                {"default": {0: 1.0}, "contexts": [{"suffix": [1], "probs": {0: 1.0}}] * 2}
            ),
            lambda: mock_backend_from_spec([{"default": {0: 1.0}}]),
            lambda: mock_backend_from_spec({"default": {"a": 1.0}}),
            lambda: mock_backend_from_spec({"default": [1.0]}),
        ],
        ids=[
            "duplicate-suffix", "empty-table", "duplicate-spec-suffix", "spec-not-a-mapping",
            "token-text-without-vocabulary", "table-not-a-mapping",
        ],
    )
    def test_malformed_spec_rejected(self, build):
        with pytest.raises(MalformedSpec):
            build()

    def test_integer_token_ids_need_no_vocabulary(self):
        backend = mock_backend_from_spec({"default": {1: 0.25, 0: 0.75}})
        assert next_distribution(backend, [0]).probs == {1: 0.25, 0: 0.75}

    def test_spec_file_loading(self, tmp_path):
        vocab = Vocabulary.from_texts(["a", "b"])
        path = tmp_path / "spec.json"
        path.write_text('{"default": {"a": 0.9, "b": 0.1}}', encoding="utf-8")
        backend = mock_backend_from_spec(str(path), vocab)
        assert next_distribution(backend, [0]).argmax == vocab.id("a")


def test_seeded_backend_needs_a_token():
    with pytest.raises(ValueError):
        SeededBackend(0, 1)


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


@pytest.mark.parametrize(
    "size, seed, context, argmax, golden",
    [
        (
            16,
            42,
            [0],
            13,
            {
                0: "0x1.a5aed8c900da9p-11",
                7: "0x1.2aeb6d6b4add6p-19",
                13: "0x1.1d8ad58e4e79cp-2",
                15: "0x1.8a956acca8ccap-8",
            },
        ),
        (16, 42, [3, 4, 5], 14, {8: "0x1.7fdd897d05b47p-25", 14: "0x1.a160a0a0db55bp-3"}),
        (
            32_000,
            1,
            [5, 6],
            21942,
            {
                0: "0x1.f7abbdaa545c2p-15",
                21942: "0x1.039b3e56d98b0p-13",
                31999: "0x1.86bc2407b66f8p-23",
            },
        ),
    ],
)
def test_seeded_backend_golden_floats(size, seed, context, argmax, golden):
    """The seeded model's floats, pinned as written by the dict-table
    implementation: a change of table layout keeps every value and ranking."""
    backend = SeededBackend(size, seed)
    table = backend.raw_distribution(context)
    assert len(table) == size
    assert {t: table[t].hex() for t in golden} == golden
    assert next_distribution(backend, context).argmax == argmax


def test_seeded_backend_caches_a_32k_context_in_1_3_mb():
    """A cached context is one dense table, about 1 MB at 32k tokens; a dict
    of 32k entries would take about 3 MB."""
    backend = SeededBackend(32_000, seed=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = backend.raw_distribution([1, 2, 3])
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert backend.raw_distribution([1, 2, 3]) is table
    assert held <= 1_300_000


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
    with pytest.raises(EmptyInput):
        next_distribution(MockBackend(default={0: 1.0}), [])


def test_empty_mask_rejected():
    with pytest.raises(EmptyMask, match="mask must allow at least one token"):
        LogitMask(frozenset())


def test_counting_backend():
    backend = CountingBackend(MockBackend(default={0: 1.0}))
    next_distribution(backend, [1])
    next_distribution(backend, [1, 2])
    assert backend.calls == 2
    assert backend.first_response is not None


def _argmax_by_sort_key(probs):
    """The one-key form of the tie rule, kept as the reference for ``_argmax``."""
    return min(probs, key=lambda t: (-probs[t], t))


# Few distinct values, so ties and all-zero tables come up often.
PROBS = st.sampled_from([0.0, 5e-324, 0.1, 0.2, 0.3, 1 / 3, 0.5]) | st.floats(0.0, 1.0)


@given(st.dictionaries(st.integers(0, 40), PROBS, min_size=1))
def test_argmax_matches_the_sort_key_rule_in_any_table_order(probs):
    assert _argmax(probs) == _argmax_by_sort_key(probs)


@given(
    table=st.dictionaries(st.integers(0, 15), PROBS, min_size=1),
    ids=st.frozensets(st.integers(0, 15)),
    cls=st.frozensets(st.integers(0, 15), min_size=1),
    query=st.frozensets(st.integers(0, 17)),
)
@example(table={0: 0.0, 1: 0.0}, ids=frozenset({3}), cls=frozenset({1, 2}), query=frozenset())
@example(
    table={1: 0.5, 2: 0.5, 3: 0.5}, ids=frozenset({2, 3}), cls=frozenset({1, 2}), query=frozenset()
)
@example(
    table={1: 0.1, 2: 0.2, 3: 0.7},
    ids=frozenset({2, 3}),
    cls=frozenset({1, 2, 4}),
    query=frozenset({1, 5}),
)
@settings(max_examples=300)
def test_class_mask_equals_its_expansion(table, ids, cls, query):
    """A termination class gives, on the explicit ids, the queried ids and the
    argmax, the very floats the same mask expanded to explicit ids gives: with
    ids inside the class, ties, and all-zero mass falling back to uniform. A
    queried id inside the class keeps its mass; one outside the mask reads 0.0."""
    backend = MockBackend(default=table)
    expanded = next_distribution(backend, [0], LogitMask(ids | cls), query)
    dist = next_distribution(backend, [0], LogitMask(ids, cls), query)
    assert dist.argmax == expanded.argmax
    assert set(dist.probs) == ids | query | {dist.argmax}
    assert all(dist.probs[t] == expanded.probs[t] for t in dist.probs)


def test_class_mask_answers_without_expanding():
    mask = LogitMask(frozenset({ADD}), frozenset({CLEAR, RET}))
    assert CLEAR in mask and ADD in mask and 7 not in mask
    assert "allowed" not in vars(mask)
    assert mask.allowed == {ADD, CLEAR, RET}


@given(
    pairs=st.lists(st.tuples(st.integers(0, 40), PROBS), min_size=1, unique_by=lambda kv: kv[0]),
    query=st.frozensets(st.integers(0, 45)),
)
@example(pairs=[(3, 0.5), (1, 0.5), (2, 0.5), (0, 0.0)], query=frozenset({0, 44}))
@example(pairs=[(5, 0.0), (2, 0.0)], query=frozenset())
@settings(max_examples=300)
def test_top_k_answers_are_entries_of_the_full_answer(pairs, query):
    """An unmasked ``top_k`` ask reports the queried ids plus the ``top_k`` most
    probable ids, ties to the smallest id, in a table of any key order; every
    reported value and the argmax are those of the whole-table answer."""
    table = dict(pairs)
    backend = MockBackend(default=table)
    full = next_distribution(backend, [0], query=query)
    by_rule = sorted(table, key=lambda t: (-table[t], t))
    for k in (0, 1, len(table) // 2, len(table) + 3):
        dist = next_distribution(backend, [0], query=query, top_k=k)
        assert set(dist.probs) == query | set(by_rule[:k])
        assert dist.probs == {t: full.probs[t] for t in dist.probs}
        assert dist.argmax == (full.argmax if k else None)


@pytest.mark.parametrize(
    "mask, top_k", [(None, -1), (LogitMask(frozenset({ADD})), 0), (LogitMask(frozenset({ADD})), 3)]
)
def test_top_k_rejects_a_negative_count_or_a_mask(table_backend, mask, top_k):
    with pytest.raises(ValueError):
        next_distribution(table_backend, [9], mask, top_k=top_k)


class _Dense(ModelBackend):
    """Serves one table as the dense tuple a full-support backend returns."""

    def __init__(self, values):
        self.values = tuple(values)

    def raw_distribution(self, context):
        return self.values


def _same(a, b):
    """Equal answers, down to the order of the reported ids."""
    assert list(a.probs.items()) == list(b.probs.items())
    assert a.argmax == b.argmax


@given(
    values=st.lists(PROBS, min_size=1, max_size=20),
    ids=st.frozensets(st.integers(-2, 22), min_size=1),
    cls=st.frozensets(st.integers(-2, 22), min_size=1),
    query=st.frozensets(st.integers(-2, 22)),
)
@example(values=[0.5, 0.0, 0.5, 0.0], ids=frozenset({1, 2}), cls=frozenset({0, 3}), query=set())
@example(values=[0.0, 0.0, 0.0], ids=frozenset({2}), cls=frozenset({0, 1}), query={0, 5})
@example(values=[0.2, 0.4, 0.4], ids=frozenset({0}), cls=frozenset({1, 2}), query={-1, 3})
@settings(max_examples=300)
def test_dense_table_answers_equal_the_dict_table_answers(values, ids, cls, query):
    """Every ask gets the same answer whether a full-support table is served as
    a dense tuple or as the equal dict: masked with explicit ids only and with
    a termination class, ``query`` ids inside and outside the mask, ``top_k``
    from 0 to past the table's size, and the whole table. Ties, zero entries,
    all-zero tables and ids outside ``[0, size)`` come up."""
    dense, mapped = _Dense(values), MockBackend(default=dict(enumerate(values)))
    size = len(values)
    asks = [
        {"mask": LogitMask(ids)},
        {"mask": LogitMask(ids, cls)},
        {},
        *({"top_k": k} for k in (0, 1, size // 2, size, size + 3)),
    ]
    for ask in asks:
        for q in (None, query):
            expected = next_distribution(mapped, [0], query=q, **ask)
            _same(next_distribution(dense, [0], query=q, **ask), expected)
