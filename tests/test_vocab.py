import gc
import sys
import threading

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import trierank.vocab
from trierank import (
    TokenSeq,
    Vocabulary,
    full_subtoken_map,
    greedy_tokenize,
    load_dataset,
    mock_backend_from_spec,
    rank,
)
from trierank.cli import main
from trierank.evaluate import EvalConfig, evaluate
from trierank.errors import ParseError, UncoverableText
from trierank.vocab import IDENTIFIER_CHARS, boundary_merged, identifier_prefix, longest_match

from support import bench_inputs, save_vocab


def vocab_of(*texts):
    return Vocabulary.from_texts(texts)


class TestGreedyTokenize:
    def test_longest_match_is_forced(self):
        v = vocab_of("is", "isEmpty", "Empty", "E")
        assert greedy_tokenize("isEmpty", v).texts == ("isEmpty",)

    def test_longest_match_then_remainder(self):
        v = vocab_of("is", "E", "isEmpty")
        assert greedy_tokenize("isE", v).texts == ("is", "E")

    def test_longest_match_at_each_position(self):
        v = vocab_of("Empty", "is")
        assert greedy_tokenize("Emptyis", v).texts == ("Empty", "is")

    def test_uncoverable_text(self):
        v = vocab_of("a", "b")
        with pytest.raises(UncoverableText) as err:
            greedy_tokenize("abc", v)
        assert err.value.position == 2

    def test_ids_parallel_texts(self):
        v = vocab_of("ab", "c")
        seq = greedy_tokenize("abc", v)
        assert seq.ids == (0, 1)
        assert seq.text == "abc"


@st.composite
def vocab_and_text(draw):
    alphabet = "abc"
    extra = draw(
        st.lists(st.text(alphabet=alphabet, min_size=2, max_size=4), max_size=8)
    )
    texts = sorted(set(alphabet) | set(extra))
    text = draw(st.text(alphabet=alphabet, max_size=20))
    return Vocabulary.from_texts(texts), text


@given(vocab_and_text())
@settings(max_examples=200)
def test_roundtrip_and_greedy_optimality(case):
    vocab, text = case
    seq = greedy_tokenize(text, vocab)
    assert "".join(seq.texts) == text
    # No vocabulary token longer than the one emitted matches at its position.
    pos = 0
    for emitted in seq.texts:
        for token in vocab.texts:
            if len(token) > len(emitted):
                assert not text.startswith(token, pos)
        pos += len(emitted)


def count_builds(monkeypatch, builder: str) -> list:
    """Wrap the ``trierank.vocab`` builder named ``builder`` so that it
    records the vocabulary of every build."""
    builds = []
    real = getattr(trierank.vocab, builder)

    def counting(vocab):
        builds.append(vocab)
        return real(vocab)

    monkeypatch.setattr(trierank.vocab, builder, counting)
    return builds


def run_every_caller(capsys):
    """Two rank() calls on one vocabulary, a two-strategy evaluate() on two
    threads on a second, and a CLI rank on a third it loads itself."""

    def fixture_vocab_and_backend():
        vocab = Vocabulary.load("fixtures/vocab.tsv")
        return vocab, mock_backend_from_spec("fixtures/mockspec.json", vocab)

    rank_vocab, backend = fixture_vocab_and_backend()
    prefix = greedy_tokenize("x.", rank_vocab)
    for _ in range(2):
        rank(backend, prefix, ["add", "addAll", "clear"], rank_vocab)
    eval_vocab, backend = fixture_vocab_and_backend()
    dataset = load_dataset("fixtures/smoke.jsonl")
    evaluate(["treeranker", "beamall"], dataset, backend, eval_vocab, EvalConfig(jobs=2))
    argv = ["rank", "--backend", "mock:fixtures/mockspec.json", "--vocab", "fixtures/vocab.tsv"]
    assert main([*argv, "fixtures/prefix.txt", "add", "addAll", "clear"]) == 0
    capsys.readouterr()
    return rank_vocab, eval_vocab


def probe_every_length(text: str, vocab: Vocabulary) -> TokenSeq:
    """Reference tokenizer: at each position, look up every length from the
    longest token text's down to 1 and take the first that is a token."""
    max_len = max(map(len, vocab.texts))
    ids, pos = [], 0
    while pos < len(text):
        for length in range(min(max_len, len(text) - pos), 0, -1):
            found = vocab.ids.get(text[pos : pos + length])
            if found is not None:
                break
        else:
            raise UncoverableText(text, pos)
        ids.append(found)
        pos += length
    return TokenSeq(tuple(ids), tuple(vocab.texts[i] for i in ids))


class TestPrefixWalk:
    def test_walk_passes_a_prefix_that_is_no_token(self):
        v = vocab_of("a", "b", "abc")
        assert greedy_tokenize("abcab", v).texts == ("abc", "a", "b")

    def test_walk_falls_back_to_a_shorter_match(self):
        v = vocab_of("a", "abcd")
        with pytest.raises(UncoverableText) as err:
            greedy_tokenize("abca", v)
        assert err.value.position == 1


GAPPED_ALPHABET = "abcé"


@st.composite
def gapped_vocab_and_text(draw):
    """Vocabularies where some single characters are no tokens and long
    tokens have prefixes that are no tokens, and texts mostly spelled from
    their tokens, often longer than the longest of them."""
    tokens = sorted(
        draw(
            st.sets(
                st.text(alphabet=GAPPED_ALPHABET, min_size=1, max_size=8), min_size=1, max_size=8
            )
        )
    )
    pieces = st.one_of(st.sampled_from(tokens), st.sampled_from(GAPPED_ALPHABET))
    return Vocabulary.from_texts(tokens), "".join(draw(st.lists(pieces, max_size=12)))


@given(gapped_vocab_and_text())
@settings(max_examples=300)
def test_prefix_walk_matches_probing_every_length(case):
    vocab, text = case
    try:
        expected = probe_every_length(text, vocab)
    except UncoverableText as err:
        with pytest.raises(UncoverableText) as got:
            greedy_tokenize(text, vocab)
        assert got.value.position == err.position
    else:
        assert greedy_tokenize(text, vocab) == expected


def probe_straddles(prefix_text: str, candidate: str, vocab: Vocabulary) -> bool:
    """Reference check: tokenize prefix+candidate as probe_every_length does
    and report whether the last token that starts in the prefix ends in the
    candidate. ``prefix_text`` must be coverable."""
    joined, max_len, pos = prefix_text + candidate, max(map(len, vocab.texts)), 0
    while pos < len(prefix_text):
        pos += next(
            length
            for length in range(min(max_len, len(joined) - pos), 0, -1)
            if joined[pos : pos + length] in vocab.ids
        )
    return pos > len(prefix_text)


@given(gapped_vocab_and_text(), st.data())
@settings(max_examples=300)
def test_boundary_merged_matches_probing_the_joined_text(case, data):
    vocab, prefix_text = case
    try:
        prefix = greedy_tokenize(prefix_text, vocab)
    except UncoverableText:
        assume(False)
    pieces = st.one_of(st.sampled_from(vocab.texts), st.sampled_from(GAPPED_ALPHABET))
    candidate = "".join(data.draw(st.lists(pieces, min_size=1, max_size=4)))
    expected = probe_straddles(prefix_text, candidate, vocab)
    assert boundary_merged(prefix, candidate, vocab) is expected


class TestPrefixTable:
    def test_built_once_per_vocabulary_and_never_on_load(self, monkeypatch, capsys):
        builds = count_builds(monkeypatch, "_build_tables")
        Vocabulary.load("fixtures/vocab.tsv")
        Vocabulary.from_texts(["a", "ab"])
        assert builds == []
        rank_vocab, eval_vocab = run_every_caller(capsys)
        assert len(builds) == 3
        assert builds[0] is rank_vocab and builds[1] is eval_vocab
        assert builds[2] not in (rank_vocab, eval_vocab)

    def test_concurrent_first_use_builds_once(self, monkeypatch):
        builds = count_builds(monkeypatch, "_build_tables")
        vocab = Vocabulary.load("fixtures/vocab.tsv")
        start = threading.Barrier(8)
        results = []

        def tokenize():
            start.wait(timeout=10)
            results.append(greedy_tokenize("x.addAll", vocab))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=tokenize) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert builds == [vocab]
        assert len(results) == 8 and len(set(results)) == 1

    def test_no_node_is_tracked_by_the_garbage_collector(self):
        for vocab in (Vocabulary.load("fixtures/vocab.tsv"), vocab_of("a", "é", "aé", "éa", "aéé")):
            nodes = trierank.vocab._build_tables(vocab).trie
            assert len(nodes) > vocab.size
            assert not any(map(gc.is_tracked, nodes))


SMALL_TEXTS = st.lists(st.text(alphabet="ab", min_size=1, max_size=4), min_size=1, max_size=12)


def slice_lookup_subtoken_map(vocab: Vocabulary) -> tuple[tuple[int, ...], ...]:
    """Reference subtoken map, as it was built before the character trie
    gave it: every strict prefix of every text looked up, shortest first."""
    lookup = vocab.ids
    table = []
    for text in vocab.texts:
        subs = (lookup.get(text[:cut]) for cut in range(1, len(text)))
        table.append(tuple(s for s in subs if s is not None))
    return tuple(table)


def lookup_longest_match(text: str, pos: int, vocab: Vocabulary) -> int:
    """Reference longest match: every slice of ``text`` from ``pos`` looked up
    in ``vocab.ids``, longest first; -1 when none is a token."""
    for end in range(len(text), pos, -1):
        found = vocab.ids.get(text[pos:end])
        if found is not None:
            return found
    return -1


def assert_tables_match_their_definitions(vocab: Vocabulary, *texts: str) -> None:
    """Check the tables against their definitions, and the longest-match walk
    at every position of every token text and of ``texts``, their ends too."""
    assert full_subtoken_map(vocab) == slice_lookup_subtoken_map(vocab)
    assert vocab.termination_ids() == frozenset(
        i for i, t in enumerate(vocab.texts) if t[0] not in IDENTIFIER_CHARS
    )
    tables = trierank.vocab._tables(vocab)
    assert tables.max_len == max(map(len, vocab.texts), default=0)
    match = longest_match(vocab)
    for text in (*vocab.texts, *texts):
        for pos in range(len(text) + 1):
            assert match(text, pos) == lookup_longest_match(text, pos, vocab), (text, pos)


class TestTables:
    def test_fixture_and_edge_vocabularies(self):
        for vocab in (
            Vocabulary.load("fixtures/vocab.tsv"),
            vocab_of("a", "é", "aé", "éa", "aéé", "aééb", "(", "(é"),
            vocab_of(),
        ):
            assert_tables_match_their_definitions(vocab)

    @given(SMALL_TEXTS)
    def test_symmetry_brute_force_vocabularies(self, texts):
        assert_tables_match_their_definitions(Vocabulary.from_texts(sorted(set(texts))))

    @given(gapped_vocab_and_text())
    def test_gapped_vocabularies(self, case):
        assert_tables_match_their_definitions(*case)

    @pytest.mark.parametrize("workload", ["rank-32k", "eval-2k", "remote-2k"])
    def test_benchmark_vocabularies(self, workload, tmp_path):
        vocab_path, _ = bench_inputs().write_inputs(workload, 1, tmp_path)
        assert_tables_match_their_definitions(Vocabulary.load(vocab_path))

    def test_one_record_per_vocabulary(self):
        vocab = Vocabulary.load("fixtures/vocab.tsv")
        tables = trierank.vocab._tables(vocab)
        assert full_subtoken_map is trierank.vocab.build_subtoken_map
        assert full_subtoken_map(vocab) is tables.subtoken_map
        assert vocab.termination_ids() is tables.termination
        assert longest_match(vocab) is tables.longest_match
        assert trierank.vocab._tables(vocab) is tables


class TestSubtokenMap:
    def test_strict_prefix_enumeration(self):
        v = vocab_of("is", "isEmpty", "i", "Empty")
        assert full_subtoken_map(v)[v.id("isEmpty")] == (v.id("i"), v.id("is"))

    def test_no_prefixes_present(self):
        v = vocab_of("is", "isEmpty", "i", "Empty")
        assert full_subtoken_map(v)[v.id("Empty")] == ()

    def test_built_once_per_vocabulary(self, monkeypatch, capsys):
        builds = count_builds(monkeypatch, "_build_tables")
        rank_vocab, eval_vocab = run_every_caller(capsys)
        assert len(builds) == 3
        assert builds[0] is rank_vocab and builds[1] is eval_vocab
        assert builds[2] not in (rank_vocab, eval_vocab)

    @given(SMALL_TEXTS)
    def test_symmetry_brute_force(self, texts):
        vocab = Vocabulary.from_texts(sorted(set(texts)))
        m = full_subtoken_map(vocab)
        assert len(m) == vocab.size
        for main in range(vocab.size):
            for sub in range(vocab.size):
                expected = sub != main and vocab.texts[main].startswith(vocab.texts[sub])
                assert (sub in m[main]) == expected


class TestVocabulary:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            vocab_of("a", "a")

    def test_rejects_empty_token(self):
        with pytest.raises(ValueError):
            vocab_of("a", "")

    def test_termination_ids(self):
        v = vocab_of("add", "(", ".", "_x", "9a", "\n")
        assert v.termination_ids() == {v.id("("), v.id("."), v.id("\n")}

    def test_file_roundtrip_with_escapes(self, tmp_path):
        v = vocab_of("plain", "has\ttab", "has\nnewline", "back\\slash", ".")
        path = tmp_path / "vocab.tsv"
        save_vocab(v, path)
        loaded = Vocabulary.load(path)
        assert loaded.texts == v.texts

    @pytest.mark.parametrize(
        "content",
        [
            "0\ta\nbad line\n",
            "0\ta\nx\tb\n",
            "0\ta\n2\tb\n",
            "0\ta\n1\tbad\\q\n",
            "0\ta\n1\ta\n",
            "0\ta\n1\t\n",
            "0\ta\n1\tdangling\\\n",
            "0\ta\n0\tb\n",
        ],
    )
    def test_file_errors(self, tmp_path, content):
        path = tmp_path / "vocab.tsv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ParseError):
            Vocabulary.load(path)


class TestIdentifierBoundary:
    @pytest.mark.parametrize(
        "text,expected",
        [("add(", "add"), ("", ""), ("foo_bar9", "foo_bar9"), ("(x", ""), ("a.b", "a")],
    )
    def test_identifier_prefix(self, text, expected):
        assert identifier_prefix(text) == expected

    def test_boundary_merge_flagged(self):
        v = vocab_of("x", ".", "._", "_foo", "foo", "_")
        assert boundary_merged(greedy_tokenize("x.", v), "_foo", v) is True
        assert boundary_merged(greedy_tokenize("x.", v), "foo", v) is False

    def test_boundary_clean_split(self):
        v = vocab_of("x", ".", "add")
        assert boundary_merged(greedy_tokenize("x.", v), "add", v) is False

    def test_boundary_merge_flagged_when_the_rest_is_uncoverable(self):
        # "x._ab" tokenizes as x, ._ and then fails on "a"; the merge across
        # the boundary is flagged all the same.
        v = vocab_of("x", ".", "_", "._", "_ab")
        assert boundary_merged(greedy_tokenize("x.", v), "_ab", v) is True
        assert joined_tokenization_straddles("x.", "_ab", v) is False


def joined_tokenization_straddles(prefix_text: str, candidate: str, vocab) -> bool:
    """Reference check: tokenize prefix+candidate whole and look for a token
    that straddles the boundary; an uncoverable joined text is not flagged."""
    if not prefix_text or not candidate:
        return False
    try:
        seq = greedy_tokenize(prefix_text + candidate, vocab)
    except UncoverableText:
        return False
    pos = 0
    for t in seq.texts:
        nxt = pos + len(t)
        if pos < len(prefix_text) < nxt:
            return True
        if nxt >= len(prefix_text):
            return False
        pos = nxt
    return False


@st.composite
def vocab_prefix_candidate(draw):
    alphabet = "ab._x"
    extra = draw(st.lists(st.text(alphabet=alphabet, min_size=2, max_size=5), max_size=12))
    vocab = Vocabulary.from_texts(sorted(set(alphabet) | set(extra)))
    prefix = draw(st.text(alphabet=alphabet, max_size=16))
    candidate = draw(st.text(alphabet=alphabet, min_size=1, max_size=6))
    return vocab, prefix, candidate


@given(vocab_prefix_candidate())
@settings(max_examples=300)
def test_boundary_merged_matches_joined_tokenization(case):
    vocab, prefix, candidate = case
    expected = joined_tokenization_straddles(prefix, candidate, vocab)
    assert boundary_merged(greedy_tokenize(prefix, vocab), candidate, vocab) is expected
