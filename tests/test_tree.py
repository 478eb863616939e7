import pytest
from hypothesis import given
from hypothesis import strategies as st

import trierank.ranking
import trierank.tree
import trierank.vocab
from trierank import (
    CountingBackend,
    SeededBackend,
    Vocabulary,
    beam_all,
    build_tree,
    full_subtoken_map,
    greedy_tokenize,
    rank,
)
from trierank.errors import (
    DuplicateCandidate,
    EmptyCandidateList,
    EmptyInput,
    NotASharedPrefix,
    UncoverableText,
)
from trierank.tree import CompletionTree

from support import dump_tree, random_model
from test_spec_rank import split_fixture


def assert_members_consistent(tree):
    def walk(node):
        expected = set()
        if node.terminal_for is not None:
            expected.add(node.terminal_for)
        for child in node.children.values():
            expected |= walk(child)
        assert node.members == expected
        return expected

    assert walk(tree.root) == set(range(len(tree.identifiers)))


def node_at(tree, tokens):
    node = tree.root
    for t in tokens:
        node = node.children[t]
    return node


def assert_paths_spell_identifiers(tree):
    for i, ident in enumerate(tree.identifiers):
        assert node_at(tree, tree.token_seqs[i].ids).terminal_for == i
        assert "".join(tree.token_seqs[i].texts) == ident


@pytest.fixture
def worked_tree(worked_vocab, worked_candidates):
    return build_tree(worked_candidates, worked_vocab)


class TestBuild:
    def test_worked_structure(self, worked_tree, worked_vocab):
        t = worked_vocab.id
        root = worked_tree.root
        assert set(root.children) == {t("add"), t("clear")}
        add = root.children[t("add")]
        assert add.terminal_for == 0
        assert set(add.children) == {t("All")}
        assert add.children[t("All")].terminal_for == 1
        assert root.children[t("clear")].terminal_for == 2
        assert root.members == {0, 1, 2}
        assert_members_consistent(worked_tree)
        assert_paths_spell_identifiers(worked_tree)

    def test_single_candidate(self):
        vocab = Vocabulary.from_texts(["x"])
        tree = build_tree(["x"], vocab)
        (child,) = tree.root.children.values()
        assert child.terminal_for == 0
        assert child.members == {0}
        assert tree.root.members == {0}

    def test_distinct_main_tokens_make_distinct_children(self):
        vocab = Vocabulary.from_texts(["is", "isEmpty", "i", "E"])
        tree = build_tree(["is", "isEmpty"], vocab)
        assert len(tree.root.children) == 2

    def test_duplicate_candidate_rejected(self, worked_vocab):
        with pytest.raises(DuplicateCandidate):
            build_tree(["add", "add"], worked_vocab)

    def test_empty_candidates_rejected(self, worked_vocab):
        with pytest.raises(EmptyCandidateList):
            build_tree([], worked_vocab)

    def test_empty_identifier_rejected(self, worked_vocab):
        with pytest.raises(EmptyInput, match="candidate 1 is an empty identifier"):
            build_tree(["add", ""], worked_vocab)

    def test_build_is_deterministic(self, worked_vocab, worked_candidates):
        a = build_tree(worked_candidates, worked_vocab)
        b = build_tree(worked_candidates, worked_vocab)
        assert dump_tree(a) == dump_tree(b)


def continuations(node):
    return {t: child.members for t, child in node.children.items()}


class TestQueries:
    def test_root_continuations(self, worked_tree, worked_vocab):
        t = worked_vocab.id
        assert continuations(worked_tree.root) == {t("add"): {0, 1}, t("clear"): {2}}

    def test_leaf_continuations(self, worked_tree, worked_vocab):
        leaf = worked_tree.root.children[worked_vocab.id("clear")]
        assert continuations(leaf) == {}

    def test_internal_continuations(self, worked_tree, worked_vocab):
        t = worked_vocab.id
        add = worked_tree.root.children[t("add")]
        assert continuations(add) == {t("All"): {1}}



SPLIT_TOKENS = ["isEmpty", "isDone", "is", "Empty", "Done", "i", "D", "E"]


class TestSplit:
    def test_shared_prefix_split(self):
        vocab = Vocabulary.from_texts(SPLIT_TOKENS)
        tree = build_tree(["isEmpty", "isDone"], vocab)
        before = tree.spelled_identifiers()
        node = tree.split_on_subtoken(tree.root, vocab.id("is"))
        assert tree.root.children[vocab.id("is")] is node
        assert set(tree.root.children) == {vocab.id("is")}
        assert {vocab.texts[t] for t in node.children} == {"Empty", "Done"}
        assert node.children[vocab.id("Empty")].members == {0}
        assert node.children[vocab.id("Done")].members == {1}
        assert tree.spelled_identifiers() == before
        assert tree.token_seqs[0].texts == ("is", "Empty")
        assert_members_consistent(tree)
        assert_paths_spell_identifiers(tree)

    def test_unrelated_branch_untouched(self):
        vocab = Vocabulary.from_texts(["abc", "abd", "xyz", "ab", "c", "d"])
        tree = build_tree(["abc", "abd", "xyz"], vocab)
        before = tree.spelled_identifiers()
        node = tree.split_on_subtoken(tree.root, vocab.id("ab"))
        assert node.members == {0, 1}
        xyz = tree.root.children[vocab.id("xyz")]
        assert xyz.members == {2}
        assert tree.spelled_identifiers() == before
        assert_members_consistent(tree)
        assert_paths_spell_identifiers(tree)

    def test_not_a_shared_prefix(self):
        vocab = Vocabulary.from_texts(SPLIT_TOKENS)
        tree = build_tree(["isEmpty", "Done"], vocab)
        with pytest.raises(NotASharedPrefix):
            tree.split_on_subtoken(tree.root, vocab.id("is"))

    def test_split_below_root(self):
        vocab = Vocabulary.from_texts(["pre", "isEmpty", "isDone", "is", "Empty", "Done"])
        tree = build_tree(["preisEmpty", "preisDone"], vocab)
        before = tree.spelled_identifiers()
        pre = tree.root.children[vocab.id("pre")]
        node = tree.split_on_subtoken(pre, vocab.id("is"))
        assert node.members == {0, 1}
        assert tree.spelled_identifiers() == before
        assert tree.token_seqs[0].texts == ("pre", "is", "Empty")
        assert_members_consistent(tree)
        assert_paths_spell_identifiers(tree)

    def test_split_at_depth_1500(self):
        vocab = Vocabulary.from_texts(["a", "b", "c", "d", "bc", "bd"])
        stem = "a" * 1500
        tree = build_tree([stem + "bc", stem + "bd"], vocab)
        deep = node_at(tree, tree.token_seqs[0].ids[:1500])
        node = tree.split_on_subtoken(deep, vocab.id("b"))
        assert node.members == {0, 1}
        assert tree.token_seqs[0].texts == ("a",) * 1500 + ("b", "c")
        assert tree.token_seqs[1].texts == ("a",) * 1500 + ("b", "d")
        assert_paths_spell_identifiers(tree)

    def test_foreign_node_rejected(self):
        vocab = Vocabulary.from_texts(SPLIT_TOKENS)
        tree = build_tree(["isEmpty", "isDone"], vocab)
        other = build_tree(["isEmpty", "isDone"], vocab)
        with pytest.raises(ValueError):
            tree.split_on_subtoken(other.root, vocab.id("is"))


class TestMainTokenPush:
    def test_unambiguous_push(self):
        vocab = Vocabulary.from_texts(SPLIT_TOKENS)
        tree = build_tree(["isEmpty"], vocab)
        submap = full_subtoken_map(vocab)
        assert tree.main_token_push(tree.root, vocab.id("is"), submap) == vocab.id("isEmpty")

    def test_ambiguous_returns_none(self):
        vocab = Vocabulary.from_texts(SPLIT_TOKENS)
        tree = build_tree(["isEmpty", "isDone"], vocab)
        submap = full_subtoken_map(vocab)
        assert tree.main_token_push(tree.root, vocab.id("is"), submap) is None

    def test_unrelated_returns_none(self):
        vocab = Vocabulary.from_texts(SPLIT_TOKENS + ["clear"])
        tree = build_tree(["clear"], vocab)
        submap = full_subtoken_map(vocab)
        assert tree.main_token_push(tree.root, vocab.id("is"), submap) is None

    def test_nested_prefixes_push_or_split(self):
        vocab = Vocabulary.from_texts(["a", "ab", "abc", "b", "c", "x"])
        a, ab, abc = vocab.id("a"), vocab.id("ab"), vocab.id("abc")
        submap = full_subtoken_map(vocab)
        # "a" prefixes both "ab" and "abc": no push, a split over both.
        tree = build_tree(["abc", "abx"], vocab)
        assert set(tree.root.children) == {ab, abc}
        assert tree.main_token_push(tree.root, a, submap) is None
        assert tree.split_on_subtoken(tree.root, a).members == {0, 1}
        assert set(tree.root.children) == {a}
        # "ab" prefixes only "abc": a push, and no split.
        tree = build_tree(["abc"], vocab)
        assert tree.main_token_push(tree.root, ab, submap) == abc
        assert tree.main_token_push(tree.root, a, submap) == abc
        with pytest.raises(NotASharedPrefix):
            tree.split_on_subtoken(tree.root, ab)


def test_dump_golden(worked_tree):
    assert dump_tree(worked_tree) == "\n".join(
        [
            "<root> members={0,1,2}",
            "  'add'(2) members={0,1} terminal=0",
            "    'All'(3) members={1} terminal=1",
            "  'clear'(4) members={2} terminal=2",
        ]
    )


def test_walks_handle_1500_token_paths():
    # Two identifiers sharing 1,500 single-character tokens: every walk over
    # the tree must go deeper than the interpreter's recursion limit.
    vocab = Vocabulary.from_texts(["a", "b", "c", "d", "bc", "bd"])
    idents = ["a" * 1500 + "bc", "a" * 1500 + "bd"]
    tree = build_tree(idents, vocab)
    assert tree.spelled_identifiers() == set(idents)
    lines = dump_tree(tree).split("\n")
    assert len(lines) == 1503
    assert lines[-2:] == [
        "  " * 1501 + "'bc'(4) members={0} terminal=0",
        "  " * 1501 + "'bd'(5) members={1} terminal=1",
    ]
    backend = CountingBackend(SeededBackend(vocab.size, 0))
    scores = beam_all(backend, tree, greedy_tokenize("a", vocab))
    assert {s.identifier for s in scores} == set(idents)
    assert backend.calls == 1501


def test_build_constructs_each_node_once(monkeypatch):
    constructed = 0

    class Counted(trierank.tree.TreeNode):
        def __init__(self, *args, **kwargs):
            nonlocal constructed
            constructed += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(trierank.tree, "TreeNode", Counted)
    for seed in range(20):
        vocab, candidates, _, _ = random_model(seed)
        constructed = 0
        tree = build_tree(candidates, vocab)
        assert constructed == sum(1 for _ in tree.walk())


def test_rank_constructs_only_the_nodes_its_decode_uses(monkeypatch):
    # The root, the children of each node asked at, and the node each split adds.
    constructed = asked_children = 0

    class Counted(trierank.tree.TreeNode):
        def __init__(self, *args, **kwargs):
            nonlocal constructed
            constructed += 1
            super().__init__(*args, **kwargs)

    real_record = trierank.ranking.record_step

    def counting_record(traces, node, dist):
        nonlocal asked_children
        asked_children += len(node.children)
        return real_record(traces, node, dist)

    monkeypatch.setattr(trierank.tree, "TreeNode", Counted)
    monkeypatch.setattr(trierank.ranking, "record_step", counting_record)
    # 400 candidates with distinct first tokens: the decode stops after its
    # first step, having built the root and its 400 children.
    firsts = [chr(0x4E00 + i) for i in range(400)]
    vocab = Vocabulary.from_texts(["x", ".", "a", "b", "c", "ab", "abc", *firsts])
    wide = [f + "abcab" for f in firsts]
    _, stats = rank(SeededBackend(vocab.size, 0), greedy_tokenize("x.", vocab), wide, vocab)
    assert stats.steps_taken == 1 and stats.early_stopped and constructed == 1 + 400

    splits = 0
    for vocab, candidates, prefix, backend in [
        *(random_model(seed) for seed in range(20)),
        *map(split_fixture, range(10)),
    ]:
        constructed = asked_children = 0
        _, stats = rank(backend, prefix, candidates, vocab)
        assert constructed == 1 + asked_children + stats.splits
        splits += stats.splits
    assert splits > 0


@st.composite
def vocab_and_identifiers(draw):
    """Vocabularies that hold every, some or none of the one-character tokens
    of the alphabet, and candidate lists spelled from that alphabet."""
    alphabet = "abé"
    tokens = draw(st.sets(st.text(alphabet=alphabet, min_size=1, max_size=3), min_size=1))
    if draw(st.booleans()):
        tokens |= set(alphabet)
    identifiers = draw(
        st.sets(st.text(alphabet=alphabet, min_size=1, max_size=6), min_size=1, max_size=5)
    )
    return Vocabulary.from_texts(sorted(tokens)), sorted(identifiers)


@given(vocab_and_identifiers())
def test_tree_is_built_on_demand_exactly_when_every_character_is_a_token(case):
    # The characters spelled by the root's children that hold a token: the
    # one-character tokens, as the vocabulary tables once listed them.
    vocab, identifiers = case
    trie = trierank.vocab._tables(vocab).trie
    singles = frozenset(ch for ch, child in trie[0].items() if ch and trie[child][""] >= 0)
    on_demand = singles.issuperset("".join(identifiers))
    try:
        tree = CompletionTree(identifiers, vocab)
    except UncoverableText:
        assert not on_demand
    else:
        assert tree.root.expanded is not on_demand
