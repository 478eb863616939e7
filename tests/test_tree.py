import pytest

from trierank import (
    Vocabulary,
    build_tree,
    full_subtoken_map,
    unique_candidate,
)
from trierank.errors import DuplicateCandidate, NotASharedPrefix


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


def assert_paths_spell_identifiers(tree):
    for i, ident in enumerate(tree.identifiers):
        node = tree.node_for(tree.token_seqs[i].ids)
        assert node is not None and node.terminal_for == i
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
        with pytest.raises(ValueError):
            build_tree([], worked_vocab)

    def test_build_is_deterministic(self, worked_vocab, worked_candidates):
        a = build_tree(worked_candidates, worked_vocab)
        b = build_tree(worked_candidates, worked_vocab)
        assert a.dump() == b.dump()


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

    def test_unique_candidate(self, worked_tree, worked_vocab):
        t = worked_vocab.id
        all_node = worked_tree.root.children[t("add")].children[t("All")]
        assert unique_candidate(all_node) == 1
        assert unique_candidate(worked_tree.root) is None

    def test_unique_candidate_single_tree(self):
        vocab = Vocabulary.from_texts(["x"])
        tree = build_tree(["x"], vocab)
        (child,) = tree.root.children.values()
        assert unique_candidate(child) == 0


SPLIT_TOKENS = ["isEmpty", "isDone", "is", "Empty", "Done", "i", "D", "E"]


class TestSplit:
    def test_shared_prefix_split(self):
        vocab = Vocabulary.from_texts(SPLIT_TOKENS)
        tree = build_tree(["isEmpty", "isDone"], vocab)
        before = tree.spelled_identifiers()
        node = tree.split_on_subtoken(tree.root, vocab.id("is"))
        assert node.edge_token == vocab.id("is")
        assert set(tree.root.children) == {vocab.id("is")}
        assert {vocab.texts[t] for t in node.children} == {"Empty", "Done"}
        assert node.children[vocab.id("Empty")].members == {0}
        assert node.children[vocab.id("Done")].members == {1}
        assert tree.spelled_identifiers() == before
        assert tree.token_seqs[0].texts == ("is", "Empty")
        assert tree.version == 1
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


def test_dump_golden(worked_tree):
    assert worked_tree.dump() == "\n".join(
        [
            "<root> members={0,1,2}",
            "  'add'(2) members={0,1} terminal=0",
            "    'All'(3) members={1} terminal=1",
            "  'clear'(4) members={2} terminal=2",
        ]
    )
