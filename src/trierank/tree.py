"""Prefix trie over tokenized completion candidates.

Every candidate identifier contributes one root-to-terminal path whose edge
tokens come from greedy tokenization. A node records how many characters its
path spells, so it places its members into its children by greedy matching
from that offset. A node does this when it is first used, so a decode
tokenizes only the members of the nodes it visits; :func:`build_tree`
expands every node as it is created. The tree is mutable during a single
decode: when the model selects a token that is a shared strict prefix of
several child tokens, the affected branches are restructured under a new
intermediate node and their members are placed again past the selected token.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import (
    DuplicateCandidate,
    EmptyCandidateList,
    EmptyInput,
    NotASharedPrefix,
    UncoverableText,
)
from .vocab import TokenSeq, Vocabulary, longest_match


@dataclass
class TreeNode:
    """A trie node; the token of the edge into it is its key in its parent's ``children``.

    ``offset`` is the number of characters its path spells. Until a node is
    ``expanded``, its members are not yet placed into its children.
    """

    children: dict[int, "TreeNode"] = field(default_factory=dict)
    members: set[int] = field(default_factory=set)
    terminal_for: int | None = None
    offset: int = 0
    expanded: bool = True

    @property
    def is_leaf(self) -> bool:
        return not self.children


class CompletionTree:
    """Trie of the greedy token sequences of a candidate list.

    A node places its members into its children when :meth:`expand` is first
    called on it, which ``rank()`` does as its decode reaches the node. No
    placement can fail when every character of every candidate is a
    one-character token; otherwise the constructor builds the whole tree, as
    :func:`build_tree` always does, so that an uncoverable candidate fails
    before the decode starts.

    ``token_paths`` holds each candidate's tokens placed so far, which may
    change when branches are split and suffixes re-tokenized; ``identifiers``
    never changes.
    """

    def __init__(self, identifiers: list[str], vocab: Vocabulary):
        if not identifiers:
            raise EmptyCandidateList("no candidates to rank")
        seen: set[str] = set()
        for i, ident in enumerate(identifiers):
            if not ident:
                raise EmptyInput(f"candidate {i} is an empty identifier")
            if ident in seen:
                raise DuplicateCandidate(ident)
            seen.add(ident)
        self.identifiers: list[str] = list(identifiers)
        self.vocab = vocab
        self.token_paths: list[list[int]] = [[] for _ in identifiers]
        self.root = TreeNode(members=set(range(len(identifiers))), expanded=False)
        self._whole = False
        if not vocab.ids.keys() >= set("".join(identifiers)):
            self._build_whole()

    @property
    def token_seqs(self) -> list[TokenSeq]:
        """Each candidate's current tokenization; complete on a tree from :func:`build_tree`."""
        texts = self.vocab.texts
        return [TokenSeq(tuple(p), tuple(map(texts.__getitem__, p))) for p in self.token_paths]

    def expand(self, node: TreeNode) -> None:
        """Place the members of ``node`` into its children, once."""
        if not node.expanded:
            node.expanded = True
            self._place(node, sorted(node.members))

    def _build_whole(self) -> None:
        # Nodes created from now on are expanded as they are created, so each
        # candidate in turn is placed down to its terminal node.
        self._whole = True
        self.expand(self.root)

    def _place(self, node: TreeNode, candidates: Iterable[int], base: int = 0) -> None:
        """Place each of ``candidates``, members of the expanded ``node``, into
        a child, and on down through the children already expanded, along the
        vocabulary's :func:`~trierank.vocab.longest_match` at each offset. An
        uncoverable rest raises :class:`UncoverableText` on the text from ``base``."""
        match, texts = longest_match(self.vocab), self.vocab.texts
        whole = self._whole
        for cand in candidates:
            ident, path, at = self.identifiers[cand], self.token_paths[cand], node
            while at.expanded:
                pos = at.offset
                if pos == len(ident):
                    assert at.terminal_for is None, (
                        "distinct identifiers cannot share a token path"
                    )
                    at.terminal_for = cand
                    break
                token = match(ident, pos)
                if token < 0:
                    raise UncoverableText(ident[base:], pos - base)
                path.append(token)
                below = at.children.get(token)
                if below is None:
                    below = at.children[token] = TreeNode(
                        offset=pos + len(texts[token]), expanded=whole
                    )
                below.members.add(cand)
                at = below

    def split_on_subtoken(self, node: TreeNode, subtoken: int) -> TreeNode:
        """Insert ``subtoken`` as an intermediate child of ``node``.

        Every child whose edge text strictly extends the subtoken's text is
        removed; its candidates move below the new node and are placed again
        past the subtoken. The set of identifier strings spelled by the tree
        is unchanged.
        """
        sub_text = self.vocab.texts[subtoken]
        affected_edges = [
            t
            for t in node.children
            if t != subtoken and self.vocab.texts[t].startswith(sub_text)
        ]
        if len(affected_edges) < 2:
            raise NotASharedPrefix(
                f"token {sub_text!r} prefixes {len(affected_edges)} children, need >= 2"
            )

        # The root path to ``node`` is a prefix of each member's token path,
        # so walking one member's costs O(depth).
        path = self.token_paths[next(iter(node.members))]
        at, depth = self.root, 0
        while at is not node:
            if at is None or depth == len(path):
                raise ValueError("node does not belong to this tree")
            at = at.children.get(path[depth])
            depth += 1
        moved: list[int] = []
        for t in affected_edges:
            moved.extend(node.children.pop(t).members)

        target = node.children.get(subtoken)
        if target is None:
            target = node.children[subtoken] = TreeNode(
                offset=node.offset + len(sub_text), expanded=self._whole
            )
        moved.sort()
        for cand in moved:
            path = self.token_paths[cand]
            del path[depth:]
            path.append(subtoken)
            target.members.add(cand)
        if target.expanded:
            self._place(target, moved, base=target.offset)
        return target

    def main_token_push(
        self, node: TreeNode, subtoken: int, submap: tuple[tuple[int, ...], ...]
    ) -> int | None:
        """The unique child main token the subtoken strictly prefixes, if exactly one."""
        matches = [t for t in node.children if subtoken in submap[t]]
        return matches[0] if len(matches) == 1 else None

    def spelled_identifiers(self) -> set[str]:
        """Identifier strings readable from root-to-terminal paths; a member of
        a node not yet expanded reads on from its path with the rest of its identifier."""
        out: set[str] = set()
        stack = [(self.root, "")]
        while stack:
            node, text = stack.pop()
            if node.terminal_for is not None:
                out.add(text)
            if not node.expanded:
                out.update(text + self.identifiers[m][len(text) :] for m in node.members)
            stack.extend((child, text + self.vocab.texts[t]) for t, child in node.children.items())
        return out

    def walk(self) -> Iterator[TreeNode]:
        """Depth-first node iteration, children in ascending token-id order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            for t in sorted(node.children, reverse=True):
                stack.append(node.children[t])


def build_tree(candidates: list[str], vocab: Vocabulary) -> CompletionTree:
    """Build the whole completion trie for ``candidates`` under ``vocab``."""
    tree = CompletionTree(candidates, vocab)
    tree._build_whole()
    return tree
