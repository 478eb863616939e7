"""Prefix trie over tokenized completion candidates.

Every candidate identifier contributes one root-to-terminal path whose edge
tokens come from greedy tokenization. The tree is mutable during a single
decode: when the model selects a token that is a shared strict prefix of
several child tokens, the affected branches are restructured under a new
intermediate node and the remaining suffixes are re-tokenized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .errors import DuplicateCandidate, EmptyCandidateList, EmptyInput, NotASharedPrefix
from .vocab import TokenSeq, Vocabulary, greedy_tokenize


@dataclass
class TreeNode:
    edge_token: int | None = None
    children: dict[int, "TreeNode"] = field(default_factory=dict)
    members: set[int] = field(default_factory=set)
    terminal_for: int | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


class CompletionTree:
    """Trie of the greedy token sequences of a candidate list.

    ``token_seqs`` tracks each candidate's *current* tokenization, which may
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
        self.token_seqs: list[TokenSeq] = [greedy_tokenize(c, vocab) for c in identifiers]
        self.root = TreeNode()
        for idx, seq in enumerate(self.token_seqs):
            self._insert(idx, seq.ids)

    def _insert(self, candidate: int, tokens: tuple[int, ...], base: TreeNode | None = None) -> None:
        node = self.root if base is None else base
        node.members.add(candidate)
        for t in tokens:
            node = node.children.setdefault(t, TreeNode(edge_token=t))
            node.members.add(candidate)
        assert node.terminal_for is None, "distinct identifiers cannot share a token path"
        node.terminal_for = candidate

    def split_on_subtoken(self, node: TreeNode, subtoken: int) -> TreeNode:
        """Insert ``subtoken`` as an intermediate child of ``node``.

        Every child whose edge text strictly extends the subtoken's text is
        removed; its candidates are re-tokenized past the subtoken and
        re-inserted below the new node. The set of identifier strings spelled
        by the tree is unchanged.
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

        # The root path to ``node`` is a prefix of each member's current
        # tokenization, so walking one member's costs O(depth).
        ids = self.token_seqs[next(iter(node.members))].ids
        at, depth = self.root, 0
        while at is not node:
            if at is None or depth == len(ids):
                raise ValueError("node does not belong to this tree")
            at = at.children.get(ids[depth])
            depth += 1
        base_tokens = ids[:depth]
        consumed = "".join(self.vocab.texts[t] for t in base_tokens)
        moved: list[int] = []
        for t in affected_edges:
            moved.extend(node.children.pop(t).members)

        target = node.children.get(subtoken)
        if target is None:
            target = TreeNode(edge_token=subtoken)
            node.children[subtoken] = target

        for cand in sorted(moved):
            suffix = self.identifiers[cand][len(consumed) + len(sub_text) :]
            tail = greedy_tokenize(suffix, self.vocab)
            new_ids = base_tokens + (subtoken,) + tail.ids
            new_texts = tuple(self.vocab.texts[i] for i in new_ids)
            self.token_seqs[cand] = TokenSeq(new_ids, new_texts)
            self._insert(cand, tail.ids, base=target)
        return target

    def main_token_push(
        self, node: TreeNode, subtoken: int, submap: tuple[tuple[int, ...], ...]
    ) -> int | None:
        """The unique child main token the subtoken strictly prefixes, if exactly one."""
        matches = [t for t in node.children if subtoken in submap[t]]
        if len(matches) == 1:
            return matches[0]
        return None

    def spelled_identifiers(self) -> set[str]:
        """Identifier strings readable from root-to-terminal paths."""
        out: set[str] = set()
        stack = [(self.root, "")]
        while stack:
            node, text = stack.pop()
            if node.terminal_for is not None:
                out.add(text)
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
    """Build the completion trie for ``candidates`` under ``vocab``."""
    return CompletionTree(candidates, vocab)
