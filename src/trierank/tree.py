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

from .errors import DuplicateCandidate, NotASharedPrefix
from .vocab import SubtokenMap, TokenSeq, Vocabulary, greedy_tokenize


@dataclass
class TreeNode:
    edge_token: int | None = None
    children: dict[int, "TreeNode"] = field(default_factory=dict)
    members: set[int] = field(default_factory=set)
    terminal_for: int | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


def unique_candidate(node: TreeNode) -> int | None:
    """The single candidate below ``node``, if the subtree holds exactly one."""
    if len(node.members) == 1:
        return next(iter(node.members))
    return None


class CompletionTree:
    """Trie of the greedy token sequences of a candidate list.

    ``token_seqs`` tracks each candidate's *current* tokenization, which may
    change when branches are split and suffixes re-tokenized; ``identifiers``
    never changes. ``version`` counts structural changes (one per split).
    """

    def __init__(self, identifiers: list[str], vocab: Vocabulary):
        if not identifiers:
            raise ValueError("candidate list must be non-empty")
        seen: set[str] = set()
        for ident in identifiers:
            if ident in seen:
                raise DuplicateCandidate(ident)
            seen.add(ident)
        self.identifiers: list[str] = list(identifiers)
        self.vocab = vocab
        self.token_seqs: list[TokenSeq] = [greedy_tokenize(c, vocab) for c in identifiers]
        self.root = TreeNode()
        self.version = 0
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

    def node_for(self, tokens) -> TreeNode | None:
        """Descend from the root along ``tokens``; None when the path is absent."""
        node = self.root
        for t in tokens:
            node = node.children.get(t)
            if node is None:
                return None
        return node

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

        base_tokens = self._tokens_to(node)
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
        self.version += 1
        return target

    def main_token_push(self, node: TreeNode, subtoken: int, submap: SubtokenMap) -> int | None:
        """The unique child main token the subtoken prefixes, if exactly one."""
        matches = [m for m in submap.mains_of(subtoken) if m in node.children]
        if len(matches) == 1:
            return matches[0]
        return None

    def _tokens_to(self, target: TreeNode) -> tuple[int, ...]:
        path = self._path_to(target)
        if path is None:
            raise ValueError("node does not belong to this tree")
        return path

    def _path_to(self, target: TreeNode, node: TreeNode | None = None, acc: tuple[int, ...] = ()) -> tuple[int, ...] | None:
        node = node or self.root
        if node is target:
            return acc
        for t, child in node.children.items():
            found = self._path_to(target, child, acc + (t,))
            if found is not None:
                return found
        return None

    def spelled_identifiers(self) -> set[str]:
        """Identifier strings readable from root-to-terminal paths."""
        out: set[str] = set()

        def walk(node: TreeNode, text: str) -> None:
            if node.terminal_for is not None:
                out.add(text)
            for t, child in node.children.items():
                walk(child, text + self.vocab.texts[t])

        walk(self.root, "")
        return out

    def walk(self) -> Iterator[TreeNode]:
        """Depth-first node iteration, children in ascending token-id order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            for t in sorted(node.children, reverse=True):
                stack.append(node.children[t])

    def dump(self) -> str:
        """Deterministic text rendering for golden-file tests."""
        lines: list[str] = []

        def render(node: TreeNode, depth: int) -> None:
            if node.edge_token is None:
                label = "<root>"
            else:
                label = f"{self.vocab.texts[node.edge_token]!r}({node.edge_token})"
            members = ",".join(str(m) for m in sorted(node.members))
            terminal = "" if node.terminal_for is None else f" terminal={node.terminal_for}"
            lines.append(f"{'  ' * depth}{label} members={{{members}}}{terminal}")
            for t in sorted(node.children):
                render(node.children[t], depth + 1)

        render(self.root, 0)
        return "\n".join(lines)


def build_tree(candidates: list[str], vocab: Vocabulary) -> CompletionTree:
    """Build the completion trie for ``candidates`` under ``vocab``."""
    return CompletionTree(candidates, vocab)
