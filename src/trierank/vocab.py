"""Vocabulary handling and greedy (longest-match) tokenization.

A :class:`Vocabulary` is an immutable table of token texts with dense ids.
:func:`greedy_tokenize` picks the longest matching token at every position,
which is the deterministic token sequence the decoder optimistically follows.
It, :func:`boundary_merged` and the completion tree all call the one walk that
:func:`longest_match` gives: it walks a character trie of the token texts whose
every node records the longest token its path starts with, so it ends at the longest match.
:func:`full_subtoken_map` lists the ids of the tokens that strictly prefix
each token, so the decoder can admit and resolve partial-token selections.
One pass over the texts, made on first use, builds both for a vocabulary.
"""

from __future__ import annotations

import re
import string
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import ParseError, UncoverableText

IDENTIFIER_CHARS = frozenset(string.ascii_letters + string.digits + "_")


def identifier_prefix(text: str) -> str:
    """Maximal leading run of identifier characters of ``text``."""
    for i, ch in enumerate(text):
        if ch not in IDENTIFIER_CHARS:
            return text[:i]
    return text


class Vocabulary:
    """Immutable token table with dense ids in ``[0, size)``.

    Token texts must be unique and non-empty.
    """

    __slots__ = ("texts", "ids", "_tables")

    def __init__(self, texts: list[str]):
        seen: dict[str, int] = {}
        for i, text in enumerate(texts):
            if not text:
                raise ValueError(f"token {i} is empty")
            if text in seen:
                raise ValueError(f"duplicate token text {text!r} (ids {seen[text]}, {i})")
            seen[text] = i
        self.texts: tuple[str, ...] = tuple(texts)
        self.ids: dict[str, int] = seen
        self._tables: _Tables | None = None

    @classmethod
    def from_texts(cls, texts) -> "Vocabulary":
        return cls(list(texts))

    @property
    def size(self) -> int:
        return len(self.texts)

    def id(self, text: str) -> int:
        return self.ids[text]

    def termination_ids(self) -> frozenset[int]:
        """Ids of tokens that can end an identifier (first char not [A-Za-z0-9_])."""
        return _tables(self).termination

    # File format: one record per line, `<id>\t<escaped text>`, UTF-8.
    # Escapes: backslash, tab and newline only.

    @classmethod
    def load(cls, path) -> "Vocabulary":
        entries: dict[int, str] = {}
        raw = Path(path).read_text(encoding="utf-8")
        for lineno, line in enumerate(raw.split("\n"), start=1):
            if not line:
                continue
            head, sep, rest = line.partition("\t")
            if not sep:
                raise ParseError(lineno, "expected `<id>\\t<token>`")
            try:
                token_id = int(head)
            except ValueError:
                raise ParseError(lineno, f"bad token id {head!r}") from None
            if token_id in entries:
                raise ParseError(lineno, f"duplicate token id {token_id}")
            entries[token_id] = _unescape(rest, lineno) if "\\" in rest else rest
        if sorted(entries) != list(range(len(entries))):
            raise ParseError(0, "token ids are not dense in [0, size)")
        try:
            return cls([entries[i] for i in range(len(entries))])
        except ValueError as exc:
            raise ParseError(0, str(exc)) from None


_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n"}
_ESCAPE = re.compile(r"\\(.?)")


def _unescape(text: str, lineno: int) -> str:
    def replace(match: re.Match) -> str:
        nxt = match.group(1)
        if nxt not in _UNESCAPES:
            raise ParseError(lineno, f"unknown escape \\{nxt}" if nxt else "dangling escape")
        return _UNESCAPES[nxt]

    return _ESCAPE.sub(replace, text)


@dataclass(frozen=True)
class TokenSeq:
    """A tokenization of a string: parallel token ids and texts."""

    ids: tuple[int, ...]
    texts: tuple[str, ...]

    @property
    def text(self) -> str:
        return "".join(self.texts)

    def __len__(self) -> int:
        return len(self.ids)


def greedy_tokenize(text: str, vocab: Vocabulary) -> TokenSeq:
    """Tokenize ``text`` by taking the longest vocabulary match at each position.

    Raises :class:`UncoverableText` when no token matches at some position.
    """
    match, texts = _tables(vocab).longest_match, vocab.texts
    ids: list[int] = []
    pos, n = 0, len(text)
    while pos < n:
        match_id = match(text, pos)
        if match_id < 0:
            raise UncoverableText(text, pos)
        ids.append(match_id)
        pos += len(texts[match_id])
    return TokenSeq(tuple(ids), tuple(map(texts.__getitem__, ids)))


class _Tables(NamedTuple):
    # A character trie, root first: a node maps each next character to its
    # child's index and "" to the id of the longest token its path starts with
    # (-1 for none). Nodes hold only strings and ints, so the GC tracks none.
    trie: list[dict[str, int]]
    longest_match: Callable[[str, int], int]  # see longest_match
    subtoken_map: tuple[tuple[int, ...], ...]  # see build_subtoken_map
    termination: frozenset[int]  # see Vocabulary.termination_ids
    max_len: int  # the longest token length


def _build_tables(vocab: Vocabulary) -> _Tables:
    texts = vocab.texts
    nodes = [{"": -1}]
    subtoken_map: list[tuple[int, ...]] = [()] * len(texts)
    termination = []
    # In text order a token's prefixes come first, so a new node's longest
    # token is its parent's until the node itself spells one, and a node on
    # a walk spells a strict prefix exactly when its token is not its parent's.
    for token_id in sorted(range(len(texts)), key=texts.__getitem__):
        node, subs, text = nodes[0], [], texts[token_id]
        for ch in text:
            child = node.get(ch)
            if child is None:
                child = node[ch] = len(nodes)
                nodes.append({"": node[""]})
            elif nodes[child][""] != node[""]:
                subs.append(nodes[child][""])
            node = nodes[child]
        node[""] = token_id
        subtoken_map[token_id] = tuple(subs)
        if text[0] not in IDENTIFIER_CHARS:
            termination.append(token_id)
    max_len = max(map(len, texts), default=0)
    root = nodes[0]

    def match(text: str, pos: int) -> int:
        node = root
        for ch in text[pos : pos + max_len]:
            child = node.get(ch)
            if child is None:
                break
            node = nodes[child]
        return node[""]

    return _Tables(nodes, match, tuple(subtoken_map), frozenset(termination), max_len)


# Guards the lazy build of the tables a vocabulary keeps.
_LAZY_TABLE_LOCK = threading.Lock()


def _tables(vocab: Vocabulary) -> _Tables:
    if vocab._tables is None:
        with _LAZY_TABLE_LOCK:
            if vocab._tables is None:
                vocab._tables = _build_tables(vocab)
    return vocab._tables


def longest_match(vocab: Vocabulary) -> Callable[[str, int], int]:
    """The vocabulary's longest-match walk: ``match(text, pos)`` is the id of
    the longest token that starts at ``pos`` in ``text``, or -1 for none."""
    return _tables(vocab).longest_match


def build_subtoken_map(vocab: Vocabulary) -> tuple[tuple[int, ...], ...]:
    """Per token id, the ids of the tokens that strictly prefix its text, shortest first."""
    return _tables(vocab).subtoken_map


# bench/ calls this name; bench/spans.py times the other, as tests/test_bench_spans.py expects.
full_subtoken_map = build_subtoken_map


def boundary_merged(prefix: TokenSeq, candidate: str, vocab: Vocabulary) -> bool:
    """Whether greedy tokenization of prefix+candidate merges across the boundary.

    Some vocabularies contain tokens like ``._`` that glue the dereference
    operator to the first candidate character, making the candidate's first
    token unreachable when the prefix is tokenized separately. Such
    candidates are flagged, not repaired.

    ``prefix`` is the greedy tokenization of the prefix text. The joined
    text keeps its token boundaries up to the first of them where a longer
    match crosses into the candidate, so only the prefix tokens starting
    within one maximal token length of the end are read, and from each the
    longest match is looked up.
    """
    tables, texts = _tables(vocab), vocab.texts
    tail = ""
    for token in reversed(prefix.texts):
        tail = token + tail
        if len(tail) >= tables.max_len:
            break
        found = tables.longest_match(tail + candidate, 0)
        if found >= 0 and len(texts[found]) > len(tail):
            return True
    return False
