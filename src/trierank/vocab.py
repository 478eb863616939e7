"""Vocabulary handling and greedy (longest-match) tokenization.

A :class:`Vocabulary` is an immutable table of token texts with dense ids.
:func:`greedy_tokenize` picks the longest matching token at every position,
which is the deterministic token sequence the decoder optimistically follows.
:class:`SubtokenMap` records which vocabulary tokens are strict prefixes of
which others, so the decoder can admit and resolve partial-token selections.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError, UncoverableText

IDENTIFIER_CHARS = frozenset(string.ascii_letters + string.digits + "_")


def is_identifier_char(ch: str) -> bool:
    return ch in IDENTIFIER_CHARS


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

    __slots__ = ("texts", "ids", "_max_len", "_termination_ids")

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
        self._max_len = max((len(t) for t in texts), default=0)
        self._termination_ids: frozenset[int] | None = None

    @classmethod
    def from_texts(cls, texts) -> "Vocabulary":
        return cls(list(texts))

    @property
    def size(self) -> int:
        return len(self.texts)

    def __len__(self) -> int:
        return len(self.texts)

    def __contains__(self, text: str) -> bool:
        return text in self.ids

    def id(self, text: str) -> int:
        return self.ids[text]

    def termination_ids(self) -> frozenset[int]:
        """Ids of tokens that can end an identifier (first char not [A-Za-z0-9_])."""
        if self._termination_ids is None:
            self._termination_ids = frozenset(
                i for i, t in enumerate(self.texts) if not is_identifier_char(t[0])
            )
        return self._termination_ids

    # File format: one record per line, `<id>\t<escaped text>`, UTF-8.
    # Escapes: backslash, tab and newline only.

    def save(self, path) -> None:
        lines = [f"{i}\t{_escape(t)}" for i, t in enumerate(self.texts)]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

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
            entries[token_id] = _unescape(rest, lineno)
        if sorted(entries) != list(range(len(entries))):
            raise ParseError(0, "token ids are not dense in [0, size)")
        return cls([entries[i] for i in range(len(entries))])


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def _unescape(text: str, lineno: int) -> str:
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text):
                raise ParseError(lineno, "dangling escape")
            nxt = text[i + 1]
            try:
                out.append({"\\": "\\", "t": "\t", "n": "\n"}[nxt])
            except KeyError:
                raise ParseError(lineno, f"unknown escape \\{nxt}") from None
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


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
    ids: list[int] = []
    texts: list[str] = []
    pos = 0
    lookup = vocab.ids
    max_len = vocab._max_len
    n = len(text)
    while pos < n:
        match_id = -1
        for length in range(min(max_len, n - pos), 0, -1):
            candidate = text[pos : pos + length]
            found = lookup.get(candidate)
            if found is not None:
                match_id = found
                break
        if match_id < 0:
            raise UncoverableText(text, pos)
        ids.append(match_id)
        texts.append(vocab.texts[match_id])
        pos += len(vocab.texts[match_id])
    return TokenSeq(tuple(ids), tuple(texts))


@dataclass
class SubtokenMap:
    """Bidirectional strict-prefix relation between tokens.

    ``by_main[m]`` holds every token whose text is a strict prefix of
    ``texts[m]``; ``by_sub`` is the exact inverse.
    """

    by_main: dict[int, frozenset[int]] = field(default_factory=dict)
    by_sub: dict[int, frozenset[int]] = field(default_factory=dict)

    def subtokens_of(self, main_id: int) -> frozenset[int]:
        return self.by_main.get(main_id, frozenset())

    def mains_of(self, sub_id: int) -> frozenset[int]:
        return self.by_sub.get(sub_id, frozenset())


def build_subtoken_map(vocab: Vocabulary, main_tokens) -> SubtokenMap:
    """Map each main token to the vocabulary tokens that strictly prefix it."""
    by_main: dict[int, frozenset[int]] = {}
    by_sub: dict[int, set[int]] = {}
    lookup = vocab.ids
    for m in sorted(main_tokens):
        text = vocab.texts[m]
        subs = []
        for cut in range(1, len(text)):
            s = lookup.get(text[:cut])
            if s is not None:
                subs.append(s)
                by_sub.setdefault(s, set()).add(m)
        by_main[m] = frozenset(subs)
    return SubtokenMap(by_main, {s: frozenset(ms) for s, ms in by_sub.items()})


def full_subtoken_map(vocab: Vocabulary) -> SubtokenMap:
    """Subtoken map treating every vocabulary token as a potential main token.

    Built once per vocabulary so dynamically re-tokenized branches are already
    covered; safe to share across concurrent rankings.
    """
    return build_subtoken_map(vocab, range(vocab.size))


def boundary_merged(prefix_text: str, candidate: str, vocab: Vocabulary) -> bool:
    """Whether greedy tokenization of prefix+candidate merges across the boundary.

    Some vocabularies contain tokens like ``._`` that glue the dereference
    operator to the first candidate character, making the candidate's first
    token unreachable when the prefix is tokenized separately. Such
    candidates are flagged, not repaired.
    """
    if not prefix_text or not candidate:
        return False
    joined = prefix_text + candidate
    try:
        seq = greedy_tokenize(joined, vocab)
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
