"""Next-token-distribution providers.

The engine only ever asks one question: "given this token context, what are
the next-token probabilities?" — optionally restricted to an allowed set
(masking semantics: disallowed logits at -inf, so the surviving support is
renormalized), optionally reporting extra queried ids without constraining
the argmax.

Two deterministic mock implementations back the test suite:

* :class:`MockBackend` — a table model keyed on the longest matching
  token-suffix n-gram of the context (up to 4 tokens), with a default table.
* :class:`SeededBackend` — derives a full-support distribution for any
  context by hashing (seed, context); same seed + same context is
  bitwise-identical across processes.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import ContextTooLong, EmptyInput, MalformedSpec
from .vocab import TokenSeq, Vocabulary

MAX_SUFFIX_KEY = 4


@dataclass(frozen=True)
class Distribution:
    """Probabilities over a reported support plus the argmax token id."""

    probs: dict[int, float]
    argmax: int


@dataclass(frozen=True)
class LogitMask:
    """The set of token ids a constrained step may select."""

    allowed: frozenset[int]

    def __post_init__(self):
        if not self.allowed:
            raise ValueError("mask must allow at least one token")


def _argmax(probs: Mapping[int, float]) -> int:
    # Ties break toward the smallest token id for determinism.
    return min(probs, key=lambda t: (-probs[t], t))


def _restrict(table: Mapping[int, float], allowed: frozenset[int]) -> dict[int, float]:
    """Renormalize ``table`` over ``allowed``; uniform if no mass survives."""
    masked = {t: table.get(t, 0.0) for t in sorted(allowed)}
    total = sum(masked.values())
    if total <= 0.0:
        share = 1.0 / len(masked)
        return {t: share for t in masked}
    return {t: p / total for t, p in masked.items()}


class ModelBackend:
    """Abstract next-token-distribution provider."""

    def raw_distribution(self, context: Sequence[int]) -> dict[int, float]:
        """Unmasked probabilities over the backend's support for ``context``."""
        raise NotImplementedError

    def next_distribution(
        self,
        context: Sequence[int],
        allowed: frozenset[int] | None = None,
        query: Iterable[int] | None = None,
    ) -> Distribution:
        table = self.raw_distribution(context)
        if allowed is not None:
            probs = _restrict(table, allowed)
            argmax = _argmax(probs)
        else:
            probs = dict(table)
            argmax = _argmax(table)
        for q in sorted(query or ()):
            probs.setdefault(q, 0.0)
        return Distribution(probs, argmax)

    def session(self) -> "ModelBackend":
        """Per-completion-point handle; immutable backends may share self."""
        return self


def next_distribution(
    backend: ModelBackend,
    context: TokenSeq | Sequence[int],
    mask: LogitMask | None = None,
    query: Iterable[int] | None = None,
) -> Distribution:
    """Query ``backend`` for the next-token distribution after ``context``.

    With ``mask``, probabilities are renormalized over the allowed set and the
    argmax is taken within it. Without, the true full-support argmax is
    returned and ``query`` ids are reported even when the backend assigns them
    no mass. Raises :class:`EmptyInput` on an empty ``context``.
    """
    ids = context.ids if isinstance(context, TokenSeq) else tuple(context)
    if not ids:
        raise EmptyInput("context must be non-empty")
    allowed = mask.allowed if mask is not None else None
    return backend.next_distribution(ids, allowed, query)


class MockBackend(ModelBackend):
    """Deterministic table model.

    The description maps token-suffix n-grams of the context (length 1..4)
    to weight tables; the longest matching suffix wins, else the default
    table applies. Table values are returned verbatim when unconstrained.
    """

    def __init__(
        self,
        default: Mapping[int, float],
        contexts: Mapping[tuple[int, ...], Mapping[int, float]] | None = None,
        max_context: int | None = None,
    ):
        self.default = _check_table(dict(default), "default")
        self.contexts: dict[tuple[int, ...], dict[int, float]] = {}
        for suffix, table in (contexts or {}).items():
            key = tuple(suffix)
            if not 1 <= len(key) <= MAX_SUFFIX_KEY:
                raise MalformedSpec(f"suffix {key} must have 1..{MAX_SUFFIX_KEY} tokens")
            if key in self.contexts:
                raise MalformedSpec(f"duplicate suffix {key}")
            self.contexts[key] = _check_table(dict(table), f"suffix {key}")
        self.max_context = max_context

    def raw_distribution(self, context: Sequence[int]) -> dict[int, float]:
        if self.max_context is not None and len(context) > self.max_context:
            raise ContextTooLong(f"context of {len(context)} tokens exceeds {self.max_context}")
        for n in range(min(MAX_SUFFIX_KEY, len(context)), 0, -1):
            table = self.contexts.get(tuple(context[-n:]))
            if table is not None:
                return table
        return self.default


def _check_table(table: dict[int, float], where: str) -> dict[int, float]:
    if not table:
        raise MalformedSpec(f"{where}: empty probability table")
    for token, p in table.items():
        if p < 0:
            raise MalformedSpec(f"{where}: negative probability {p} for token {token}")
    return table


def mock_backend_from_spec(spec, vocab: Vocabulary | None = None) -> MockBackend:
    """Build a :class:`MockBackend` from a description dict or a JSON file path.

    JSON form references tokens by text and needs ``vocab``::

        {"default": {"add": 0.6, ...},
         "contexts": [{"suffix": ["."], "probs": {"add": 0.6, ...}}],
         "max_context": 512}
    """
    if isinstance(spec, (str, Path)):
        try:
            spec = json.loads(Path(spec).read_text(encoding="utf-8"))
        except ValueError as exc:  # undecodable bytes or invalid JSON
            raise MalformedSpec(f"not a JSON spec: {exc}") from None
    if not isinstance(spec, dict):
        raise MalformedSpec("spec must be a mapping or a path to one")
    if "default" not in spec:
        raise MalformedSpec("spec has no default distribution")

    def to_id(token) -> int:
        if isinstance(token, int):
            return token
        if vocab is None:
            raise MalformedSpec(f"token {token!r} given by text but no vocabulary supplied")
        if not isinstance(token, str) or token not in vocab.ids:
            raise MalformedSpec(f"unknown token text {token!r}")
        return vocab.ids[token]

    def to_table(raw) -> dict[int, float]:
        if not isinstance(raw, Mapping):
            raise MalformedSpec(f"expected a probability table, got {type(raw).__name__}")
        try:
            return {to_id(t): float(p) for t, p in raw.items()}
        except (TypeError, ValueError):
            raise MalformedSpec(f"non-numeric probability in {dict(raw)!r}") from None

    entries, max_context = spec.get("contexts", []), spec.get("max_context")
    if not isinstance(entries, list):
        raise MalformedSpec("spec contexts must be a list")
    if max_context is not None and not isinstance(max_context, int):
        raise MalformedSpec(f"max_context must be an integer, not {max_context!r}")
    contexts: dict[tuple[int, ...], dict[int, float]] = {}
    for entry in entries:
        if not isinstance(entry, Mapping) or not isinstance(entry.get("suffix"), list):
            raise MalformedSpec(f"context entry {entry!r} needs a suffix list")
        suffix = tuple(to_id(t) for t in entry["suffix"])
        if suffix in contexts:
            raise MalformedSpec(f"duplicate suffix {suffix}")
        contexts[suffix] = to_table(entry.get("probs"))
    return MockBackend(to_table(spec["default"]), contexts, max_context)


class SeededBackend(ModelBackend):
    """Full-support distribution derived by hashing (seed, context).

    Weights are cubed uniform draws, normalized; cubing sharpens the
    distribution enough that greedy decodes branch decisively.
    """

    def __init__(self, vocab_size: int, seed: int, max_context: int | None = None):
        if vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        self.vocab_size = vocab_size
        self.seed = seed
        self.max_context = max_context
        self._key = struct.pack("<q", seed)
        self._cache: dict[tuple[int, ...], dict[int, float]] = {}

    def raw_distribution(self, context: Sequence[int]) -> dict[int, float]:
        if self.max_context is not None and len(context) > self.max_context:
            raise ContextTooLong(f"context of {len(context)} tokens exceeds {self.max_context}")
        key = tuple(context)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        digest = hashlib.blake2b(
            struct.pack(f"<{len(key)}q", *key), key=self._key, digest_size=8
        ).digest()
        rng = random.Random(int.from_bytes(digest, "little"))
        weights = [rng.random() ** 3 for _ in range(self.vocab_size)]
        total = sum(weights)
        table = {t: w / total for t, w in enumerate(weights)}
        self._cache[key] = table
        return table


class CountingBackend(ModelBackend):
    """Session wrapper counting forward passes and stamping the first response.

    ``first_response`` is the ``time.monotonic()`` instant the first call
    returned, the start of the harness's ranking time.
    """

    def __init__(self, inner: ModelBackend):
        self.inner = inner
        self.calls = 0
        self.first_response: float | None = None

    def next_distribution(self, context, allowed=None, query=None) -> Distribution:
        self.calls += 1
        result = self.inner.next_distribution(context, allowed, query)
        if self.first_response is None:
            self.first_response = time.monotonic()
        return result

    def session(self) -> "CountingBackend":
        return CountingBackend(self.inner.session())
