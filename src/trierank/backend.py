"""Next-token-distribution providers.

The engine only ever asks one question: "given this token context, what are
the next-token probabilities?" — optionally restricted by a
:class:`LogitMask` (masking semantics: disallowed logits at -inf, so the
surviving support is renormalized), optionally reporting extra queried ids
without constraining the argmax. An unmasked ask may name how many of the
most probable ids it reads (``top_k``); it then costs a selection over the
table instead of a copy of it. Asks whose contexts do not depend on each
other's answers can go as one batch (:meth:`ModelBackend.next_distributions`):
a local backend answers them one by one, and a remote one in one request.

A mask holds explicit ids plus, at a terminal node, the vocabulary's shared
class of identifier-ending tokens. The union is never built on the local path:
a masked step costs O(explicit ids) in Python plus, with the class, a few
passes over the class's values in C. ``math.fsum`` totals make a class mask
and its expansion give the same floats.

A backend's table (:meth:`ModelBackend.raw_distribution`) is a
``Mapping[int, float]`` from id to probability or, for a full-support
backend, a dense ``tuple[float, ...]`` indexed by id. Either way an id the
table lacks reads 0.0: for a tuple, every id outside ``[0, len(table))``, so
a negative id never wraps around. Answers read explicit, class and queried
ids from either shape through :func:`_read`. A tuple, not a list: a tuple of
floats drops out of the cyclic garbage collector's tracking, while every full
collection would walk each element of a cached list, and it cannot be changed
by a caller.

Two deterministic mock implementations back the test suite:

* :class:`MockBackend` — a table model keyed on the longest matching
  token-suffix n-gram of the context (up to 4 tokens), with a default table.
* :class:`SeededBackend` — derives a full-support distribution for any
  context by hashing (seed, context); same seed + same context is
  bitwise-identical across processes. Its tables are dense tuples, about
  1 MB per context at 32k tokens where a dict would take about 3 MB.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import random
import struct
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import repeat
from operator import getitem, itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import ContextTooLong, EmptyInput, EmptyMask, MalformedSpec
from .vocab import TokenSeq, Vocabulary

MAX_SUFFIX_KEY = 4

Table = Union[Mapping[int, float], tuple[float, ...]]
"""Probabilities by token id: a mapping, or a dense tuple indexed by id."""


@dataclass(frozen=True)
class Distribution:
    """Probabilities over a reported support plus the argmax token id.

    What ``probs`` holds depends on the ask (see :func:`next_distribution`):
    the whole table, the masked step's ids, or the ``query`` ids plus the
    ``top_k`` most probable ones. A backend may report more than was asked,
    never less. ``argmax`` is ``None`` only for an unmasked ``top_k=0`` ask.
    """

    probs: dict[int, float]
    argmax: int | None


@dataclass(frozen=True)
class LogitMask:
    """The token ids a constrained step may select, at least one (else :class:`EmptyMask`):
    the explicit ``ids`` plus every id of the ``termination`` class, which may overlap them."""

    ids: frozenset[int]
    termination: frozenset[int] = frozenset()

    def __post_init__(self):
        if not self.ids and not self.termination:
            raise EmptyMask("mask must allow at least one token")

    def __contains__(self, token: int) -> bool:
        return token in self.ids or token in self.termination

    @cached_property
    def allowed(self) -> frozenset[int]:
        """The whole admissible set, built on first read: O(vocabulary) with a class."""
        return self.ids | self.termination


Ask = tuple[Sequence[int], Optional[LogitMask], Optional[Iterable[int]], Optional[int]]
"""One question of a batch: ``(context, mask, query, top_k)``, the arguments of
:func:`next_distribution` after the backend."""


def _read(table: Table, ids: Sequence[int]) -> Sequence[float]:
    """The values of the ascending ``ids``, 0.0 for an id ``table`` lacks. A
    dense tuple lacks every id outside ``[0, len(table))``, so a negative id
    never wraps around. Two or more ids inside it are read in C by
    ``itemgetter``, which is faster than mapping the tuple's ``__getitem__``,
    a slot wrapper."""
    if not isinstance(table, tuple):
        return list(map(table.get, ids, repeat(0.0)))
    n = len(table)
    if len(ids) > 1 and ids[0] >= 0 and ids[-1] < n:
        return itemgetter(*ids)(table)
    return [table[t] if 0 <= t < n else 0.0 for t in ids]


def _argmax(probs: Table) -> int:
    """The id of the largest value; ties go to the smallest id, in any table order."""
    if isinstance(probs, tuple):
        return probs.index(max(probs))
    best = max(probs.values())
    return min(t for t, p in probs.items() if p == best)


@lru_cache(maxsize=8)
def _ascending(cls: frozenset[int]) -> tuple[int, ...]:
    """The ids of ``cls`` in ascending order. A vocabulary has one termination
    class, so every terminal step of every ranking reuses this."""
    return tuple(sorted(cls))


def _restrict(
    table: Table, mask: LogitMask, query: Sequence[int] = ()
) -> tuple[dict[int, float], int]:
    """Probabilities renormalized over ``mask`` (uniform if no mass survives) for
    the explicit ids, the ``query`` ids inside the mask and the argmax; the
    argmax is taken on the raw values, ties to the smallest id. The total is the
    ``math.fsum`` of every admissible value, each id once, so a class and its
    expansion give the same floats. The class costs a few passes over its values
    in C (:func:`_read`, ``max``, ``index``, ``fsum``) and no Python-level loop."""
    cls = mask.termination
    explicit = sorted(mask.ids.union(q for q in query if q in mask))
    masked = dict(zip(explicit, _read(table, explicit)))
    values = [p for t, p in masked.items() if t not in cls]
    candidates = masked
    if cls:
        order = _ascending(cls)
        class_values = _read(table, order)
        i = class_values.index(max(class_values))  # ascending: the smallest id at the maximum
        candidates = {**masked, order[i]: class_values[i]}
        values += class_values
    argmax = _argmax(candidates)
    masked[argmax] = candidates[argmax]
    total = math.fsum(values)
    if total <= 0.0:
        share = 1.0 / len(values)
        return {t: share for t in masked}, argmax
    return {t: p / total for t, p in masked.items()}, argmax


def top_k_answer(
    table: Table, query: Iterable[int], top_k: int
) -> tuple[dict[int, float], int | None]:
    """The unmasked ask-only answer: the ``query`` ids (0.0 outside ``table``),
    ascending, plus the ``top_k`` most probable ids, ties to the smallest id,
    and the argmax, ``None`` at ``top_k=0``. The local path and the remote
    server's trim both answer with this, so their floats and ties are the same
    code."""
    # ``nlargest`` is stable: over ascending ids, ties go to the smallest.
    if not top_k:
        top = []
    elif top_k == 1:
        top = [_argmax(table)]  # in C on a dense tuple
    elif isinstance(table, tuple):
        # Keyed on ``getitem``: a tuple's own ``__getitem__`` is a slower slot wrapper.
        top = heapq.nlargest(top_k, range(len(table)), key=partial(getitem, table))
    else:
        top = heapq.nlargest(top_k, sorted(table), key=table.__getitem__)
    query = sorted(query)
    probs = dict(zip(query, _read(table, query)))
    probs.update((t, table[t]) for t in top)
    return probs, (top[0] if top else None)


class ModelBackend:
    """Abstract next-token-distribution provider."""

    def raw_distribution(self, context: Sequence[int]) -> Table:
        """Unmasked probabilities over the backend's support for ``context``: a
        ``Mapping[int, float]`` or, for a full-support backend, a dense
        ``tuple[float, ...]`` indexed by token id."""
        raise NotImplementedError

    def next_distribution(
        self,
        context: Sequence[int],
        allowed: LogitMask | None = None,
        query: Iterable[int] | None = None,
        top_k: int | None = None,
    ) -> Distribution:
        """Answer one ask (see :func:`next_distribution`): with ``allowed``, the
        masked step's ids; with ``top_k``, the ``query`` ids plus the ``top_k``
        most probable ids, and ``argmax`` ``None`` at ``top_k=0``; otherwise the
        whole table. An override may report more than was asked, never less."""
        table = self.raw_distribution(context)
        query = sorted(query or ())
        if allowed is not None:
            probs, argmax = _restrict(table, allowed, query)
        elif top_k is None:
            probs = dict(enumerate(table)) if isinstance(table, tuple) else dict(table)
            argmax = _argmax(table)
        else:
            probs, argmax = top_k_answer(table, query, top_k)
        for q in query:
            probs.setdefault(q, 0.0)
        return Distribution(probs, argmax)

    def next_distributions(self, asks: Sequence[Ask]) -> list[Distribution]:
        """Answer a batch of asks ``(context, mask, query, top_k)``, each as
        :func:`next_distribution` answers it, in order. Every ask is checked
        first, as :func:`next_distribution` checks it, so a bad one raises
        before any is answered; ``context`` is a sequence of token ids. This
        default answers them one by one through :meth:`next_distribution`, so
        a backend that overrides only that serves batches unchanged; a remote
        backend overrides it to send the batch as one request."""
        for context, mask, _, top_k in asks:
            _check_ask(context, mask, top_k)
        return [_ask(self, *ask) for ask in asks]

    def close(self) -> None:
        """Release what the backend holds open, such as a connection; the
        next ask may open it again. A local backend holds nothing."""


def next_distribution(
    backend: ModelBackend,
    context: TokenSeq | Sequence[int],
    mask: LogitMask | None = None,
    query: Iterable[int] | None = None,
    top_k: int | None = None,
) -> Distribution:
    """Query ``backend`` for the next-token distribution after ``context``.

    With ``mask``, probabilities are renormalized over the admissible set and
    the argmax is taken within it (:func:`_restrict`); they are reported for
    the mask's explicit ids and the argmax, not for the whole termination
    class. Without, the true full-support argmax is returned, and with it the
    whole table when ``top_k`` is ``None``, or only the ``top_k`` most
    probable ids (ties to the smallest id) when it is given; at ``top_k=0``
    the argmax is ``None``. Either way ``query`` ids are reported: 0.0 when
    the backend assigns them no mass or the mask excludes them. A backend may
    report more than was asked (a v1 remote server answers an unmasked ask
    with the whole table). Raises :class:`EmptyInput` on an empty ``context`` and
    ``ValueError`` on a negative ``top_k`` or one given with a mask.
    """
    ids = context.ids if isinstance(context, TokenSeq) else tuple(context)
    _check_ask(ids, mask, top_k)
    return _ask(backend, ids, mask, query, top_k)


def _check_ask(context: Sequence[int], mask: LogitMask | None, top_k: int | None) -> None:
    if not context:
        raise EmptyInput("context must be non-empty")
    if top_k is not None and (top_k < 0 or mask is not None):
        raise ValueError("top_k must be >= 0 and cannot be combined with a mask")


def _ask(backend, context, mask, query, top_k) -> Distribution:
    """Pass ``top_k`` on only when given, so a backend whose
    ``next_distribution`` takes three arguments still serves masked asks."""
    if top_k is None:
        return backend.next_distribution(context, mask, query)
    return backend.next_distribution(context, mask, query, top_k)


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
        if max_context is not None and (type(max_context) is not int or max_context < 1):
            raise MalformedSpec(f"max_context must be a positive integer, not {max_context!r}")
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
        if not 0 <= p < math.inf:
            raise MalformedSpec(f"{where}: probability {p} for token {token} is not in [0, inf)")
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
        except (RecursionError, ValueError) as exc:  # undecodable, invalid or too deep
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
        # ``float()`` would take true and "0.5".
        if not {int, float}.issuperset(map(type, raw.values())):
            raise MalformedSpec(f"non-numeric probability in {dict(raw)!r}")
        try:
            return {to_id(t): float(p) for t, p in raw.items()}
        except OverflowError:
            raise MalformedSpec(f"probability out of range in {dict(raw)!r}") from None

    entries, max_context = spec.get("contexts", []), spec.get("max_context")
    if not isinstance(entries, list):
        raise MalformedSpec("spec contexts must be a list")
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

    def __init__(self, vocab_size: int, seed: int):
        if vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        if not -(1 << 63) <= seed < 1 << 63:
            raise ValueError(f"seed {seed} is outside the signed 64-bit range")
        self.vocab_size = vocab_size
        self.seed = seed
        self._key = struct.pack("<q", seed)
        self._cache: dict[tuple[int, ...], tuple[float, ...]] = {}

    def raw_distribution(self, context: Sequence[int]) -> tuple[float, ...]:
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
        table = tuple([w / total for w in weights])
        self._cache[key] = table
        return table


class CountingBackend(ModelBackend):
    """Wrapper counting forward passes and stamping the first response.

    Every ask counts as one pass, whether it came alone or in a batch.
    ``first_response`` is the ``time.monotonic()`` instant the first call
    returned, the start of the harness's ranking time. A batch returns as a
    whole, so for a strategy that asks in one batch (``beam_all``) that
    instant is when the last of its answers arrived.
    """

    def __init__(self, inner: ModelBackend):
        self.inner = inner
        self.calls = 0
        self.first_response: float | None = None

    def next_distribution(self, context, allowed=None, query=None, top_k=None) -> Distribution:
        self.calls += 1
        result = _ask(self.inner, context, allowed, query, top_k)
        if self.first_response is None:
            self.first_response = time.monotonic()
        return result

    def next_distributions(self, asks: Sequence[Ask]) -> list[Distribution]:
        self.calls += len(asks)
        results = self.inner.next_distributions(asks)
        if self.first_response is None:
            self.first_response = time.monotonic()
        return results

    def close(self) -> None:
        self.inner.close()
