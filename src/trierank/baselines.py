"""Reference decoding strategies the tree ranker is compared against.

``greedy_complete`` and ``beam_search`` generate freely and are matched
against the candidate list afterwards (optionally via
``filter_to_candidates``); greedy decoding is beam search of width one.
``beam_all`` walks the whole completion tree, scoring every candidate by its
summed log-probability with a length penalty; it visits each internal node
exactly once, which makes its forward-pass count the budget the tree ranker
is measured against.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .backend import ModelBackend, next_distribution
from .tree import CompletionTree
from .vocab import TokenSeq, Vocabulary, identifier_prefix


@dataclass
class BeamHypothesis:
    token_ids: tuple[int, ...]
    text: str
    cum_logprob: float
    finished: bool


@dataclass(frozen=True)
class BeamAllScore:
    candidate: int
    identifier: str
    sum_logprob: float
    length: int
    penalized: float


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else float("-inf")


def greedy_complete(
    backend: ModelBackend, prefix: TokenSeq, vocab: Vocabulary, max_steps: int = 16
) -> str:
    """Unconstrained argmax decode, truncated at the identifier boundary: beam
    search of width one, which asks the same ``top_k=1`` questions."""
    return beam_search(backend, prefix, vocab, 1, max_steps)[0][0]


def beam_search(
    backend: ModelBackend,
    prefix: TokenSeq,
    vocab: Vocabulary,
    width: int,
    max_steps: int = 16,
) -> list[tuple[str, float]]:
    """Standard beam expansion over identifier continuations.

    Each live beam expands over its top-``width`` tokens; the global
    top-``width`` hypotheses by cumulative log-probability survive. A beam
    finishes once its text crosses an identifier boundary (the boundary
    token's log-probability is included). Equal scores keep their creation
    order: carried-over finished beams, already ranked, precede the new
    ones, which keep their expansion order. Returns distinct identifier
    strings with their best scores, descending. ``width`` and ``max_steps``
    are >= 1: a decode of no step would return the empty identifier.
    """
    if width < 1 or max_steps < 1:
        raise ValueError("width and max_steps must be >= 1")
    beams = [BeamHypothesis((), "", 0.0, False)]
    for _ in range(max_steps):
        live = [b for b in beams if not b.finished]
        if not live:
            break
        expanded = [b for b in beams if b.finished]
        for beam in live:
            context = list(prefix.ids) + list(beam.token_ids)
            # A backend may answer with more than ``width`` ids; the key picks the same ones.
            dist = next_distribution(backend, context, top_k=width)
            top = heapq.nsmallest(width, dist.probs.items(), key=lambda kv: (-kv[1], kv[0]))
            for token, p in top:
                text = beam.text + vocab.texts[token]
                finished = identifier_prefix(text) != text
                expanded.append(
                    BeamHypothesis(
                        beam.token_ids + (token,), text, beam.cum_logprob + _log(p), finished
                    )
                )
        # Stable: equal scores keep the order they were appended in.
        expanded.sort(key=lambda b: -b.cum_logprob)
        beams = expanded[:width]
    results: list[tuple[str, float]] = []
    seen: set[str] = set()
    for beam in beams:
        ident = identifier_prefix(beam.text)
        if ident not in seen:
            seen.add(ident)
            results.append((ident, beam.cum_logprob))
    return results


def filter_to_candidates(
    beams: list[tuple[str, float]], candidates: set[str]
) -> list[tuple[str, float]]:
    """Keep beams whose identifier is in the candidate set; order preserved."""
    return [b for b in beams if b[0] in candidates]


def beam_all(
    backend: ModelBackend, tree: CompletionTree, prefix: TokenSeq, alpha: float = 1.0
) -> list[BeamAllScore]:
    """Score every candidate by its full-path log-probability, length-penalized.

    Visits each internal node exactly once, reads the raw (unmasked) child
    probabilities there, and accumulates per-candidate sums; ``penalized`` is
    ``sum / length**alpha``. Sorted descending, ties by candidate order.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    sums: dict[int, float] = {}
    # Pre-order with children in ascending token-id order fixes the backend's
    # request sequence; an explicit stack keeps deep trees off the recursion limit.
    stack = [(tree.root, list(prefix.ids), 0.0)]
    while stack:
        node, context, acc = stack.pop()
        if node.is_leaf:
            continue
        dist = next_distribution(backend, context, query=node.children.keys(), top_k=0)
        for t in sorted(node.children, reverse=True):
            child = node.children[t]
            total = acc + _log(dist.probs[t])
            if child.terminal_for is not None:
                sums[child.terminal_for] = total
            stack.append((child, context + [t], total))

    scores = []
    for cand, ident in enumerate(tree.identifiers):
        length = len(tree.token_seqs[cand])
        total = sums[cand]
        scores.append(BeamAllScore(cand, ident, total, length, total / length**alpha))
    scores.sort(key=lambda s: (-s.penalized, s.candidate))
    return scores
