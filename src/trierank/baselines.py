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

import math
import sys
from dataclasses import dataclass

from .backend import ModelBackend, next_distribution, top_k_answer
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
            dist = next_distribution(backend, prefix.ids + beam.token_ids, top_k=width)
            # A backend may answer with more than ``width`` ids: keep the ones a local ask keeps.
            for token, p in top_k_answer(dist.probs, (), width)[0].items():
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

    Asks once at each internal node for the raw (unmasked) child
    probabilities there, and accumulates per-candidate sums. No ask depends
    on an answer, so all of them go to ``backend.next_distributions`` as one
    batch: one request over a remote backend that takes batches, one ask
    after another on a local one, and one forward pass per ask either way.
    ``penalized`` is ``sum / length**alpha``, where a penalty too large for a
    float counts as infinite: a finite sum's score is then -0.0 and a -inf
    sum's stays -inf.
    Sorted descending, ties by candidate order. ``alpha`` is finite and >= 0.
    """
    if not 0 <= alpha < math.inf:
        raise ValueError("alpha must be a finite number >= 0")
    # An int alpha, as a config file's JSON integer gives, would make the
    # penalty an exact int power whose cost grows with alpha. Past the float
    # range every length above 1 overflows, as it does at the float maximum.
    alpha = float(min(alpha, sys.float_info.max))
    # Pre-order with children in ascending token-id order fixes the backend's
    # request sequence; an explicit stack keeps deep trees off the recursion
    # limit. Only internal nodes are asked about, so only they are stacked.
    nodes, asks = [], []
    stack = [(tree.root, prefix.ids)] if tree.root.children else []
    while stack:
        node, context = stack.pop()
        descending = sorted(node.children, reverse=True)
        nodes.append((node, descending))
        asks.append((context, None, node.children.keys(), 0))
        for t in descending:
            if node.children[t].children:
                stack.append((node.children[t], context + (t,)))
    sums: dict[int, float] = {}
    # Replays the walk: each internal node pops its path's sum as it popped its context.
    path_sums = [0.0]
    for (node, descending), dist in zip(nodes, backend.next_distributions(asks)):
        acc = path_sums.pop()
        for t in descending:
            child = node.children[t]
            total = acc + _log(dist.probs[t])
            if child.terminal_for is not None:
                sums[child.terminal_for] = total
            if child.children:
                path_sums.append(total)

    scores = []
    for cand, ident in enumerate(tree.identifiers):
        length = len(tree.token_paths[cand])
        total = sums[cand]
        try:
            penalized = total / length**alpha
        except OverflowError:
            penalized = -0.0 if total > -math.inf else total
        scores.append(BeamAllScore(cand, ident, total, length, penalized))
    scores.sort(key=lambda s: (-s.penalized, s.candidate))
    return scores
