"""An executable specification of :func:`trierank.rank`, written naively.

It follows the README's description of the algorithm and shares no code with
``ranking.py``, ``tree.py`` or the subtoken map: there is no trie object. A
node is the path of tokens committed so far; its members are the candidates
whose current tokenization starts with that path, and its children are the
members' next tokens. Each step scans the whole vocabulary for the admissible
set, reads the backend's raw table and renormalizes it itself. Speed is not a
goal; every rule is spelled out once, in the order the decode applies it.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, field

IDENTIFIER_CHARS = set(string.ascii_letters + string.digits + "_")


@dataclass
class SpecResult:
    ranking: list[tuple[int, str, int, float, int]]  # candidate, identifier, scored_len, last_prob, rank
    traces: list[tuple[float, ...]]
    steps_taken: int = 0
    splits: int = 0
    pushes: int = 0
    early_stopped: bool = False
    off_tree_exit: bool = False
    identified: int | None = None
    selected_tokens: list[int] = field(default_factory=list)
    committed_tokens: list[int] = field(default_factory=list)


def longest_match(text: str, texts: list[str]) -> list[int]:
    """Greedy tokenization: at each position, the longest vocabulary text
    that the rest of ``text`` starts with."""
    ids, pos = [], 0
    while pos < len(text):
        best = max(
            (i for i, t in enumerate(texts) if text.startswith(t, pos)),
            key=lambda i: len(texts[i]),
        )
        ids.append(best)
        pos += len(texts[best])
    return ids


def table_value(table, token: int) -> float:
    """The raw probability of ``token``: 0.0 for an id the table lacks."""
    if isinstance(table, tuple):
        return table[token] if 0 <= token < len(table) else 0.0
    return table.get(token, 0.0)


def table_argmax(table) -> int:
    """The id of the table's largest value, ties to the smallest id."""
    held = range(len(table)) if isinstance(table, tuple) else table.keys()
    best = max(table_value(table, t) for t in held)
    return min(t for t in held if table_value(table, t) == best)


def spec_rank(
    backend,
    prefix_ids,
    candidates: list[str],
    texts: list[str],
    *,
    constrained: bool = True,
    early_stop: bool = True,
    max_steps: int = 16,
    include_termination_mass: bool = True,
) -> SpecResult:
    seqs = [longest_match(c, texts) for c in candidates]
    traces: list[list[float]] = [[] for _ in candidates]
    termination = [v for v, t in enumerate(texts) if t[0] not in IDENTIFIER_CHARS]
    out = SpecResult(ranking=[], traces=[])
    path: list[int] = []

    def members() -> list[int]:
        return [i for i, s in enumerate(seqs) if s[: len(path)] == path]

    def children() -> dict[int, list[int]]:
        by_edge: dict[int, list[int]] = {}
        for i in members():
            if len(seqs[i]) > len(path):
                by_edge.setdefault(seqs[i][len(path)], []).append(i)
        return by_edge

    def terminal() -> int | None:
        return next((i for i in members() if seqs[i] == path), None)

    def key(i: int) -> tuple[int, float]:
        return (len(traces[i]), traces[i][-1])

    while out.steps_taken < max_steps:
        here = members()
        if early_stop and out.steps_taken > 0 and len(here) == 1:
            # The survivor stops the decode only while it leads the ranking;
            # the first of equal keys leads.
            leader = max(range(len(candidates)), key=key)
            if leader == here[0]:
                out.identified = here[0]
                out.early_stopped = True
                break
        edges = children()
        if not edges:
            out.identified = terminal()
            break

        # Admissible: every id whose text equals or strictly prefixes a child
        # edge's text, plus the termination class at a terminal node.
        edge_texts = [texts[t] for t in edges]
        admissible = [v for v, t in enumerate(texts) if any(e.startswith(t) for e in edge_texts)]
        stop_class = termination if terminal() is not None and include_termination_mass else []
        admissible = sorted(set(admissible) | set(stop_class))

        table = backend.raw_distribution(tuple(prefix_ids) + tuple(path))
        if constrained:
            raw = {v: table_value(table, v) for v in admissible}
            total = math.fsum(raw.values())
            if total > 0.0:
                probs = {v: p / total for v, p in raw.items()}
            else:
                probs = dict.fromkeys(raw, 1.0 / len(raw))
            best = max(raw.values())
            pick = min(v for v in admissible if raw[v] == best)
        else:
            probs = {v: table_value(table, v) for v in admissible}
            pick = table_argmax(table)
            probs[pick] = table_value(table, pick)

        for edge, cands in edges.items():
            for i in cands:
                traces[i].append(probs[edge])
        out.steps_taken += 1
        out.selected_tokens.append(pick)

        if pick in edges:
            path.append(pick)
            continue
        if pick in stop_class:
            out.identified = terminal()
            break
        extended = [e for e in edges if texts[e] != texts[pick] and texts[e].startswith(texts[pick])]
        if len(extended) == 1:
            out.pushes += 1
            path.append(extended[0])
            continue
        if len(extended) < 2:
            assert not constrained
            out.off_tree_exit = True
            break
        # Split: the affected candidates spell the pick after the path, then
        # their re-tokenized remainder; the pick's probability replaces the
        # score they just received.
        consumed = "".join(texts[t] for t in path) + texts[pick]
        moved = [i for e in extended for i in edges[e]]
        for i in moved:
            seqs[i] = path + [pick] + longest_match(candidates[i][len(consumed) :], texts)
            traces[i][-1] = probs[pick]
        out.splits += 1
        path.append(pick)

    order = sorted(range(len(candidates)), key=key, reverse=True)
    out.ranking = [(i, candidates[i], *key(i), pos) for pos, i in enumerate(order, start=1)]
    out.traces = [tuple(t) for t in traces]
    out.committed_tokens = list(path)
    return out
