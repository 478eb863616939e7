"""Output checks that do not trust the code they check.

* :func:`path_walk_ranking` re-scores every candidate the way ``beamall``
  is defined: tokenize it by longest match, walk its tokens summing the
  log-probabilities the backend's raw distribution gives, then divide by
  ``length ** alpha``. It shares no code with ``trierank.baselines``.
* :func:`treeranker_problems` checks properties every treeranker ranking
  must have, whatever the model says.
* :func:`metric_problems` recomputes MRR and Recall@K from per-point ranks.
"""

from __future__ import annotations

import math


def longest_match(text: str, token_ids: dict[str, int]) -> list[int]:
    """Greedy longest-match tokenization, written apart from the program's."""
    longest = max(map(len, token_ids))
    out, pos = [], 0
    while pos < len(text):
        for end in range(min(len(text), pos + longest), pos, -1):
            if text[pos:end] in token_ids:
                out.append(token_ids[text[pos:end]])
                pos = end
                break
        else:
            raise ValueError(f"{text!r} cannot be tokenized at {pos}")
    return out


def path_walk_ranking(raw, prefix_ids, candidates, token_ids, alpha=1.0):
    """``[(identifier, summed log-prob)]``, best first, ties by list order.

    ``raw(context)`` returns the unmasked next-token probabilities.
    """
    scored = []
    for index, ident in enumerate(candidates):
        tokens = longest_match(ident, token_ids)
        context = list(prefix_ids)
        total = 0.0
        for t in tokens:
            p = raw(context)[t]
            total += math.log(p) if p > 0.0 else float("-inf")
            context.append(t)
        scored.append((-(total / len(tokens) ** alpha), index, ident, total))
    scored.sort()
    return [(ident, total) for _, _, ident, total in scored]


def internal_nodes(tree) -> int:
    return sum(1 for node in tree.walk() if node.children)


def treeranker_problems(candidates, ranking, keys, steps, splits, nodes, max_steps) -> list[str]:
    """Properties of one treeranker ranking.

    ``ranking`` lists identifiers best first and ``keys`` their
    ``(scored_len, last_prob)``. Keys may not increase down the list, equal
    keys keep candidate order, and every decode step is taken at a distinct
    internal node: one of the trie's ``nodes`` or one a split added.
    """
    problems = []
    if sorted(ranking) != sorted(candidates):
        problems.append("ranking is not a permutation of the candidates")
        return problems
    order = {c: i for i, c in enumerate(candidates)}
    for k in range(len(ranking) - 1):
        a, b = keys[k], keys[k + 1]
        if a < b or (a == b and order[ranking[k]] > order[ranking[k + 1]]):
            problems.append(f"ranks {k + 1} and {k + 2} are out of order: {a} then {b}")
            break
    if steps > max_steps:
        problems.append(f"{steps} passes exceed max_steps={max_steps}")
    if steps > nodes + splits:
        problems.append(f"{steps} passes exceed {nodes} internal nodes plus {splits} splits")
    return problems


def metric_problems(name, ranks, mrr, recall) -> list[str]:
    """Compare a report's MRR and Recall@K with values recomputed from ranks."""
    n = len(ranks)
    expected_mrr = sum(1.0 / r for r in ranks if r is not None) / n
    problems = []
    if not math.isclose(mrr, expected_mrr, rel_tol=1e-12, abs_tol=1e-15):
        problems.append(f"{name}: MRR {mrr} != {expected_mrr} recomputed")
    for k, value in recall.items():
        expected = sum(1 for r in ranks if r is not None and r <= k) / n
        if value != expected:
            problems.append(f"{name}: Recall@{k} {value} != {expected} recomputed")
    return problems
