"""Ranking-quality and efficiency metrics.

Ranks are 1-based; ``None`` marks a miss (the ground truth never appeared).
"""

from __future__ import annotations

import math
from statistics import fmean, stdev
from typing import Iterable, Sequence

from .errors import EmptyInput, ZeroGenerated

# Two-sided 95% Student t critical values by degrees of freedom.
_T_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
    8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145,
    15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060, 26: 2.056,
    27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042, 40: 2.021, 60: 2.000,
    120: 1.980,
}


def mrr(ranks: Sequence[int | None]) -> float:
    """Mean inverse rank; a miss contributes 0."""
    if not ranks:
        raise EmptyInput("mrr of an empty rank list")
    return fmean(0.0 if r is None else 1.0 / r for r in ranks)


def recall_at_k(ranks: Sequence[int | None], k: int) -> float:
    """Fraction of ranks within the top ``k``."""
    if not ranks:
        raise EmptyInput("recall of an empty rank list")
    if k < 1:
        raise ValueError("k must be >= 1")
    return sum(1 for r in ranks if r is not None and r <= k) / len(ranks)


def exact_match_rate(matches: Sequence[bool]) -> float:
    """Fraction of points whose emitted completion equals the ground truth."""
    if not matches:
        raise EmptyInput("exact match of an empty list")
    return sum(1 for m in matches if m) / len(matches)


def token_efficiency(gt_token_len: int, generated_steps: int) -> float:
    """Ground-truth token count over decode steps; > 1 means fewer steps than
    the identifier's own length."""
    if generated_steps < 1:
        raise ZeroGenerated("token efficiency needs at least one generated step")
    return gt_token_len / generated_steps


def t_critical_95(df: int) -> float:
    """Two-sided 95% Student t quantile; conservative lookup above df=120."""
    if df < 1:
        raise ValueError("df must be >= 1")
    return _T_95[max(d for d in _T_95 if d <= df)]


def mean_and_ci95(values: Iterable[float]) -> tuple[float, float]:
    """Sample mean and half-width of its 95% confidence interval.

    A single observation carries no spread information; its interval
    half-width is reported as 0.
    """
    xs = list(values)
    if not xs:
        raise EmptyInput("mean of an empty sample")
    if len(xs) == 1:
        return xs[0], 0.0
    se = stdev(xs) / math.sqrt(len(xs))
    return fmean(xs), t_critical_95(len(xs) - 1) * se
