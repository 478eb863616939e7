"""Strategy evaluation over completion-point datasets.

Every strategy is an adapter ``adapter(point, backend, ctx)`` looked up by
name through :func:`strategy_adapter`; the CLI's ``rank`` command runs the
same adapters. :func:`evaluate` runs each requested strategy on every point,
locates the ground truth in the returned ranking, and aggregates MRR,
Recall@K, exact match, token efficiency, decode statistics, and timing. A
strategy whose backend fails (:class:`BackendUnavailable`,
:class:`ContextTooLong`) is left out of the report with a
``strategy <name> aborted: ...`` warning; the error propagates only when no
strategy completed.

Ranking time is measured from the first backend response to the end of the
decode; total time adds a fixed first-token constant (75 ms by default).
With ``runs > 1`` each point is timed across repeated runs and confidence
intervals use Student's t per point, averaged across the dataset.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from statistics import fmean, median, stdev

from .backend import CountingBackend, ModelBackend
from .baselines import beam_all, beam_search, filter_to_candidates, greedy_complete
from .errors import BackendUnavailable, ContextTooLong, EmptyInput, TrierankError
from .metrics import exact_match_rate, mean_and_ci95, mrr, recall_at_k, token_efficiency
from .ranking import DecodeConfig, DecodeStats, rank
from .tree import build_tree
from .vocab import Vocabulary, greedy_tokenize, identifier_prefix

IDE_PREFIX = "ide-baseline:"


class UnknownStrategy(TrierankError):
    """Strategy name not in the registered set."""


@dataclass
class EvalConfig:
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    alpha: float = 1.0
    runs: int = 1
    first_token_ms: float = 75.0
    jobs: int = 1

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.first_token_ms < 0:
            raise ValueError("first_token_ms must be >= 0")


@dataclass
class StrategyResult:
    """What one strategy produced for one completion point."""

    ranking: list[str]
    emitted: str | None
    decode: DecodeStats | None = None


@dataclass
class PointDetail:
    rank: int | None
    emitted_match: bool
    backend_calls: int
    gt_token_len: int
    decode: DecodeStats | None = None
    ranking_times: list[float] = field(default_factory=list)


@dataclass
class StrategyReport:
    mrr: float
    recall: dict[int, float]
    em: float
    token_efficiency: float | None
    avg_generated_tokens: float | None
    early_stop_rate: float | None
    split_rate: float | None
    push_rate: float | None
    ranking_time: tuple[float, float]
    total_time: tuple[float, float]

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "mrr": self.mrr,
            "recall@1": self.recall[1],
            "recall@5": self.recall[5],
            "recall@20": self.recall[20],
            "em": self.em,
            "token_efficiency": self.token_efficiency,
            "avg_generated_tokens": self.avg_generated_tokens,
            "early_stop_rate": self.early_stop_rate,
            "split_rate": self.split_rate,
            "push_rate": self.push_rate,
        }
        if include_timing:
            out["ranking_time"] = {"mean": self.ranking_time[0], "ci95": self.ranking_time[1]}
            out["total_time"] = {"mean": self.total_time[0], "ci95": self.total_time[1]}
        return out


@dataclass
class EvalReport:
    dataset: dict
    strategies: dict[str, StrategyReport]
    warnings: list[str]
    config: dict
    details: dict[str, list[PointDetail]] = field(default_factory=dict)

    def to_json(self, include_timing: bool = True) -> str:
        payload = {
            "dataset": self.dataset,
            "config": self.config,
            "strategies": {
                name: report.to_dict(include_timing)
                for name, report in self.strategies.items()
            },
            "warnings": self.warnings,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def table(self, include_timing: bool = True) -> str:
        header = f"{'strategy':<22}{'MRR':>7}{'R@1':>7}{'R@5':>7}{'R@20':>7}{'EM':>7}{'TER':>7}"
        header += "  ranking-time" if include_timing else ""
        lines = [header, "-" * len(header)]
        for name, rep in self.strategies.items():
            ter = f"{rep.token_efficiency:.2f}" if rep.token_efficiency is not None else "-"
            mean_ms, ci_ms = rep.ranking_time[0] * 1000, rep.ranking_time[1] * 1000
            timing = f"  {mean_ms:.1f}±{ci_ms:.1f} ms" if include_timing else ""
            lines.append(
                f"{name:<22}{rep.mrr:>7.3f}{rep.recall[1]:>7.3f}{rep.recall[5]:>7.3f}"
                f"{rep.recall[20]:>7.3f}{rep.em:>7.3f}{ter:>7}{timing}"
            )
        return "\n".join(lines)


@dataclass
class StrategyContext:
    """What every adapter shares across the points of one run."""

    vocab: Vocabulary
    config: EvalConfig


def _run_treeranker(point, backend, ctx: StrategyContext) -> StrategyResult:
    prefix = greedy_tokenize(point.prefix, ctx.vocab)
    ranked, stats = rank(backend, prefix, point.candidates, ctx.vocab, ctx.config.decode)
    if stats.identified is not None:
        emitted = point.candidates[stats.identified]
    else:
        emitted = identifier_prefix(
            "".join(ctx.vocab.texts[t] for t in stats.committed_tokens)
        )
    return StrategyResult([rc.identifier for rc in ranked], emitted, stats)


def _run_beamall(point, backend, ctx: StrategyContext) -> StrategyResult:
    prefix = greedy_tokenize(point.prefix, ctx.vocab)
    tree = build_tree(point.candidates, ctx.vocab)
    scores = beam_all(backend, tree, prefix, ctx.config.alpha)
    ranking = [s.identifier for s in scores]
    return StrategyResult(ranking, ranking[0] if ranking else None)


def _run_greedy(point, backend, ctx: StrategyContext) -> StrategyResult:
    prefix = greedy_tokenize(point.prefix, ctx.vocab)
    emitted = greedy_complete(backend, prefix, ctx.vocab, ctx.config.decode.max_steps)
    return StrategyResult([emitted] if emitted else [], emitted)


def _run_beam(width: int, filtered: bool):
    def adapter(point, backend, ctx: StrategyContext) -> StrategyResult:
        prefix = greedy_tokenize(point.prefix, ctx.vocab)
        beams = beam_search(backend, prefix, ctx.vocab, width, ctx.config.decode.max_steps)
        if filtered:
            beams = filter_to_candidates(beams, set(point.candidates))
        ranking = [b[0] for b in beams]
        return StrategyResult(ranking, ranking[0] if ranking else None)

    return adapter


def _run_ide(name: str):
    def adapter(point, backend, ctx: StrategyContext) -> StrategyResult:
        ranking = point.baselines.get(name)
        if ranking is None:
            raise UnknownStrategy(f"point {point.id!r} carries no baseline ranking {name!r}")
        return StrategyResult(list(ranking), ranking[0] if ranking else None)

    return adapter


_ADAPTERS = {
    "treeranker": _run_treeranker,
    "beamall": _run_beamall,
    "greedy": _run_greedy,
    "beam5": _run_beam(5, False),
    "beam20": _run_beam(20, False),
    "beam5f": _run_beam(5, True),
    "beam20f": _run_beam(20, True),
}
BASE_STRATEGIES = tuple(_ADAPTERS)


def strategy_adapter(name: str):
    """The adapter registered for ``name``; raises :class:`UnknownStrategy`."""
    if name in _ADAPTERS:
        return _ADAPTERS[name]
    if name.startswith(IDE_PREFIX):
        return _run_ide(name[len(IDE_PREFIX) :])
    raise UnknownStrategy(
        f"unknown strategy {name!r}; valid: {', '.join(BASE_STRATEGIES)}, {IDE_PREFIX}<name>"
    )


def _evaluate_point(adapter, point, gt_len: int, backend, ctx: StrategyContext) -> PointDetail:
    gt = point.ground_truth

    def one_run() -> tuple[StrategyResult, int, float]:
        counting = CountingBackend(backend)
        result = adapter(point, counting, ctx)
        end = time.monotonic()
        elapsed = (end - counting.first_response) if counting.first_response else 0.0
        return result, counting.calls, elapsed

    result, calls, elapsed = one_run()
    times = [elapsed]
    for _ in range(ctx.config.runs - 1):
        times.append(one_run()[2])

    return PointDetail(
        rank=result.ranking.index(gt) + 1 if gt in result.ranking else None,
        emitted_match=result.emitted == gt,
        backend_calls=calls,
        gt_token_len=gt_len,
        decode=result.decode,
        ranking_times=times,
    )


def _aggregate(details: list[PointDetail], config: EvalConfig) -> StrategyReport:
    ranks = [d.rank for d in details]
    point_means, point_cis = zip(*(mean_and_ci95(d.ranking_times) for d in details))
    ranking_mean, ranking_ci = fmean(point_means), fmean(point_cis)
    first_token_s = config.first_token_ms / 1000.0
    with_calls = [d for d in details if d.backend_calls > 0]
    ters = [token_efficiency(d.gt_token_len, d.backend_calls) for d in with_calls]
    decoded = [d.decode for d in details if d.decode is not None]
    return StrategyReport(
        mrr=mrr(ranks),
        recall={k: recall_at_k(ranks, k) for k in (1, 5, 20)},
        em=exact_match_rate([d.emitted_match for d in details]),
        token_efficiency=fmean(ters) if ters else None,
        avg_generated_tokens=fmean(d.backend_calls for d in with_calls) if with_calls else None,
        early_stop_rate=fmean(s.early_stopped for s in decoded) if decoded else None,
        split_rate=fmean(s.splits > 0 for s in decoded) if decoded else None,
        push_rate=fmean(s.pushes > 0 for s in decoded) if decoded else None,
        ranking_time=(ranking_mean, ranking_ci),
        total_time=(first_token_s + ranking_mean, ranking_ci),
    )


def evaluate(
    strategies,
    dataset,
    backend: ModelBackend,
    vocab: Vocabulary,
    config: EvalConfig | None = None,
) -> EvalReport:
    """Evaluate one or more strategies over ``dataset``; see module docstring.
    ``config.jobs`` threads share ``backend``, which the caller closes."""
    if isinstance(strategies, str):
        strategies = [strategies]
    points = list(dataset)
    if not points:
        raise EmptyInput("dataset has no completion points")
    config = config or EvalConfig()
    adapters = {name: strategy_adapter(name) for name in strategies}
    ctx = StrategyContext(vocab, config)
    warnings = list(getattr(dataset, "warnings", []))
    gt_lens = [len(greedy_tokenize(p.ground_truth, vocab)) for p in points]

    reports: dict[str, StrategyReport] = {}
    details: dict[str, list[PointDetail]] = {}
    error: TrierankError | None = None
    for name, adapter in adapters.items():
        run = partial(_evaluate_point, adapter, backend=backend, ctx=ctx)
        try:
            if config.jobs > 1:
                with ThreadPoolExecutor(max_workers=config.jobs) as pool:
                    point_details = list(pool.map(run, points, gt_lens))
            else:
                point_details = list(map(run, points, gt_lens))
        except (BackendUnavailable, ContextTooLong) as exc:
            warnings.append(f"strategy {name} aborted: {exc}")
            error = exc
            continue
        details[name] = point_details
        reports[name] = _aggregate(point_details, config)
    if error is not None and not reports:
        raise error

    list_lens = [len(p.candidates) for p in points]
    dataset_summary = {
        "points": len(points),
        "avg_candidates": fmean(list_lens),
        "median_candidates": median(list_lens),
        "avg_ground_truth_tokens": fmean(gt_lens),
    }
    config_echo = {
        "strategies": list(reports),
        "constrained": config.decode.constrained,
        "early_stop": config.decode.early_stop,
        "max_steps": config.decode.max_steps,
        "alpha": config.alpha,
        "runs": config.runs,
        "first_token_ms": config.first_token_ms,
    }
    return EvalReport(dataset_summary, reports, warnings, config_echo, details)


def tree_statistics(details: list[PointDetail]) -> dict:
    """Tree-manipulation statistics over treeranker point details."""
    if not details:
        raise EmptyInput("no points evaluated")
    decoded = [d.decode for d in details if d.decode is not None]
    if not decoded:
        raise EmptyInput("details carry no decode statistics")
    steps = [s.steps_taken for s in decoded]
    return {
        "points": len(details),
        "early_completion_rate": fmean(s.early_stopped for s in decoded),
        "split_rate": fmean(s.splits > 0 for s in decoded),
        "push_rate": fmean(s.pushes > 0 for s in decoded),
        "single_forward_pass_rate": fmean(s == 1 for s in steps),
        "within_two_passes_rate": fmean(s <= 2 for s in steps),
        "avg_generated_tokens": fmean(steps),
        "std_generated_tokens": stdev(steps) if len(steps) > 1 else 0.0,
        "token_efficiency": fmean(
            token_efficiency(d.gt_token_len, d.backend_calls) for d in details if d.backend_calls
        ),
    }
