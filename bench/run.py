"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload rank-32k --seed 1 --seconds 20 --trace 0

The run pins itself to one CPU and generates its inputs from ``--seed``
under ``bench/out/``. It repeats the set-up until set-ups have taken
``SETUP_SECONDS`` in all, and at least ``MIN_SETUPS`` times, and reports
their median as ``setup_s``. It then makes one untimed warm-up pass, runs
whole rounds over the points until ``--seconds`` have passed and at least
``MIN_RANKINGS`` treeranker rankings were timed, and finally checks every
output. Every round does the same work, so ``points_per_s`` is the median
of the rounds' rates. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it installs span wrappers, reports the per-layer metrics and
writes the spans to ``bench/out/<workload>-<seed>/spans.jsonl``. A
readable summary goes to standard error; the last line of standard output
is the result object. The exit code is 0 only when every output check
passed, and the metrics must be exactly those ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SECONDS = 5.0  # the machine's speed drifts over seconds; a 2 s window spread 0.22
MIN_SETUPS = 15
MIN_RANKINGS = 100  # so that ten timed rankings lie beyond rank_ms.p90


def _import_program():
    """Import trierank from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "trierank" / "__init__.py").is_file():
        sys.exit(f"run.py: no trierank sources under {src}")
    sys.path.insert(0, str(src))
    import trierank

    if Path(trierank.__file__).resolve().parent != (src / "trierank").resolve():
        sys.exit(f"run.py: imported trierank from {trierank.__file__}, not {src}")


def declared_metrics(kind: str) -> dict[str, str]:
    """Name to unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in config[kind]}


def percentile(samples: list[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import inputs
    import spans
    import workloads

    marks = [("generate", time.perf_counter())]
    out_dir = BENCH / "out" / f"{workload_name}-{seed}"
    vocab_path, data_path = inputs.write_inputs(workload_name, seed, out_dir)
    marks.append(("setup", time.perf_counter()))
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        spans.install(tracer)
    workload = workloads.WORKLOADS[workload_name](seed, tracer)

    setup_s = []
    while True:
        gc.collect()  # the previous set-up's garbage is not collected in a timed one
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        state = workload.setup(vocab_path, data_path)
        setup_s.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.enabled = False
        if sum(setup_s) >= SETUP_SECONDS and len(setup_s) >= MIN_SETUPS:
            break
        workload.close(state)
        del state
    try:
        marks.append(("warm", time.perf_counter()))
        workload.warm(state)
        gc.collect()
        ops = workloads.Ops(tracer)
        passes_before = workload.passes(state)
        marks.append(("timed", time.perf_counter()))
        if tracer is not None:
            tracer.start_timed_phase()
            tracer.enabled = True
        round_rates = []
        start = time.perf_counter()
        while True:
            round_start, done_before = time.perf_counter(), ops.attempted - ops.failed
            workload.round(state, ops)
            now = time.perf_counter()
            round_rates.append((ops.attempted - ops.failed - done_before) / (now - round_start))
            elapsed = now - start
            if elapsed >= seconds and len(ops.rank_s) >= MIN_RANKINGS:
                break
        if tracer is not None:
            tracer.enabled = False
        passes = workload.passes(state) - passes_before
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        marks.append(("check", time.perf_counter()))
        problems = workload.check(state)
    finally:
        workload.close(state)
    marks.append(("end", time.perf_counter()))

    completed = ops.attempted - ops.failed
    rank_s = sorted(ops.rank_s)
    summary = [
        f"{workload_name} seed={seed}: {len(setup_s)} set-ups, {len(round_rates)} rounds of "
        f"{len(state.points)} points in {elapsed:.2f} s, {ops.attempted} strategy-points, {ops.failed} failed, "
        f"{len(rank_s)} treeranker rankings timed",
        "round rates (strategy-points/s): " + " ".join(f"{r:.3f}" for r in round_rates),
        "phase seconds: " + " ".join(f"{name}={t1 - t0:.2f}" for (name, t0), (_, t1) in zip(marks, marks[1:])),
    ]
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_s),
            "points_per_s": statistics.median(round_rates),
            "rank_ms.p50": statistics.median(rank_s) * 1e3,
            "rank_ms.p90": percentile(rank_s, 90) * 1e3,
            "passes_per_point": passes / completed,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        values = spans.layer_metrics(tracer, completed)
        summary.append(
            f"traced rank_ms.p50={statistics.median(rank_s) * 1e3:.3f} "
            f"points_per_s={statistics.median(round_rates):.3f}"
        )
        for strategy, entry in spans.op_breakdown(tracer).items():
            share = entry["total_ms"] / (elapsed * 1e3)
            summary.append(
                f"op {strategy}: {entry['ops']} ops, mean {entry['mean_ms']:.3f} ms, "
                f"{share:.1%} of the timed phase; mean self ms per op:"
            )
            summary += [f"    {name:<24}{ms:10.4f}" for name, ms in entry["self_ms"].items()]
        tracer.write(out_dir / "spans.jsonl")
    metrics = declared_metrics("per_layer" if trace else "end_to_end")
    if set(values) != set(metrics):
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json declares {sorted(metrics)}")
    metrics = {name: (values[name], unit) for name, unit in metrics.items()}
    summary += [f"  {name:<28}{value:14.6f} {unit}" for name, (value, unit) in metrics.items()]
    summary += [f"CHECK FAILED: {p}" for p in problems[:20]]
    print("\n".join(summary), file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    import workloads

    # One CPU for the whole run: the loopback client and server threads
    # then hand over on one core instead of waking each other across cores.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
