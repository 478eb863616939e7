"""Run one workload repeatedly and print each metric's spread next to its bound.

    python3 bench/repeat.py --workload eval-2k --runs 10 --first-seed 1

Runs ``bench/run.py`` once per seed (``first-seed`` onwards), one run at a
time, with the run length from ``BENCHMARK.json``. For every end-to-end
metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) / median``
and the metric's bound. A spread under a third of the bound is ``steady``;
one above the bound is ``WIDE``. ``--save`` writes every run's result to a
JSON file. The exit code is 1 when a run fails, reports a failed check, or
when failed operations are not the same share of attempted ones in every
run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread_table(results: list[dict], bounds: dict[str, float]) -> list[str]:
    lines = [f"{'metric':<30}{'unit':>7}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}"]
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        verdict = "steady" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
        lines.append(
            f"{name:<30}{unit:>7}{med:14.6g}{q1:14.6g}{q3:14.6g}{spread:9.3f}{bound:7.2f}  {verdict}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", type=Path, help="write every run's result here")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    results, ok = [], True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [
            sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(config["run_seconds"]),
            "--trace", "0",
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        result["seed"] = seed
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    if not results:
        return 1
    shares = {r["failed"] / r["attempted"] for r in results}
    if len(shares) > 1:
        print(f"failed share differs between runs: {sorted(shares)}")
        ok = False
    ok = ok and all(r["correct"] for r in results)
    print("\n".join(spread_table(results, bounds)))
    if args.save:
        args.save.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
