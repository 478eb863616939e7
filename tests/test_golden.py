"""Recorded CLI outputs: every run below must reproduce its stdout, stderr,
exit code and written files byte for byte.

The runs go in-process through ``cli.main`` in a fresh working directory that
holds a copy of ``fixtures/``, so every path the commands print is relative
and stable. The test only compares; to record the outputs again, run

    PYTHONPATH=src python tests/test_golden.py

and review the change to ``tests/golden/cli.json`` like any other edit.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from trierank.cli import main
from trierank.evaluate import BASE_STRATEGIES

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

BACKENDS = ["mock:fixtures/mockspec.json", "mock:3", "mock:7"]
FLAGS = {"default": [], "unconstrained": ["--unconstrained"], "no-early-stop": ["--no-early-stop"]}
CANDIDATES = ["add", "addAll", "clear", "isEmpty"]
EVAL_STRATEGIES = ["treeranker", "beamall", "greedy", "beam5", "beam20f", "ide-baseline:intellij"]
# What each command writes, relative to the working directory.
WRITES = {"rank": [], "eval": ["report.json", "report.txt"], "stats": ["stats.json"]}


def _runs() -> dict[str, list[str]]:
    runs = {}
    for backend in BACKENDS:
        common = ["--backend", backend, "--vocab", "fixtures/vocab.tsv"]
        for flag_name, flags in FLAGS.items():
            for strategy in BASE_STRATEGIES:
                runs[f"rank-{strategy}-{flag_name}-{backend}"] = [
                    "rank", *common, *flags, "--strategy", strategy,
                    "fixtures/prefix.txt", *CANDIDATES,
                ]
            runs[f"eval-{flag_name}-{backend}"] = [
                "eval", *common, *flags, *(a for s in EVAL_STRATEGIES for a in ("--strategy", s)),
                "--no-timing", "--out", "report.json", "fixtures/smoke.jsonl",
            ]
            runs[f"stats-{flag_name}-{backend}"] = [
                "stats", *common, *flags, "--out", "stats.json", "fixtures/smoke.jsonl",
            ]
        runs[f"stats-runs3-{backend}"] = [
            "stats", *common, "--runs", "3", "--out", "stats.json", "fixtures/smoke.jsonl",
        ]
    return runs


RUNS = _runs()


def record(argv: list[str], workdir: Path) -> dict:
    """Run ``argv`` in ``workdir`` (a copy of the fixtures in a fresh
    directory) and return what it printed, returned and wrote."""
    shutil.copytree(ROOT / "fixtures", workdir / "fixtures")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    files = {
        name: (workdir / name).read_text(encoding="utf-8")
        for name in WRITES[argv[0]]
        if (workdir / name).exists()
    }
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": files}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_the_recorded_runs_are_the_runs_below(golden):
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_matches_the_recording(golden, tmp_path, name):
    assert record(RUNS[name], tmp_path) == golden[name]


if __name__ == "__main__":
    recorded = {}
    for name, argv in RUNS.items():
        with tempfile.TemporaryDirectory() as workdir:
            recorded[name] = record(argv, Path(workdir))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} runs to {GOLDEN}", file=sys.stderr)
