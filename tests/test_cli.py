import json

import pytest

from trierank.cli import EXIT_BACKEND, EXIT_CONFIG, EXIT_OK, main

FIX = "fixtures"
BASE = ["--backend", f"mock:{FIX}/mockspec.json", "--vocab", f"{FIX}/vocab.tsv"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRank:
    def test_ranks_three_candidates(self, capsys):
        code, out, _ = run(
            capsys, "rank", *BASE, "--strategy", "treeranker",
            f"{FIX}/prefix.txt", "add", "addAll", "clear",
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["strategy"] == "treeranker"
        assert [r["identifier"] for r in record["ranking"]] == ["addAll", "add", "clear"]
        assert [r["rank"] for r in record["ranking"]] == [1, 2, 3]
        assert record["stats"]["steps"] == 2

    def test_unknown_strategy_exits_2_listing_valid(self, capsys):
        code, _, err = run(
            capsys, "rank", *BASE, "--strategy", "zigzag", f"{FIX}/prefix.txt", "add"
        )
        assert code == EXIT_CONFIG
        assert "treeranker" in err and "beamall" in err and "greedy" in err

    def test_unreachable_remote_exits_3(self, capsys):
        code, _, err = run(
            capsys, "rank", "--backend", "remote:http://127.0.0.1:9/",
            "--vocab", f"{FIX}/vocab.tsv", f"{FIX}/prefix.txt", "add", "clear",
        )
        assert code == EXIT_BACKEND
        assert "backend error" in err

    def test_baseline_strategy_record(self, capsys):
        code, out, _ = run(
            capsys, "rank", *BASE, "--strategy", "beamall",
            f"{FIX}/prefix.txt", "add", "addAll", "clear",
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["strategy"] == "beamall"
        assert {r["identifier"] for r in record["ranking"]} == {"add", "addAll", "clear"}

    def test_baseline_strategy_has_null_keys_and_stats(self, capsys):
        code, out, _ = run(
            capsys, "rank", *BASE, "--strategy", "greedy", f"{FIX}/prefix.txt", "add", "clear"
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["ranking"]
        for entry in record["ranking"]:
            assert entry["scored_len"] is None and entry["last_prob"] is None
        assert set(record["stats"].values()) == {None}

    def test_duplicate_candidates_warned_and_deduped(self, capsys):
        code, out, err = run(
            capsys, "rank", *BASE, f"{FIX}/prefix.txt", "add", "add", "clear"
        )
        assert code == EXIT_OK
        assert "duplicate candidate" in err
        assert len(json.loads(out)["ranking"]) == 2


class TestEval:
    def test_two_strategies_two_rows(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "eval", *BASE, "--strategy", "treeranker", "--strategy", "beamall",
            "--out", str(out_path), f"{FIX}/smoke.jsonl",
        )
        assert code == EXIT_OK
        assert "treeranker" in out and "beamall" in out
        report = json.loads(out_path.read_text())
        assert set(report["strategies"]) == {"treeranker", "beamall"}
        assert out_path.with_suffix(".txt").exists()

    def test_malformed_line_reported(self, capsys, tmp_path):
        dataset = tmp_path / "data.jsonl"
        good = json.dumps(
            {"id": "g", "prefix": "x.", "candidates": ["add"], "ground_truth": "add"}
        )
        dataset.write_text(good + "\n{broken\n", encoding="utf-8")
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "eval", *BASE, "--out", str(out_path), str(dataset)
        )
        assert code == EXIT_OK
        report = json.loads(out_path.read_text())
        assert any("line 2" in w for w in report["warnings"])

    def test_runs_populate_ci(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "eval", *BASE, "--runs", "5", "--out", str(out_path), f"{FIX}/smoke.jsonl"
        )
        assert code == EXIT_OK
        report = json.loads(out_path.read_text())
        timing = report["strategies"]["treeranker"]["ranking_time"]
        assert set(timing) == {"mean", "ci95"}

    def test_empty_dataset_exits_2(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code, _, err = run(capsys, "eval", *BASE, str(empty))
        assert code == EXIT_CONFIG

    def test_unreachable_backend_exits_3(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "eval", "--backend", "remote:http://127.0.0.1:9/",
            "--vocab", f"{FIX}/vocab.tsv", "--out", str(tmp_path / "r.json"),
            f"{FIX}/smoke.jsonl",
        )
        assert code == EXIT_BACKEND
        assert err.startswith("backend error: ")

    def test_partial_abort_flags_strategy_and_exits_3(self, capsys, tmp_path):
        # A 3-token window lets treeranker finish (early stops at depth 2)
        # while greedy over-generates past it and aborts.
        spec = json.loads(open(f"{FIX}/mockspec.json").read())
        spec["max_context"] = 3
        spec_path = tmp_path / "tight.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "eval", "--backend", f"mock:{spec_path}", "--vocab", f"{FIX}/vocab.tsv",
            "--strategy", "treeranker", "--strategy", "greedy",
            "--out", str(out_path), f"{FIX}/smoke.jsonl",
        )
        assert code == EXIT_BACKEND
        report = json.loads(out_path.read_text())
        assert set(report["strategies"]) == {"treeranker"}
        assert report["config"]["strategies"] == ["treeranker"]
        assert any("greedy aborted" in w for w in report["warnings"])

    def test_report_roundtrips_through_json(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        run(capsys, "eval", *BASE, "--out", str(out_path), f"{FIX}/smoke.jsonl")
        parsed = json.loads(out_path.read_text())
        assert parsed["dataset"]["points"] == 4

    def test_config_file_with_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "backend": f"mock:{FIX}/mockspec.json",
                    "vocab": f"{FIX}/vocab.tsv",
                    "strategies": ["greedy"],
                    "runs": 2,
                }
            ),
            encoding="utf-8",
        )
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "eval", "--config", str(cfg), "--strategy", "treeranker",
            "--out", str(out_path), f"{FIX}/smoke.jsonl",
        )
        assert code == EXIT_OK
        report = json.loads(out_path.read_text())
        # Flag overrides the config file's strategy list; runs comes from the file.
        assert set(report["strategies"]) == {"treeranker"}
        assert report["config"]["runs"] == 2

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus": 1}', encoding="utf-8")
        code, _, err = run(capsys, "eval", "--config", str(cfg), f"{FIX}/smoke.jsonl")
        assert code == EXIT_CONFIG and "bogus" in err


class TestStats:
    def test_fixture_statistics(self, capsys):
        code, out, _ = run(capsys, "stats", *BASE, f"{FIX}/smoke.jsonl")
        assert code == EXIT_OK
        rows = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert rows["early_completion_rate"].strip() == "1.0000"
        assert rows["split_rate"].strip() == "0.2500"
        assert rows["single_forward_pass_rate"].strip() == "0.5000"
        assert rows["within_two_passes_rate"].strip() == "1.0000"
        assert rows["avg_generated_tokens"].strip() == "1.5000"

    def test_single_candidate_dataset(self, capsys, tmp_path):
        dataset = tmp_path / "one.jsonl"
        dataset.write_text(
            json.dumps(
                {"id": "p", "prefix": "z.", "candidates": ["size"], "ground_truth": "size"}
            )
            + "\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "stats", *BASE, str(dataset))
        assert code == EXIT_OK
        rows = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert rows["early_completion_rate"].strip() == "1.0000"
        assert rows["single_forward_pass_rate"].strip() == "1.0000"

    def test_empty_dataset_exits_2(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n", encoding="utf-8")
        code, _, _ = run(capsys, "stats", *BASE, str(empty))
        assert code == EXIT_CONFIG


class TestCompare:
    def test_metric_deltas(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "eval", *BASE, "--strategy", "treeranker", "--out", str(a), f"{FIX}/smoke.jsonl")
        run(
            capsys, "eval", *BASE, "--strategy", "treeranker", "--unconstrained",
            "--out", str(b), f"{FIX}/smoke.jsonl",
        )
        code, out, _ = run(capsys, "compare", str(a), str(b), "--out", str(tmp_path / "d.json"))
        assert code == EXIT_OK
        assert "treeranker" in out and "mrr" in out
        deltas = json.loads((tmp_path / "d.json").read_text())
        assert "mrr" in deltas["treeranker"]

    def test_disjoint_reports_rejected(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text('{"strategies": {"x": {}}}', encoding="utf-8")
        b.write_text('{"strategies": {"y": {}}}', encoding="utf-8")
        code, _, _ = run(capsys, "compare", str(a), str(b))
        assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", *BASE, "--max-steps", "0", f"{FIX}/prefix.txt", "add"],
        ["rank", *BASE, "--alpha", "-1", "--strategy", "beamall", f"{FIX}/prefix.txt", "add"],
        ["eval", *BASE, "--jobs", "0", f"{FIX}/smoke.jsonl"],
        ["rank", *BASE, f"{FIX}/missing-prefix.txt", "add"],
        ["rank", *BASE, "--candidates-file", f"{FIX}/missing.txt", f"{FIX}/prefix.txt"],
        ["eval", *BASE, f"{FIX}/missing.jsonl"],
    ],
    ids=["max-steps-0", "negative-alpha", "jobs-0", "prefix-file", "candidates-file", "dataset"],
)
def test_invalid_input_exits_2_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_console_script_entry():
    import subprocess, sys

    result = subprocess.run(
        [sys.executable, "-m", "trierank.cli", "rank", *BASE, f"{FIX}/prefix.txt", "add", "clear"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["ranking"]
