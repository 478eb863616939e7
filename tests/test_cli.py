import json
import math
import string
import subprocess
import sys
from pathlib import Path

import pytest

import trierank.cli
import trierank.vocab
from trierank import (
    MockBackend,
    SeededBackend,
    Vocabulary,
    greedy_tokenize,
    mock_backend_from_spec,
    rank,
    ranking_record,
)
from trierank.cli import EXIT_BACKEND, EXIT_CONFIG, EXIT_OK, main
from trierank.remote import serve_backend

from support import bench_inputs, garble, save_vocab

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

    def test_malformed_remote_answer_exits_3(self, capsys):
        server, url = serve_backend(MockBackend(default={0: 1.0}))
        garble(server, b'{"probs": {"1": "0.5"}, "argmax": 1}')
        try:
            code, out, err = run(
                capsys, "rank", "--backend", f"remote:{url}",
                "--vocab", f"{FIX}/vocab.tsv", f"{FIX}/prefix.txt", "add", "clear",
            )
        finally:
            server.shutdown()
            server.server_close()
        assert code == EXIT_BACKEND and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("backend error: malformed response")

    def test_unsupported_remote_scheme_exits_3(self, capsys):
        code, out, err = run(
            capsys, "rank", "--backend", "remote:ftp://127.0.0.1/",
            "--vocab", f"{FIX}/vocab.tsv", f"{FIX}/prefix.txt", "add", "clear",
        )
        assert code == EXIT_BACKEND and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("backend error: ")

    def test_boundary_merged_candidate_warned_and_ranked(self, capsys, tmp_path):
        vocab = tmp_path / "vocab.tsv"
        save_vocab(Vocabulary.from_texts([*string.ascii_lowercase, ".", "_", "._"]), vocab)
        code, out, err = run(
            capsys, "rank", "--backend", "mock:1", "--vocab", str(vocab),
            f"{FIX}/prefix.txt", "_id", "add",
        )
        assert code == EXIT_OK
        assert err.splitlines() == [
            "warning: candidate '_id' is unreachable as tokenized — the vocabulary "
            "merges the dereference boundary into one token"
        ]
        assert {r["identifier"] for r in json.loads(out)["ranking"]} == {"_id", "add"}

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

    def test_txt_out_exits_2_before_evaluating(self, capsys, monkeypatch, tmp_path):
        # The table goes to the --out path with suffix .txt; a .txt report
        # path would be overwritten by it.
        def evaluate(*args, **kwargs):
            raise AssertionError("evaluated")

        monkeypatch.setattr(trierank.cli, "evaluate", evaluate)
        out_path = tmp_path / "r.txt"
        code, out, err = run(capsys, "eval", *BASE, "--out", str(out_path), f"{FIX}/smoke.jsonl")
        assert code == EXIT_CONFIG and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not out_path.exists()

    def test_empty_candidate_line_rejected(self, capsys, tmp_path):
        dataset = tmp_path / "data.jsonl"
        lines = [
            {"id": "g", "prefix": "x.", "candidates": ["add"], "ground_truth": "add"},
            {"id": "e", "prefix": "x.", "candidates": ["", "add"], "ground_truth": "add"},
        ]
        dataset.write_text("".join(json.dumps(x) + "\n" for x in lines), encoding="utf-8")
        out_path = tmp_path / "report.json"
        code, _, err = run(capsys, "eval", *BASE, "--out", str(out_path), str(dataset))
        assert code == EXIT_OK and err == ""
        report = json.loads(out_path.read_text())
        assert report["dataset"]["points"] == 1
        assert any("line 2: rejected" in w and "empty identifier" in w for w in report["warnings"])

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_remote_report_equals_the_local_one(self, capsys, tmp_path, jobs):
        """The command also closes its connections: one left open fails under
        the suite's ``ResourceWarning`` filter."""
        vocab = Vocabulary.load(f"{FIX}/vocab.tsv")
        server, url = serve_backend(mock_backend_from_spec(f"{FIX}/mockspec.json", vocab))
        strategies = ["--strategy", "treeranker", "--strategy", "beamall", "--strategy", "beam5"]
        try:
            reports = []
            for backend in (f"mock:{FIX}/mockspec.json", f"remote:{url}"):
                out_path = tmp_path / f"{backend[:4]}.json"
                code, _, _ = run(
                    capsys, "eval", "--backend", backend, "--vocab", f"{FIX}/vocab.tsv",
                    *strategies, "--jobs", jobs, "--no-timing", "--out", str(out_path),
                    f"{FIX}/smoke.jsonl",
                )
                assert code == EXIT_OK
                reports.append(out_path.read_bytes())
            assert reports[0] == reports[1]
        finally:
            server.shutdown()
            server.server_close()

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
        spec = json.loads(Path(f"{FIX}/mockspec.json").read_text(encoding="utf-8"))
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

    def test_no_timing_table_has_no_timing_column(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "eval", *BASE, "--no-timing", "--out", str(out_path), f"{FIX}/smoke.jsonl"
        )
        assert code == EXIT_OK
        table = out_path.with_suffix(".txt").read_text(encoding="utf-8")
        assert "ranking-time" not in table and " ms" not in table
        assert table in out
        run(capsys, "eval", *BASE, "--out", str(out_path), f"{FIX}/smoke.jsonl")
        assert "ranking-time" in out_path.with_suffix(".txt").read_text(encoding="utf-8")

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

    @pytest.mark.parametrize("flag", [["--runs", "0"], ["--backend", "bogus"], ["--config", "x"]])
    def test_rejects_run_flags(self, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["compare", *flag, "a.json", "b.json"])
        assert exit_info.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err


class File:
    """An argument naming a fresh file: JSON for a dict or list, raw bytes
    otherwise; ``scheme`` is put in front of the path."""

    def __init__(self, content, scheme=""):
        self.content, self.scheme = content, scheme

    def write(self, path) -> str:
        raw = self.content if isinstance(self.content, bytes) else json.dumps(self.content).encode()
        path.write_bytes(raw)
        return self.scheme + str(path)


PREFIX = f"{FIX}/prefix.txt"
SMOKE = f"{FIX}/smoke.jsonl"
DEEP = b"[" * 100_000 + b"]" * 100_000  # JSON that json.loads cannot recurse through


def mock(spec) -> list:
    """A ``--backend`` flag naming a mock spec file that holds ``spec``."""
    return ["--backend", File(spec, "mock:")]


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", *BASE, "--max-steps", "0", PREFIX, "add"],
        ["rank", *BASE, PREFIX, "", "add"],
        ["rank", *BASE, "--strategy", "greedy", PREFIX, "add", ""],
        ["rank", *BASE, "--alpha", "-1", "--strategy", "beamall", PREFIX, "add"],
        ["eval", *BASE, "--jobs", "0", f"{FIX}/smoke.jsonl"],
        ["rank", *BASE, f"{FIX}/missing-prefix.txt", "add"],
        ["rank", *BASE, "--candidates-file", f"{FIX}/missing.txt", PREFIX],
        ["eval", *BASE, f"{FIX}/missing.jsonl"],
        ["eval", *BASE, "--config", File({"first_token_ms": "x"}), f"{FIX}/smoke.jsonl"],
        ["eval", *BASE, "--config", File({"strategies": "greedy"}), f"{FIX}/smoke.jsonl"],
        ["rank", *BASE, File(b"x\xff."), "add"],
        ["rank", *BASE, File(b""), "add"],
        ["eval", *BASE, File(b'{"id": "\xff"}\n')],
        ["rank", *BASE, "--vocab", File(b"0\tadd\n1\t\xff\n"), PREFIX, "add"],
        ["rank", *BASE, "--vocab", File(b"0\ta\n1\ta\n"), PREFIX, "add"],
        ["rank", *BASE, "--vocab", File(b"0\ta\n1\t\n"), PREFIX, "add"],
        ["rank", *BASE, *mock({"default": {"add": "x"}}), PREFIX, "add"],
        ["rank", *BASE, *mock({"default": {"add": 1}, "contexts": [{"probs": {}}]}), PREFIX, "add"],
        ["rank", *BASE, *mock(b"{"), PREFIX, "add"],
        ["rank", *BASE, *mock({"default": {"add": 1}, "contexts": 5}), PREFIX, "add"],
        [
            "rank", *BASE,
            *mock({"default": {"add": 1}, "contexts": [{"suffix": [["."]], "probs": {"add": 1}}]}),
            PREFIX, "add",
        ],
        ["rank", *BASE, *mock({"default": {"add": 1}, "max_context": "x"}), PREFIX, "add"],
        ["compare", File([]), File([])],
        ["compare", File({"strategies": ["x"]}), File({"strategies": ["x"]})],
        ["eval", *BASE, "--config", File(b"{"), f"{FIX}/smoke.jsonl"],
        ["eval", *BASE, "--config", File([]), f"{FIX}/smoke.jsonl"],
        ["eval", *BASE, "--config", File({"strategies": []}), f"{FIX}/smoke.jsonl"],
        ["rank", "--backend", "mock:1", PREFIX, "add"],
        ["rank", "--vocab", f"{FIX}/vocab.tsv", PREFIX, "add"],
        ["rank", *BASE, "--backend", "mock", PREFIX, "add"],
        ["rank", *BASE, "--backend", "ftp:x", PREFIX, "add"],
        ["rank", *BASE, "--strategy", "greedy", "--strategy", "beam5", PREFIX, "add"],
        ["compare", File(b"{"), File(b"{")],
        ["rank", *BASE, *mock(DEEP), PREFIX, "add"],
        ["rank", *BASE, *mock(b'{"default": {"add": NaN}}'), PREFIX, "add"],
        ["eval", *BASE, "--config", File(DEEP), f"{FIX}/smoke.jsonl"],
        ["compare", File(DEEP), File(DEEP)],
        ["rank", *BASE, PREFIX, "add", "addAllé"],
    ],
    ids=[
        "max-steps-0", "empty-candidate", "empty-candidate-greedy", "negative-alpha", "jobs-0", "prefix-file", "candidates-file", "dataset",
        "config-string-number", "config-string-strategies", "prefix-not-utf8", "empty-prefix",
        "dataset-not-utf8", "vocab-not-utf8", "vocab-duplicate-token", "vocab-empty-token",
        "spec-non-numeric-probability",
        "spec-context-without-suffix", "spec-invalid-json", "spec-contexts-not-a-list",
        "spec-unhashable-token", "spec-max-context-not-an-integer", "report-is-a-list",
        "report-strategies-is-a-list", "config-invalid-json", "config-not-an-object",
        "config-no-strategies", "no-vocab", "no-backend", "backend-without-scheme",
        "backend-unknown-scheme", "rank-two-strategies", "report-invalid-json",
        "spec-nested-too-deeply", "spec-nan-probability", "config-nested-too-deeply",
        "report-nested-too-deeply", "uncoverable-candidate",
    ],
)
def test_invalid_input_exits_2_with_one_error_line(capsys, tmp_path, argv):
    argv = [a.write(tmp_path / f"arg{i}") if isinstance(a, File) else a for i, a in enumerate(argv)]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["eval", *BASE, "--strategy", "beamall", "--alpha", "nan", SMOKE], EXIT_CONFIG),
        (["eval", *BASE, "--strategy", "beamall", "--alpha", "inf", SMOKE], EXIT_CONFIG),
        (["eval", *BASE, "--first-token-ms", "nan", SMOKE], EXIT_CONFIG),
        (["eval", *BASE, "--config", File({"alpha": math.nan}), SMOKE], EXIT_CONFIG),
        (["rank", *BASE, "--backend", "mock:99999999999999999999", PREFIX, "add"], EXIT_CONFIG),
        (["rank", *BASE, "--backend", "mock:\u00b9", PREFIX, "add"], EXIT_CONFIG),
        (["rank", *BASE, "--backend", "mock:1", "--vocab", File(b""), PREFIX, "add"], EXIT_CONFIG),
        (["rank", *BASE, "--backend", "remote:http://[::1", PREFIX, "add"], EXIT_BACKEND),
    ],
    ids=[
        "alpha-nan", "alpha-inf", "first-token-ms-nan", "config-alpha-nan", "seed-out-of-range",
        "seed-not-ascii", "empty-vocab", "remote-malformed-endpoint",
    ],
)
def test_bad_settings_exit_with_one_error_line(capsys, tmp_path, argv, code):
    argv = [a.write(tmp_path / f"arg{i}") if isinstance(a, File) else a for i, a in enumerate(argv)]
    got, out, err = run(capsys, *argv)
    assert got == code and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("backend error: " if code == EXIT_BACKEND else "error: ")


@pytest.mark.parametrize("command", ["eval", "stats", "compare"])
def test_unwritable_out_exits_2_with_one_error_line(capsys, tmp_path, command):
    if command == "compare":
        report = File({"strategies": {"treeranker": {"mrr": 0.5}}}).write(tmp_path / "r.json")
        argv = ["compare", report, report]
    else:
        argv = [command, *BASE, SMOKE]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "out.json"))
    assert code == EXIT_CONFIG and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot write ")


def test_an_overflowing_length_penalty_is_ranked(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    code, _, err = run(
        capsys, "eval", *BASE, "--strategy", "beamall", "--alpha", "1e308",
        "--out", str(out_path), SMOKE,
    )
    assert code == EXIT_OK and err == ""
    assert json.loads(out_path.read_text())["config"]["alpha"] == 1e308


def test_rank_tokenizes_the_prefix_at_most_twice(capsys, monkeypatch, tmp_path):
    # One tokenization for the boundary warnings, one in the strategy: the
    # count must not grow with the candidate list.
    real = trierank.vocab.greedy_tokenize
    prefix_text = "items.get(key).value."
    calls = []

    def counting(text, vocab):
        if text.startswith(prefix_text):
            calls.append(text)
        return real(text, vocab)

    for name, module in list(sys.modules.items()):
        if name == "trierank" or name.startswith("trierank."):
            for attr, bound in list(vars(module).items()):
                if bound is real:
                    monkeypatch.setattr(module, attr, counting)
    vocab = tmp_path / "vocab.tsv"
    save_vocab(Vocabulary.from_texts(string.ascii_letters + string.digits + "._()"), vocab)
    prefix = tmp_path / "prefix.txt"
    prefix.write_text(prefix_text, encoding="utf-8")
    candidates = [f"item{i}" for i in range(60)]
    code, out, _ = run(
        capsys, "rank", "--backend", "mock:1", "--vocab", str(vocab), str(prefix), *candidates
    )
    assert code == EXIT_OK and len(json.loads(out)["ranking"]) == 60
    assert 1 <= len(calls) <= 2


def test_console_script_entry():
    result = subprocess.run(
        [sys.executable, "-m", "trierank.cli", "rank", *BASE, f"{FIX}/prefix.txt", "add", "clear"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["ranking"]


def test_cli_import_leaves_the_remote_client_unloaded():
    """``trierank.remote`` (http.client, http.server) loads only for a ``remote:`` backend."""
    code = "import sys, trierank.cli; assert 'trierank.remote' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


def test_cold_cli_rank_of_the_largest_rank_32k_point_equals_rank(tmp_path):
    """A cold CLI rank of the largest seed-1 rank-32k point: one process loads
    the 32k vocabulary, builds its tables on first use and ranks 986
    candidates. Every character is a one-character token there, so rank()
    builds its trie on demand, which no fixture run of the CLI does. Its
    record must equal the one a library rank() gives on the same point."""
    vocab_path, points_path = bench_inputs().write_inputs("rank-32k", 1, tmp_path)
    lines = points_path.read_text(encoding="utf-8").splitlines()
    point = max(map(json.loads, lines), key=lambda p: len(p["candidates"]))
    prefix_path, candidates_path = tmp_path / "prefix.txt", tmp_path / "candidates.txt"
    prefix_path.write_text(point["prefix"], encoding="utf-8")
    candidates_path.write_text("\n".join(point["candidates"]) + "\n", encoding="utf-8")
    cli = subprocess.run(
        [sys.executable, "-m", "trierank.cli", "rank", "--backend", "mock:1", "--no-timing",
         "--vocab", str(vocab_path), "--candidates-file", str(candidates_path), str(prefix_path)],
        capture_output=True, check=True, text=True,
    )
    vocab = Vocabulary.load(vocab_path)
    prefix = greedy_tokenize(point["prefix"], vocab)
    ranked, stats = rank(SeededBackend(vocab.size, 1), prefix, point["candidates"], vocab)
    ranking = [r.identifier for r in ranked]
    expected = ranking_record("treeranker", point["candidates"], ranking, stats)
    assert len(point["candidates"]) == 986
    assert json.loads(cli.stdout) == expected, "the CLI and rank() disagree"
    warnings = cli.stderr.splitlines()
    assert len(warnings) == 867 and all("is unreachable as tokenized" in w for w in warnings)
