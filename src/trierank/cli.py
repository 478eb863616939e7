"""Command-line interface.

Commands: ``rank`` (one completion point), ``eval`` (dataset report),
``stats`` (tree-manipulation statistics), ``compare`` (diff two reports).
``rank`` and ``eval`` run strategies through the harness's registry
(:func:`trierank.evaluate.strategy_adapter`), and ``eval`` and ``stats``
make one :func:`trierank.evaluate.evaluate` call.

Exit codes are stable: 0 success, 2 configuration error, 3 backend error
(including an ``eval`` where some strategy aborted). Configuration
precedence: command-line flags > ``--config`` JSON file > the library's
defaults (:class:`EvalConfig`, :class:`DecodeConfig`).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

from .backend import ModelBackend, SeededBackend, mock_backend_from_spec
from .dataset import LoadedDataset, load_dataset, point_from_record
from .errors import BackendUnavailable, ContextTooLong, TrierankError
from .evaluate import (
    EvalConfig,
    StrategyContext,
    evaluate,
    strategy_adapter,
    tree_statistics,
)
from .ranking import DecodeConfig, ranking_record
from .vocab import Vocabulary, boundary_merged, greedy_tokenize

EXIT_OK, EXIT_CONFIG, EXIT_BACKEND = 0, 2, 3


class ConfigError(TrierankError):
    """Bad command-line arguments or config file."""


@dataclass
class RunConfig:
    backend_spec: str | None
    vocab_path: str | None
    strategies: list[str]
    out: str | None
    include_timing: bool
    eval: EvalConfig


# Config-file keys and the JSON type each takes; each key is also the
# argparse dest of its flag. A boolean is not a number.
_TYPES = {
    "a string": lambda v: isinstance(v, str),
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a boolean": lambda v: isinstance(v, bool),
}
_FILE_KEYS = {
    "backend": "a string", "vocab": "a string", "out": "a string",
    "strategies": "a list of strings", "alpha": "a number", "first_token_ms": "a number",
    "max_steps": "an integer", "runs": "an integer", "jobs": "an integer",
    "unconstrained": "a boolean", "no_early_stop": "a boolean", "no_timing": "a boolean",
}


def read_text(path, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from None


def resolve_config(args) -> RunConfig:
    settings: dict = {}
    if args.config:
        try:
            raw = json.loads(read_text(args.config, "config file"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        for key, value in raw.items():
            if key not in _FILE_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            if not _TYPES[_FILE_KEYS[key]](value):
                raise ConfigError(f"config key {key!r} must be {_FILE_KEYS[key]}, not {value!r}")
        settings.update(raw)
    settings.update((k, getattr(args, k)) for k in _FILE_KEYS if getattr(args, k) is not None)

    def given(*keys) -> dict:
        return {k: settings[k] for k in keys if k in settings}

    decode = given("max_steps")
    if "unconstrained" in settings:
        decode["constrained"] = not settings["unconstrained"]
    if "no_early_stop" in settings:
        decode["early_stop"] = not settings["no_early_stop"]
    try:
        eval_config = EvalConfig(
            decode=DecodeConfig(**decode), **given("alpha", "runs", "first_token_ms", "jobs")
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    strategies = list(settings.get("strategies", ["treeranker"]))
    if not strategies:
        raise ConfigError("need at least one strategy")
    return RunConfig(
        backend_spec=settings.get("backend"),
        vocab_path=settings.get("vocab"),
        strategies=strategies,
        out=settings.get("out"),
        include_timing=not settings.get("no_timing", False),
        eval=eval_config,
    )


def load_vocab(config: RunConfig) -> Vocabulary:
    if not config.vocab_path:
        raise ConfigError("--vocab is required")
    try:
        return Vocabulary.load(config.vocab_path)
    except (OSError, UnicodeDecodeError, TrierankError) as exc:
        raise ConfigError(f"cannot load vocabulary: {exc}") from None


def build_backend(config: RunConfig, vocab: Vocabulary) -> ModelBackend:
    spec = config.backend_spec
    if not spec:
        raise ConfigError("--backend is required (mock:<path|seed> or remote:<endpoint>)")
    scheme, sep, rest = spec.partition(":")
    if not sep:
        raise ConfigError(f"malformed backend spec {spec!r}")
    if scheme == "mock":
        if rest.lstrip("-").isdigit():
            return SeededBackend(vocab.size, int(rest))
        try:
            return mock_backend_from_spec(rest, vocab)
        except (OSError, TrierankError) as exc:
            raise ConfigError(f"cannot load mock spec {rest}: {exc}") from None
    if scheme == "remote":
        # Imported here: http.client and http.server slow every cold start, mock ones too.
        from .remote import RemoteBackend

        return RemoteBackend(rest)
    raise ConfigError(f"unknown backend scheme {scheme!r}")


def load_points(path) -> LoadedDataset:
    try:
        dataset = load_dataset(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read dataset: {exc}") from None
    if not len(dataset):
        raise ConfigError(f"dataset {path} has no valid points")
    return dataset


def cmd_rank(args) -> int:
    config = resolve_config(args)
    if len(config.strategies) != 1:
        raise ConfigError("rank takes exactly one --strategy")
    strategy = config.strategies[0]
    adapter = strategy_adapter(strategy)
    vocab = load_vocab(config)
    backend = build_backend(config, vocab)
    prefix_text = read_text(args.prefix_file, "prefix file")
    candidates = list(args.candidates)
    if args.candidates_file:
        candidates += [
            line for line in read_text(args.candidates_file, "candidates file").splitlines() if line
        ]
    point, notes = point_from_record(
        {"id": "cli", "prefix": prefix_text, "candidates": candidates,
         "ground_truth": candidates[0] if candidates else ""}
    )
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    prefix = greedy_tokenize(prefix_text, vocab)
    for c in point.candidates:
        if boundary_merged(prefix, c, vocab):
            print(
                f"warning: candidate {c!r} is unreachable as tokenized — the vocabulary "
                "merges the dereference boundary into one token",
                file=sys.stderr,
            )

    with closing(backend):
        result = adapter(point, backend, StrategyContext(vocab, config.eval))
    record = ranking_record(strategy, point.candidates, result.ranking, result.decode)
    print(json.dumps(record, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_eval(args) -> int:
    config = resolve_config(args)
    vocab = load_vocab(config)
    with closing(build_backend(config, vocab)) as backend:
        dataset = load_points(args.dataset)
        report = evaluate(config.strategies, dataset, backend, vocab, config.eval)

    out = Path(config.out or "report.json")
    out.write_text(report.to_json(config.include_timing) + "\n", encoding="utf-8")
    table = report.table(config.include_timing)
    out.with_suffix(".txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    if report.warnings:
        print("\nwarnings:")
        for w in report.warnings:
            print(f"  {w}")
    print(f"\nreport written to {out}")
    return EXIT_OK if len(report.strategies) == len(set(config.strategies)) else EXIT_BACKEND


def cmd_stats(args) -> int:
    config = resolve_config(args)
    vocab = load_vocab(config)
    with closing(build_backend(config, vocab)) as backend:
        dataset = load_points(args.dataset)
        report = evaluate(["treeranker"], dataset, backend, vocab, config.eval)
    stats = tree_statistics(report.details["treeranker"])
    width = max(len(k) for k in stats)
    for key, value in stats.items():
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"{key:<{width}}  {shown}")
    if config.out:
        Path(config.out).write_text(
            json.dumps(stats, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return EXIT_OK


def cmd_compare(args) -> int:
    def load(path) -> dict:
        try:
            report = json.loads(read_text(path, "report"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"cannot read report {path}: {exc}") from None
        rows = report.get("strategies", {}) if isinstance(report, dict) else None
        if not isinstance(rows, dict) or not all(isinstance(r, dict) for r in rows.values()):
            raise ConfigError(f"report {path} does not map strategies to metric objects")
        return report

    a, b = load(args.report_a), load(args.report_b)
    strategies = sorted(set(a.get("strategies", {})) & set(b.get("strategies", {})))
    if not strategies:
        raise ConfigError("reports share no strategies")
    deltas: dict[str, dict[str, float]] = {}
    for name in strategies:
        row: dict[str, float] = {}
        for metric, left in a["strategies"][name].items():
            right = b["strategies"][name].get(metric)
            if isinstance(left, (int, float)) and isinstance(right, (int, float)):
                row[metric] = right - left
        deltas[name] = row
    for name in strategies:
        print(f"{name}:")
        for metric, delta in sorted(deltas[name].items()):
            print(f"  {metric:<22} {delta:+.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(deltas, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trierank", description="Rank code-completion candidates with a language model."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--backend", help="mock:<path|seed> or remote:<endpoint>")
        p.add_argument("--vocab", help="vocabulary file (<id>\\t<token> per line)")
        p.add_argument(
            "--strategy", action="append", dest="strategies", metavar="STRATEGY",
            help="repeatable; default treeranker",
        )
        p.add_argument("--alpha", type=float, help="length-penalty exponent for beamall")
        p.add_argument("--max-steps", type=int, dest="max_steps")
        p.add_argument("--unconstrained", action="store_true", default=None)
        p.add_argument("--no-early-stop", action="store_true", default=None, dest="no_early_stop")
        p.add_argument("--runs", type=int, help="timing repetitions per point")
        p.add_argument("--first-token-ms", type=float, dest="first_token_ms")
        p.add_argument("--jobs", type=int, help="evaluation worker pool size")
        p.add_argument("--out", help="output path")
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--no-timing", action="store_true", default=None, dest="no_timing")

    p_rank = sub.add_parser("rank", help="rank candidates for one completion point")
    common(p_rank)
    p_rank.add_argument("prefix_file", help="file holding the code context before the cursor")
    p_rank.add_argument("candidates", nargs="*", help="candidate identifiers")
    p_rank.add_argument("--candidates-file", dest="candidates_file")
    p_rank.set_defaults(func=cmd_rank)

    p_eval = sub.add_parser("eval", help="evaluate strategies over a JSONL dataset")
    common(p_eval)
    p_eval.add_argument("dataset")
    p_eval.set_defaults(func=cmd_eval)

    p_stats = sub.add_parser("stats", help="tree-manipulation statistics for treeranker")
    common(p_stats)
    p_stats.add_argument("dataset")
    p_stats.set_defaults(func=cmd_stats)

    p_cmp = sub.add_parser("compare", help="diff two report JSON files")
    p_cmp.add_argument("report_a")
    p_cmp.add_argument("report_b")
    p_cmp.add_argument("--out", help="output path for the deltas")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BackendUnavailable, ContextTooLong) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except TrierankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
