"""Completion-point datasets: one JSON object per line.

Schema::

    {"id": str, "prefix": str, "candidates": [str], "ground_truth": str,
     "baselines": {name: [str]}?, "meta": {}?}

Points with an empty prefix or candidate, or whose ground truth is missing
from the candidate list (the benchmarks guarantee membership), are rejected;
duplicate candidates are dropped first-occurrence-wins. By default bad
lines become warnings with line numbers; ``strict=True`` raises instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError, SchemaError


@dataclass
class CompletionPoint:
    id: str
    prefix: str
    candidates: list[str]
    ground_truth: str
    baselines: dict[str, list[str]] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


@dataclass
class LoadedDataset:
    points: list[CompletionPoint]
    warnings: list[str]

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


def _string_list(value, fieldname: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise SchemaError(fieldname, "expected a list of strings")
    return value


def _object(record: dict, fieldname: str) -> dict:
    """An optional object field; only an absent or null one means empty."""
    value = record.get(fieldname)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise SchemaError(fieldname, "expected an object")
    return value


def point_from_record(record: dict) -> tuple[CompletionPoint, list[str]]:
    """Validate one parsed record; returns the point plus non-fatal notes."""
    if not isinstance(record, dict):
        raise SchemaError("<record>", "expected an object")
    notes: list[str] = []
    for name in ("id", "prefix", "ground_truth"):
        if name not in record:
            raise SchemaError(name, "missing")
        if not isinstance(record[name], str):
            raise SchemaError(name, "expected a string")
    if not record["prefix"]:
        raise SchemaError("prefix", "must be non-empty")
    if "candidates" not in record:
        raise SchemaError("candidates", "missing")
    raw = _string_list(record["candidates"], "candidates")
    if not raw:
        raise SchemaError("candidates", "must be non-empty")
    if "" in raw:
        raise SchemaError("candidates", f"candidate {raw.index('')} is an empty identifier")
    candidates: list[str] = []
    seen: set[str] = set()
    for c in raw:
        if c in seen:
            notes.append(f"duplicate candidate {c!r} dropped")
            continue
        seen.add(c)
        candidates.append(c)

    baselines = _object(record, "baselines")
    for name, ranking in baselines.items():
        _string_list(ranking, f"baselines.{name}")
    meta = _object(record, "meta")

    point = CompletionPoint(
        id=record["id"],
        prefix=record["prefix"],
        candidates=candidates,
        ground_truth=record["ground_truth"],
        baselines=baselines,
        meta=meta,
    )
    if point.ground_truth not in seen:
        raise SchemaError("ground_truth", "truth-not-in-candidates")
    return point, notes


def load_dataset(path, strict: bool = False) -> LoadedDataset:
    """Read a JSONL dataset; invalid lines are skipped with line-numbered
    warnings unless ``strict``."""
    points: list[CompletionPoint] = []
    warnings: list[str] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if strict:
                raise ParseError(lineno, str(exc)) from None
            warnings.append(f"line {lineno}: unparseable ({exc.msg})")
            continue
        try:
            point, notes = point_from_record(record)
        except SchemaError as exc:
            if strict:
                raise
            warnings.append(f"line {lineno}: rejected ({exc})")
            continue
        warnings.extend(f"line {lineno}: {n}" for n in notes)
        points.append(point)
    return LoadedDataset(points, warnings)
