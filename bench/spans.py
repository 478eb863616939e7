"""Spans for the traced benchmark run.

:func:`install` wraps trierank's public functions from the benchmark's side:
every module attribute that is bound to a wrapped function is rebound to a
timing wrapper, so calls made inside the package are timed too. No file of
the program changes, and nothing is timed while ``Tracer.enabled`` is off.

A span is ``[name, start_ns, end_ns, parent, point, value]``; ``value``
carries a size measured at that boundary (characters tokenized, mask size,
entries returned, nodes built). Spans stay in memory and are written out
once, after the run. A span's self time is its duration minus its
children's: calls on one thread nest strictly, and the loopback server's
span is the child of the client request that is waiting for it.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from statistics import median

import trierank
import trierank.evaluate
from trierank.remote import RemoteBackend
from trierank.tree import CompletionTree

NAME, START, END, PARENT, POINT, VALUE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.enabled = False
        self.point: str | None = None
        self.timed_from = 0
        self._stack: list[int] = []
        self._main = threading.get_ident()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.point, 0])
        # Only the client thread nests; the loopback server thread runs while
        # the client waits, so its spans hang off the open client span.
        if threading.get_ident() == self._main:
            self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        if threading.get_ident() == self._main:
            self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    def start_timed_phase(self) -> None:
        self.timed_from = len(self.spans)
        self.counts.clear()

    def wrap(self, name, fn, value=None):
        """Time ``fn`` as span ``name`` (a string, or a function of the
        call's arguments); ``value(args, result)`` sizes the call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if value is not None:
                tracer.spans[idx][VALUE] = value(args, result)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, point, value in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
                         "point": point, "value": value}
                    )
                    + "\n"
                )


def _rebind(original, wrapper) -> None:
    """Point every trierank module attribute bound to ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if name == "trierank" or name.startswith("trierank."):
            for attr, bound in list(vars(module).items()):
                if bound is original:
                    setattr(module, attr, wrapper)


def _masked(args, kwargs) -> str:
    mask = args[2] if len(args) > 2 else kwargs.get("mask")
    return "backend.masked" if mask is not None else "backend.unmasked"


def _node_count(args, tree) -> int:
    return sum(1 for _ in tree.walk())


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the per-layer metrics name."""
    functions = [
        ("vocab.tokenize", trierank.vocab.greedy_tokenize, lambda a, r: len(a[0])),
        ("vocab.subtoken_map", trierank.vocab.build_subtoken_map, None),
        ("dataset.load", trierank.dataset.load_dataset, None),
        # Counting nodes walks the whole trie; its own span keeps that walk
        # out of the self time of the span that called build_tree.
        ("tree.build", trierank.tree.build_tree, tracer.wrap("trace.node_count", _node_count)),
        ("ranking.mask", trierank.ranking.build_allowed_set, lambda a, r: len(r.allowed)),
        ("ranking.record", trierank.ranking.record_step, None),
        ("ranking.rank", trierank.ranking.rank, None),
        (_masked, trierank.backend.next_distribution, lambda a, r: len(r.probs)),
        ("baselines.beam_all", trierank.baselines.beam_all, None),
        ("baselines.beam_search", trierank.baselines.beam_search, None),
        ("baselines.greedy", trierank.baselines.greedy_complete, None),
        ("evaluate", trierank.evaluate.evaluate, None),
    ]
    for name, fn, value in functions:
        _rebind(fn, tracer.wrap(name, fn, value))
    load = trierank.vocab.Vocabulary.__dict__["load"].__func__
    trierank.vocab.Vocabulary.load = classmethod(tracer.wrap("vocab.load", load))
    CompletionTree.split_on_subtoken = tracer.wrap("tree.split", CompletionTree.split_on_subtoken)
    CompletionTree.main_token_push = tracer.wrap(
        "tree.push_probe", CompletionTree.main_token_push, lambda a, r: int(r is not None)
    )
    RemoteBackend.next_distribution = tracer.wrap("remote.request", RemoteBackend.next_distribution)


class HostedBackend(trierank.ModelBackend):
    """The backend the loopback server hosts, timed as ``remote.server``."""

    def __init__(self, inner, tracer: Tracer):
        self._call = tracer.wrap("remote.server", inner.next_distribution)

    def next_distribution(self, context, allowed=None, query=None):
        return self._call(context, allowed, query)


def trace_server(server, tracer: Tracer) -> None:
    """Count connections and body bytes at the loopback server's handler."""
    base = server.RequestHandlerClass

    class CountingHandler(base):
        def setup(self):
            tracer.count("remote.connections")
            super().setup()

        def do_POST(self):
            tracer.count("remote.request_bytes", int(self.headers.get("Content-Length", 0)))
            super().do_POST()

        def send_header(self, keyword, value):
            if keyword == "Content-Length":
                tracer.count("remote.response_bytes", int(value))
            super().send_header(keyword, value)

    server.RequestHandlerClass = CountingHandler


def _self_times(spans) -> list[int]:
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(tracer: Tracer, points: int) -> dict[str, float]:
    """Per-layer metrics of the timed phase; ``points`` is the number of
    strategy-points it completed. Durations are in ms."""
    own = _self_times(tracer.spans)
    dur: dict[str, float] = defaultdict(float)
    self_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    values: dict[str, float] = defaultdict(float)
    for i in range(tracer.timed_from, len(tracer.spans)):
        name, start, end, _, _, value = tracer.spans[i]
        dur[name] += (end - start) / 1e6
        self_ms[name] += own[i] / 1e6
        calls[name] += 1
        values[name] += value

    def per(total, n):
        return total / n if n else 0.0

    def setup_median(name):
        xs = [(s[END] - s[START]) / 1e6 for s in tracer.spans[: tracer.timed_from] if s[NAME] == name]
        return median(xs) if xs else 0.0

    backend_calls = calls["backend.masked"] + calls["backend.unmasked"]
    requests = calls["remote.request"]
    return {
        "vocab.load_ms": setup_median("vocab.load"),
        "vocab.tokenize_ms": per(dur["vocab.tokenize"], points),
        "vocab.tokenize_chars": per(values["vocab.tokenize"], points),
        "vocab.subtoken_map_ms": per(dur["vocab.subtoken_map"], points),
        "vocab.subtoken_map_builds": per(calls["vocab.subtoken_map"], points),
        "dataset.load_ms": setup_median("dataset.load"),
        "tree.build_ms": per(self_ms["tree.build"], points),
        "tree.nodes": per(values["tree.build"], calls["tree.build"]),
        "tree.splits": per(calls["tree.split"], points),
        "tree.pushes": per(values["tree.push_probe"], points),
        "tree.split_ms": per(dur["tree.split"], points),
        "ranking.mask_ms": per(dur["ranking.mask"], calls["ranking.mask"]),
        "ranking.mask_size": per(values["ranking.mask"], calls["ranking.mask"]),
        "ranking.record_ms": per(dur["ranking.record"], calls["ranking.record"]),
        "ranking.decode_self_ms": per(self_ms["ranking.rank"], points),
        "backend.calls.masked": per(calls["backend.masked"], points),
        "backend.calls.unmasked": per(calls["backend.unmasked"], points),
        "backend.call_ms.masked": per(dur["backend.masked"], calls["backend.masked"]),
        "backend.call_ms.unmasked": per(dur["backend.unmasked"], calls["backend.unmasked"]),
        "backend.entries_per_call": per(
            values["backend.masked"] + values["backend.unmasked"], backend_calls
        ),
        "baselines.beam_all_ms": per(self_ms["baselines.beam_all"], points),
        "baselines.beam_search_ms": per(self_ms["baselines.beam_search"], points),
        "baselines.greedy_ms": per(self_ms["baselines.greedy"], points),
        "evaluate.self_ms": per(self_ms["evaluate"], points),
        "remote.request_ms": per(dur["remote.request"], requests),
        "remote.server_ms": per(dur["remote.server"], requests),
        "remote.transport_ms": per(self_ms["remote.request"], requests),
        "remote.request_bytes": per(tracer.counts["remote.request_bytes"], requests),
        "remote.response_bytes": per(tracer.counts["remote.response_bytes"], requests),
        "remote.requests_per_point": per(requests, points),
        "remote.connections_per_point": per(tracer.counts["remote.connections"], points),
    }


def op_breakdown(tracer: Tracer) -> dict[str, dict]:
    """Per strategy: op count, mean ms per op, and the mean self time per op
    of every span name beneath it (these sum to the mean op time)."""
    own = _self_times(tracer.spans)
    root: list[int | None] = []
    out: dict[str, dict] = {}
    for i, span in enumerate(tracer.spans):
        if span[NAME].startswith("op."):
            root.append(i)
        else:
            root.append(root[span[PARENT]] if span[PARENT] is not None else None)
        r = root[i]
        if r is None or i < tracer.timed_from:
            continue
        entry = out.setdefault(
            tracer.spans[r][NAME][3:], {"ops": 0, "total_ms": 0.0, "self_ms": defaultdict(float)}
        )
        if r == i:
            entry["ops"] += 1
            entry["total_ms"] += (span[END] - span[START]) / 1e6
        entry["self_ms"][span[NAME]] += own[i] / 1e6
    for entry in out.values():
        entry["mean_ms"] = entry["total_ms"] / entry["ops"]
        entry["self_ms"] = {k: v / entry["ops"] for k, v in sorted(entry["self_ms"].items())}
    return out
