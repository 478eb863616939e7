"""The three benchmark workloads.

Each is a closed loop: one client, one operation in flight. An operation is
a strategy-point, one strategy run on one completion point. A failed
operation (a ``TrierankError``) is counted and skipped by the checks; in
eval-2k it aborts ``evaluate()`` and so the run.

A workload exposes ``setup`` (what ``setup_s`` times), ``warm`` (one
untimed pass that fills the backend's context cache, so every timed round
is equally warm), ``round`` (one pass over all points), ``passes`` (backend
calls so far) and ``check`` (output problems, found after the timed phase).
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time
from dataclasses import dataclass, field

import trierank as tr
import trierank.evaluate as tr_eval
from trierank.remote import RemoteBackend, serve_backend

import oracle
import spans

EARLY_STOP_SAMPLE = 8  # about this many points per run are re-ranked with early stop off


class Ops:
    """Counts and times strategy-points; opens their root span when traced."""

    def __init__(self, tracer: spans.Tracer | None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.rank_s: list[float] = []

    def run(self, strategy: str, point_id: str, fn, *args):
        tracer = self.tracer
        if tracer is not None:
            tracer.point = f"{point_id}/{strategy}"
            idx = tracer.open("op." + strategy)
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args)
        except tr.TrierankError:
            self.failed += 1
            raise
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.close(idx)
            if strategy == "treeranker":
                self.rank_s.append(elapsed)


@dataclass
class Treeranked:
    """One treeranker answer, reduced to what the checks read."""

    ranking: list[str]
    keys: list[tuple[int, float]]
    steps: int
    splits: int

    @classmethod
    def from_ranked(cls, ranked, stats) -> "Treeranked":
        return cls([rc.identifier for rc in ranked], [rc.key for rc in ranked],
                   stats.steps_taken, stats.splits)

    @classmethod
    def from_traces(cls, candidates, ranking, stats) -> "Treeranked":
        index = {c: i for i, c in enumerate(candidates)}
        keys = [(len(t), t[-1]) for t in (stats.traces[index[c]] for c in ranking)]
        return cls(list(ranking), keys, stats.steps_taken, stats.splits)


def treeranker_problems(point, answer: Treeranked, vocab, max_steps) -> list[str]:
    nodes = oracle.internal_nodes(tr.build_tree(point.candidates, vocab))
    found = oracle.treeranker_problems(
        point.candidates, answer.ranking, answer.keys, answer.steps, answer.splits, nodes, max_steps
    )
    return [f"{point.id} treeranker: {p}" for p in found]


def early_stop_problems(points, backend, vocab, submap) -> list[str]:
    """Rankings must not change when early stop is turned off."""
    problems = []
    step = max(1, len(points) // EARLY_STOP_SAMPLE)
    for point in points[::step]:
        prefix = tr.greedy_tokenize(point.prefix, vocab)
        orders = [
            [rc.identifier for rc in tr.rank(
                backend, prefix, point.candidates, vocab, tr.DecodeConfig(early_stop=flag), submap
            )[0]]
            for flag in (True, False)
        ]
        if orders[0] != orders[1]:
            problems.append(f"{point.id}: ranking changes with early stop off")
    return problems


def beamall_problems(point, scores, raw, vocab, prefix_ids, alpha) -> list[str]:
    expected = oracle.path_walk_ranking(raw, prefix_ids, point.candidates, vocab.ids, alpha)
    got = [(s.identifier, s.sum_logprob) for s in scores]
    if got != expected:
        return [f"{point.id} beamall: ranking differs from the path-walk scorer"]
    return []


@dataclass
class State:
    vocab: tr.Vocabulary
    points: list
    backend: object
    extra: dict = field(default_factory=dict)


class Workload:
    def close(self, state: State) -> None:
        """Release what ``setup`` started."""


class RankWorkload(Workload):
    """rank-32k: library ``rank()`` per point without a subtoken map."""

    name = "rank-32k"

    def __init__(self, seed: int, tracer: spans.Tracer | None):
        self.seed = seed
        self.answers: dict[str, Treeranked] = {}
        self.reference: dict[str, Treeranked] = {}

    def setup(self, vocab_path, data_path) -> State:
        vocab = tr.Vocabulary.load(vocab_path)
        points = tr.load_dataset(data_path, strict=True).points
        backend = tr.CountingBackend(tr.SeededBackend(vocab.size, self.seed))
        return State(vocab, points, backend)

    def _rank(self, state: State, point, submap=None) -> Treeranked:
        prefix = tr.greedy_tokenize(point.prefix, state.vocab)
        ranked, stats = tr.rank(state.backend, prefix, point.candidates, state.vocab, submap=submap)
        return Treeranked.from_ranked(ranked, stats)

    def warm(self, state: State) -> None:
        # Shares one subtoken map; the decode, and so every backend context,
        # is the same as in the timed rounds, which build their own.
        state.extra["submap"] = tr.full_subtoken_map(state.vocab)
        for p in state.points:
            self.reference[p.id] = self._rank(state, p, state.extra["submap"])

    def round(self, state: State, ops: Ops) -> None:
        for p in state.points:
            with contextlib.suppress(tr.TrierankError):
                self.answers[p.id] = ops.run("treeranker", p.id, self._rank, state, p)

    def passes(self, state: State) -> int:
        return state.backend.calls

    def check(self, state: State) -> list[str]:
        problems = []
        for p in state.points:
            answer = self.answers.get(p.id)
            if answer is None:
                continue
            problems += treeranker_problems(p, answer, state.vocab, tr.DecodeConfig().max_steps)
            if answer != self.reference[p.id]:
                problems.append(f"{p.id}: ranking changes when a subtoken map is passed")
        problems += early_stop_problems(
            state.points, state.backend.inner, state.vocab, state.extra["submap"]
        )
        return problems


EVAL_STRATEGIES = ("treeranker", "beamall", "greedy", "beam5", "beam5f")


class EvalWorkload(Workload):
    """eval-2k: ``evaluate()`` over the dataset with five strategies."""

    name = "eval-2k"

    def __init__(self, seed: int, tracer: spans.Tracer | None):
        self.seed = seed
        self.config = tr_eval.EvalConfig(runs=1, jobs=1)
        self.report = None
        self.calls = 0
        self.answers: dict[str, Treeranked] = {}
        self.beamall: dict[str, list[str]] = {}

    def setup(self, vocab_path, data_path) -> State:
        vocab = tr.Vocabulary.load(vocab_path)
        points = tr.load_dataset(data_path, strict=True).points
        return State(vocab, points, tr.SeededBackend(vocab.size, self.seed))

    def warm(self, state: State) -> None:
        tr_eval.evaluate(EVAL_STRATEGIES, state.points, state.backend, state.vocab, self.config)

    def round(self, state: State, ops: Ops) -> None:
        adapter_for = tr_eval.strategy_adapter

        def timed_adapter(name):
            adapter = adapter_for(name)

            def run(point, backend, ctx):
                result = ops.run(name, point.id, adapter, point, backend, ctx)
                if name == "treeranker":
                    self.answers[point.id] = Treeranked.from_traces(
                        point.candidates, result.ranking, result.decode
                    )
                elif name == "beamall":
                    self.beamall[point.id] = result.ranking
                return result

            return run

        tr_eval.strategy_adapter = timed_adapter
        try:
            self.report = tr_eval.evaluate(
                EVAL_STRATEGIES, state.points, state.backend, state.vocab, self.config
            )
        finally:
            tr_eval.strategy_adapter = adapter_for
        self.calls += sum(d.backend_calls for ds in self.report.details.values() for d in ds)

    def passes(self, state: State) -> int:
        return self.calls

    def check(self, state: State) -> list[str]:
        problems = []
        report = self.report
        for name in EVAL_STRATEGIES:
            ranks = [d.rank for d in report.details[name]]
            rep = report.strategies[name]
            problems += oracle.metric_problems(name, ranks, rep.mrr, rep.recall)
        raw = state.backend.raw_distribution
        for p, detail in zip(state.points, report.details["beamall"]):
            prefix = tr.greedy_tokenize(p.prefix, state.vocab)
            expected = oracle.path_walk_ranking(
                raw, prefix.ids, p.candidates, state.vocab.ids, self.config.alpha
            )
            order = [ident for ident, _ in expected]
            if self.beamall[p.id] != order:
                problems.append(f"{p.id} beamall: ranking differs from the path-walk scorer")
            if detail.rank != order.index(p.ground_truth) + 1:
                problems.append(f"{p.id} beamall: rank {detail.rank} differs from the path-walk scorer")
        for p in state.points:
            problems += treeranker_problems(
                p, self.answers[p.id], state.vocab, self.config.decode.max_steps
            )
        problems += early_stop_problems(
            state.points, state.backend, state.vocab, tr.full_subtoken_map(state.vocab)
        )
        return problems


class RemoteWorkload(Workload):
    """remote-2k: ``rank()`` and ``beam_all()`` per point over loopback HTTP."""

    name = "remote-2k"

    def __init__(self, seed: int, tracer: spans.Tracer | None):
        self.seed = seed
        self.tracer = tracer
        self.answers: dict[tuple[str, str], object] = {}
        self.local: dict[tuple[str, str], object] = {}

    def setup(self, vocab_path, data_path) -> State:
        vocab = tr.Vocabulary.load(vocab_path)
        points = tr.load_dataset(data_path, strict=True).points
        local = tr.SeededBackend(vocab.size, self.seed)
        hosted = local if self.tracer is None else spans.HostedBackend(local, self.tracer)
        server, url = serve_backend(hosted, vocab)
        if self.tracer is not None:
            spans.trace_server(server, self.tracer)
        remote = tr.CountingBackend(RemoteBackend(url))
        submap = tr.full_subtoken_map(vocab)
        return State(vocab, points, remote, {"local": local, "server": server, "submap": submap})

    def close(self, state: State) -> None:
        # shutdown() returns once serve_forever() next wakes: after its 0.5 s
        # poll, or at once when a connection arrives. Connecting until it
        # returns closes the server in about a millisecond.
        server = state.extra["server"]
        stopper = threading.Thread(target=server.shutdown)
        stopper.start()
        while stopper.is_alive():
            with contextlib.suppress(OSError):
                socket.create_connection(server.server_address[:2], timeout=1).close()
            stopper.join(0.001)
        server.server_close()

    def _treeranker(self, state: State, backend, point):
        prefix = tr.greedy_tokenize(point.prefix, state.vocab)
        ranked, stats = tr.rank(
            backend, prefix, point.candidates, state.vocab, submap=state.extra["submap"]
        )
        return Treeranked.from_ranked(ranked, stats), stats

    def _beamall(self, state: State, backend, point):
        prefix = tr.greedy_tokenize(point.prefix, state.vocab)
        tree = tr.build_tree(point.candidates, state.vocab)
        return tr.beam_all(backend, tree, prefix)

    def warm(self, state: State) -> None:
        # The local answers fill the hosted backend's cache and are the
        # reference every remote answer must equal.
        local = state.extra["local"]
        for p in state.points:
            self.local[p.id, "treeranker"] = self._treeranker(state, local, p)
            self.local[p.id, "beamall"] = self._beamall(state, local, p)

    def round(self, state: State, ops: Ops) -> None:
        for p in state.points:
            with contextlib.suppress(tr.TrierankError):
                self.answers[p.id, "treeranker"] = ops.run(
                    "treeranker", p.id, self._treeranker, state, state.backend, p
                )
            with contextlib.suppress(tr.TrierankError):
                self.answers[p.id, "beamall"] = ops.run(
                    "beamall", p.id, self._beamall, state, state.backend, p
                )

    def passes(self, state: State) -> int:
        return state.backend.calls

    def check(self, state: State) -> list[str]:
        problems = []
        local = state.extra["local"]
        for p in state.points:
            if (p.id, "treeranker") not in self.answers or (p.id, "beamall") not in self.answers:
                continue
            for strategy in ("treeranker", "beamall"):
                if self.answers[p.id, strategy] != self.local[p.id, strategy]:
                    problems.append(f"{p.id} {strategy}: remote answer differs from the local one")
            answer, _ = self.answers[p.id, "treeranker"]
            problems += treeranker_problems(p, answer, state.vocab, tr.DecodeConfig().max_steps)
            prefix = tr.greedy_tokenize(p.prefix, state.vocab)
            problems += beamall_problems(
                p, self.answers[p.id, "beamall"], local.raw_distribution, state.vocab, prefix.ids, 1.0
            )
        problems += early_stop_problems(state.points, local, state.vocab, state.extra["submap"])
        return problems


WORKLOADS = {w.name: w for w in (RankWorkload, EvalWorkload, RemoteWorkload)}
