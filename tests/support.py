"""Shared generators and scripted backends for the test suite."""

from __future__ import annotations

import functools
import importlib.util
import io
import json
import random
import sys
from pathlib import Path

from trierank import SeededBackend, Vocabulary, build_tree, greedy_tokenize
from trierank.backend import ModelBackend
from trierank.tree import CompletionTree

BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
LETTERS = "abcdef"
PUNCT = [".", "(", "\n"]


class ScriptedBackend(ModelBackend):
    """Tables keyed on the full context tuple, with a fallback backend."""

    def __init__(self, tables, fallback: ModelBackend):
        self.tables = {tuple(k): dict(v) for k, v in tables.items()}
        self.fallback = fallback

    def raw_distribution(self, context):
        table = self.tables.get(tuple(context))
        if table is not None:
            return table
        return self.fallback.raw_distribution(context)


def dump_tree(tree: CompletionTree) -> str:
    """Deterministic text rendering of ``tree`` for golden comparisons."""
    lines: list[str] = []
    stack = [(tree.root, None, 0)]
    while stack:
        node, edge, depth = stack.pop()
        label = "<root>" if edge is None else f"{tree.vocab.texts[edge]!r}({edge})"
        members = ",".join(str(m) for m in sorted(node.members))
        terminal = "" if node.terminal_for is None else f" terminal={node.terminal_for}"
        lines.append(f"{'  ' * depth}{label} members={{{members}}}{terminal}")
        stack.extend((node.children[t], t, depth + 1) for t in sorted(node.children, reverse=True))
    return "\n".join(lines)


@functools.cache
def bench_inputs():
    """The benchmark's seeded input generator, ``bench/inputs.py``, loaded by
    file path: its ``write_inputs(workload, seed, directory)`` writes the
    ``vocab.tsv`` and ``points.jsonl`` a benchmark run reads."""
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def save_vocab(vocab: Vocabulary, path) -> None:
    """Write ``vocab`` in the ``<id>\\t<token>`` format :meth:`Vocabulary.load` reads."""

    def escape(text: str) -> str:
        return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")

    lines = [f"{i}\t{escape(t)}" for i, t in enumerate(vocab.texts)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def random_vocab(rng: random.Random, max_tokens: int = 64) -> Vocabulary:
    texts = set(LETTERS) | set(PUNCT)
    budget = rng.randint(8, max_tokens - len(texts))
    attempts = 0
    while len(texts) < len(LETTERS) + len(PUNCT) + budget and attempts < 400:
        attempts += 1
        length = rng.randint(2, 5)
        texts.add("".join(rng.choice(LETTERS) for _ in range(length)))
    return Vocabulary.from_texts(sorted(texts))


def random_candidates(
    rng: random.Random,
    vocab: Vocabulary,
    max_candidates: int = 50,
    max_depth: int = 6,
    min_candidates: int = 2,
) -> list[str]:
    ident_tokens = [t for t in vocab.texts if t[0] in LETTERS]
    target = rng.randint(min_candidates, max_candidates)
    out: list[str] = []
    seen: set[str] = set()
    for _ in range(target * 8):
        k = rng.randint(1, max_depth)
        s = "".join(rng.choice(ident_tokens) for _ in range(k))
        if s in seen or len(greedy_tokenize(s, vocab)) > max_depth:
            continue
        seen.add(s)
        out.append(s)
        if len(out) == target:
            break
    assert len(out) >= min_candidates
    return out


def random_model(seed: int, max_candidates: int = 50):
    """One fuzz instance: vocabulary, candidate list, prefix, backend."""
    rng = random.Random(seed)
    vocab = random_vocab(rng)
    candidates = random_candidates(rng, vocab, max_candidates=max_candidates)
    prefix = greedy_tokenize("a.", vocab)
    backend = SeededBackend(vocab.size, seed)
    return vocab, candidates, prefix, backend


def branch_following_backend(
    rng: random.Random, vocab: Vocabulary, candidates: list[str], prefix_ids
) -> tuple[ScriptedBackend, list[int]]:
    """Backend whose full-vocabulary argmax at every tree node is a child token.

    Guarantees no subtoken selections and no off-tree exits, so constrained
    and unconstrained decodes follow the same path. Returns the backend plus
    the greedy-descent path (favored child per node, root to leaf).
    """
    tree = build_tree(candidates, vocab)
    tables: dict[tuple[int, ...], dict[int, float]] = {}
    descent: list[int] = []

    def visit(node, ctx, on_descent):
        if node.is_leaf:
            return
        children = sorted(node.children)
        favored = rng.choice(children)
        if on_descent:
            descent.append(favored)
        table = {favored: 0.6 + rng.random() * 0.4}
        for t in children:
            if t != favored:
                table[t] = 0.01 + rng.random() * 0.4
        for t in rng.sample(range(vocab.size), k=min(4, vocab.size)):
            table.setdefault(t, rng.random() * 0.3)
        total = sum(table.values())
        tables[tuple(ctx)] = {t: w / total for t, w in table.items()}
        for t in children:
            visit(node.children[t], ctx + [t], on_descent and t == favored)

    visit(tree.root, list(prefix_ids), True)
    return ScriptedBackend(tables, SeededBackend(vocab.size, 0)), descent


def descent_candidate(vocab: Vocabulary, candidates: list[str], descent: list[int]) -> int:
    """Candidate reached by following the favored children to a leaf."""
    tree = build_tree(candidates, vocab)
    node = tree.root
    for t in descent:
        node = node.children[t]
        if node.is_leaf:
            break
    assert node.terminal_for is not None or len(node.members) == 1
    if node.terminal_for is not None and node.is_leaf:
        return node.terminal_for
    return next(iter(node.members))


def garble(server, body: bytes) -> None:
    """Make ``server`` answer every request with ``body`` in place of its own
    answer, under the status the request would have got."""

    class Garbled(server.RequestHandlerClass):
        def _reply(self, code, _):
            self.send_response(code)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    server.RequestHandlerClass = Garbled


def count_connections(server) -> list:
    """The connections ``server`` accepts from now on, one entry each, counted
    at the handler's ``setup``."""
    opened = []

    class Counting(server.RequestHandlerClass):
        def setup(self):
            opened.append(self.client_address)
            super().setup()

    server.RequestHandlerClass = Counting
    return opened


def record_bodies(server) -> list:
    """The request bodies ``server`` reads from now on, parsed, in order of
    arrival; every body must carry a valid ``Content-Length``."""
    bodies = []

    class Recording(server.RequestHandlerClass):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            bodies.append(json.loads(body))
            rfile, self.rfile = self.rfile, io.BytesIO(body)
            try:
                super().do_POST()
            finally:
                self.rfile = rfile

    server.RequestHandlerClass = Recording
    return bodies
