"""Seeded input generator for the benchmark workloads.

Everything here is a pure function of ``(workload, seed)``: the same pair
yields byte-identical vocabulary and dataset files. The vocabulary depends
on the workload alone; the seed draws the points. The trierank program
only ever sees the written files.

The vocabulary imitates a code BPE vocabulary: about half of its tokens
start with a space or punctuation, it holds whitespace and ``=`` runs up to
64 characters, camelCase pieces, and the BPE-style prefixes of longer
pieces (so strict-prefix subtokens, splits and pushes occur). Every
printable ASCII character is a token, so any generated text tokenizes.

Candidate lists are built from API-like prefix families (``add``,
``addAll``, ``addAllKeys``); sizes and prefix lengths are stratified over
their range and paired the same way for every seed, so every seed draws the
same size mix with different contents.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

CONSONANTS = "bcdfghklmnprstvwz"
VOWELS = "aeiou"
COMMON_STEMS = (
    "add", "get", "set", "put", "remove", "clear", "contains", "index", "to",
    "is", "has", "size", "length", "find", "load", "save", "read", "write",
    "open", "close", "start", "stop", "reset", "update", "create", "build",
    "parse", "format", "append", "insert", "pop", "push", "peek", "map",
    "filter", "reduce", "sort", "merge", "split", "join", "copy", "next",
)
COMMON_PIECES = (
    "All", "Key", "Keys", "Value", "Values", "Item", "Items", "Entry",
    "Entries", "First", "Last", "At", "If", "Absent", "Range", "String",
    "Int", "Long", "List", "Map", "Set", "Node", "Name", "Path", "File",
    "Count", "Index", "By", "From", "To", "Of", "Or", "Default", "Async",
)
OPERATORS = (
    "()", "();", ");", "(", ")", "->", "=>", "==", "!=", "<=", ">=", "&&",
    "||", "++", "--", "+=", "-=", "::", "...", "[]", "{}", "):", "),", "].",
    ").", "\"", "'", "\",", "':", "#", "//", "/*", "*/",
)
KEYWORDS = ("if", "else", "for", "while", "return", "def", "class", "self", "this", "new", "in")
# Leading characters that make a token an identifier terminator.
LEADERS = (" ", ".", "(", "[", "!", "\t", ",", " (")


@dataclass(frozen=True)
class Spec:
    vocab_size: int
    points: int
    candidates: tuple[int, int]  # inclusive range of list sizes
    prefix_chars: tuple[int, int]  # inclusive range of prefix lengths
    leader_share: float = 0.5  # share of word tokens given a leading space or punctuation


SPECS = {
    "rank-32k": Spec(32000, 100, (50, 1000), (3000, 6000)),
    # Fewer terminator tokens let free generation run past its first step,
    # so the reference strategies carry a fair share of the work.
    "eval-2k": Spec(2000, 56, (10, 200), (40, 400), leader_share=0.25),
    # Every beamall request returns the whole 2k table as JSON; short lists
    # keep a round of both strategies within seconds.
    "remote-2k": Spec(2000, 70, (5, 25), (2000, 4000)),
}


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(syllables)) + (
        rng.choice(CONSONANTS) if rng.random() < 0.5 else ""
    )


def make_vocab(size: int, rng: random.Random, leader_share: float = 0.5) -> list[str]:
    """Token texts of a BPE-like code vocabulary with exactly ``size`` tokens."""
    tokens: dict[str, None] = {}

    def add(text: str) -> None:
        if len(tokens) < size:
            tokens.setdefault(text, None)

    for code in range(32, 127):
        add(chr(code))
    add("\n")
    add("\t")
    for n in range(2, 65):
        add(" " * n)
        add("=" * n)
    for n in range(1, 33):
        add("\n" + " " * n)
    for op in OPERATORS:
        add(op)
    # A terminator wraps a piece in a leading space or punctuation; the rest
    # start with an identifier character.
    words = list(COMMON_STEMS) + [w.lower() for w in COMMON_PIECES] + list(KEYWORDS)
    while len(words) < size:
        words.append(_word(rng, rng.choice((1, 1, 2, 2, 3))))
    i = 0
    while len(tokens) < size:
        word = words[i % len(words)]
        i += 1
        piece = word if rng.random() < 0.5 else word[0].upper() + word[1:]
        if rng.random() >= leader_share:
            add(piece)
            # BPE keeps the merges that built a piece: its longer prefixes.
            if len(piece) > 3 and rng.random() < 0.3:
                add(piece[: rng.randint(2, len(piece) - 1)])
        else:
            add(rng.choice(LEADERS) + piece)
    return list(tokens)


def _stratified(rng: random.Random, lo: int, hi: int, n: int, log: bool = False) -> list[int]:
    """``n`` values covering ``[lo, hi]`` evenly (evenly in log scale with
    ``log``), one jittered draw per stratum, in stratum order."""
    out = []
    for k in range(n):
        u = (k + rng.random()) / n
        value = lo * (hi / lo) ** u if log else lo + (hi - lo) * u
        out.append(min(hi, max(lo, round(value))))
    return out


def _pieces(vocab: list[str]) -> tuple[list[str], list[str]]:
    lower = [t for t in vocab if t.isalpha() and t.islower() and len(t) >= 2]
    upper = [t for t in vocab if t.isalpha() and t[0].isupper() and len(t) >= 2]
    return lower, upper


def make_candidates(rng: random.Random, n: int, lower: list[str], upper: list[str]) -> list[str]:
    """``n`` distinct camelCase identifiers grouped into prefix families."""
    out: dict[str, None] = {}
    while len(out) < n:
        stem = rng.choice(lower) if rng.random() < 0.7 else rng.choice(COMMON_STEMS)
        family = [stem]
        for _ in range(rng.randint(1, 8)):
            base = rng.choice(family)
            family.append(base + rng.choice(upper if rng.random() < 0.6 else COMMON_PIECES))
        for ident in family:
            if len(out) < n:
                out.setdefault(ident, None)
    cands = list(out)
    rng.shuffle(cands)
    return cands


def make_prefix(rng: random.Random, chars: int, lower: list[str], upper: list[str]) -> str:
    """Code-like text of about ``chars`` characters ending in a dereference."""
    lines: list[str] = []
    total = 0
    depth = 1
    while total < chars:
        indent = " " * (4 * depth)
        kind = rng.random()
        name = rng.choice(lower)
        if kind < 0.08:
            line = "# " + "=" * rng.randint(8, 72)
        elif kind < 0.2:
            line = f"{indent}{rng.choice(KEYWORDS)} {name}{rng.choice(upper)} in {rng.choice(lower)}:"
            depth = min(depth + 1, 6)
        elif kind < 0.3:
            line = f"{indent}return {name}"
            depth = max(depth - 1, 1)
        else:
            call = rng.choice(lower) + rng.choice(upper)
            args = ", ".join(rng.choice(lower) for _ in range(rng.randint(0, 3)))
            pad = " " * rng.randint(1, 3)
            line = f"{indent}{name}{pad}= {rng.choice(lower)}.{call}({args})"
        lines.append(line)
        total += len(line) + 1
    receiver = rng.choice(lower)
    return "\n".join(lines) + "\n" + " " * (4 * depth) + receiver + "."


def generate(workload: str, seed: int) -> tuple[str, str]:
    """The vocabulary file text and dataset JSONL text for one workload."""
    spec = SPECS[workload]
    # The vocabulary stands for the model's tokenizer, so it is fixed per
    # workload; the seed draws the completion points (and, in the workloads,
    # the model's weights).
    vocab = make_vocab(spec.vocab_size, random.Random(f"{workload}:vocab"), spec.leader_share)
    rng = random.Random(f"{workload}:{seed}")
    lower, upper = _pieces(vocab)
    # Completion lists are heavy-tailed: many short lists, a few long ones.
    sizes = _stratified(rng, *spec.candidates, spec.points, log=True)
    lengths = _stratified(rng, *spec.prefix_chars, spec.points)
    # Which size stratum goes with which prefix-length stratum is fixed per
    # workload: a ranking's cost grows with both, and a pairing drawn per
    # seed spread eval-2k's median ranking time by 0.24 over ten seeds.
    pairing = list(range(spec.points))
    random.Random(f"{workload}:pairing").shuffle(pairing)
    order = list(range(spec.points))
    rng.shuffle(order)
    records = []
    for k, stratum in enumerate(order):
        cands = make_candidates(rng, sizes[stratum], lower, upper)
        records.append(
            {
                "id": f"{workload}-{seed}-{k}",
                "prefix": make_prefix(rng, lengths[pairing[stratum]], lower, upper),
                "candidates": cands,
                "ground_truth": rng.choice(cands),
            }
        )
    vocab_text = "".join(f"{i}\t{_escape(t)}\n" for i, t in enumerate(vocab))
    data_text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    return vocab_text, data_text


def _escape(text: str) -> str:
    # Same escapes as the vocabulary file format: backslash, tab, newline.
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def write_inputs(workload: str, seed: int, directory: Path) -> tuple[Path, Path]:
    """Write ``vocab.tsv`` and ``points.jsonl`` for ``(workload, seed)``."""
    vocab_text, data_text = generate(workload, seed)
    directory.mkdir(parents=True, exist_ok=True)
    vocab_path = directory / "vocab.tsv"
    data_path = directory / "points.jsonl"
    vocab_path.write_text(vocab_text, encoding="utf-8")
    data_path.write_text(data_text, encoding="utf-8")
    return vocab_path, data_path
