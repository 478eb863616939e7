"""Tree-guided greedy decode and candidate ranking.

One ranking request performs a single greedy decode: at each step the model
is queried once, the probabilities of every valid child continuation are
appended to the per-candidate score traces, and the decode follows the
argmax token down the tree. Selected tokens that are strict prefixes of
child tokens are resolved either by jumping to the unique matching child
(main-token push) or by restructuring the tree (split). The decode stops at
a leaf, when a single candidate remains (early stop), when the model emits
an identifier-ending token at a terminal node, when the unmasked argmax
leaves the tree (unconstrained mode), or at the step budget.

Candidates are ranked by how far their token path was scored, with the last
recorded probability breaking ties; fully equal keys keep the original
candidate order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .backend import LogitMask, ModelBackend, next_distribution
from .errors import EmptyCandidateList, EmptyMask, MissingChildProbability
from .tree import TreeNode, build_tree, unique_candidate
from .vocab import SubtokenMap, TokenSeq, Vocabulary, full_subtoken_map


@dataclass
class DecodeConfig:
    constrained: bool = True
    early_stop: bool = True
    max_steps: int = 16
    include_termination_mass: bool = True

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass
class DecodeStats:
    """Bookkeeping for one decode; serialized via :func:`ranking_record`."""

    steps_taken: int = 0
    early_stopped: bool = False
    splits: int = 0
    pushes: int = 0
    ground_truth_token_length: int | None = None
    off_tree_exit: bool = False
    # Engine extras, not part of the wire record.
    identified: int | None = None
    selected_tokens: list[int] = field(default_factory=list)
    committed_tokens: list[int] = field(default_factory=list)
    traces: list[tuple[float, ...]] = field(default_factory=list)


@dataclass(frozen=True)
class RankedCompletion:
    candidate: int
    identifier: str
    scored_len: int
    last_prob: float
    rank: int

    @property
    def key(self) -> tuple[int, float]:
        return (self.scored_len, self.last_prob)


class ScoreTraces:
    """Per-candidate sequences of scored token probabilities."""

    def __init__(self, n_candidates: int):
        self.probs: list[list[float]] = [[] for _ in range(n_candidates)]

    def append_for(self, members, p: float) -> None:
        for i in members:
            self.probs[i].append(p)

    def override_last(self, members, p: float) -> None:
        for i in members:
            self.probs[i][-1] = p

    def length(self, i: int) -> int:
        return len(self.probs[i])

    def last(self, i: int) -> float:
        return self.probs[i][-1]

    def trace(self, i: int) -> tuple[float, ...]:
        return tuple(self.probs[i])


def allowed_tokens(
    node: TreeNode, submap: SubtokenMap, vocab: Vocabulary, config: DecodeConfig
) -> frozenset[int]:
    """Tokens admissible at ``node``: child mains, their subtokens, and — at a
    terminal node, when configured — identifier-ending tokens."""
    allowed: set[int] = set(node.children)
    for t in node.children:
        allowed |= submap.subtokens_of(t)
    if node.terminal_for is not None and config.include_termination_mass:
        allowed |= vocab.termination_ids()
    return frozenset(allowed)


def build_allowed_set(
    node: TreeNode, submap: SubtokenMap, vocab: Vocabulary, config: DecodeConfig
) -> LogitMask:
    allowed = allowed_tokens(node, submap, vocab, config)
    if not allowed:
        raise EmptyMask("childless terminal node with termination handling off")
    return LogitMask(allowed)


def record_step(traces: ScoreTraces, node: TreeNode, dist) -> ScoreTraces:
    """Append each child edge's probability to the traces of its members."""
    for t in sorted(node.children):
        p = dist.probs.get(t)
        if p is None:
            raise MissingChildProbability(f"distribution lacks child token {t}")
        traces.append_for(node.children[t].members, p)
    return traces


def rank(
    backend: ModelBackend,
    prefix: TokenSeq,
    candidates: list[str],
    vocab: Vocabulary,
    config: DecodeConfig | None = None,
    submap: SubtokenMap | None = None,
) -> tuple[list[RankedCompletion], DecodeStats]:
    """Rank ``candidates`` for the context ``prefix`` with one greedy decode."""
    if not candidates:
        raise EmptyCandidateList("no candidates to rank")
    if len(prefix) == 0:
        raise ValueError("prefix must be non-empty")
    config = config or DecodeConfig()
    submap = submap or full_subtoken_map(vocab)
    tree = build_tree(candidates, vocab)
    traces = ScoreTraces(len(candidates))
    stats = DecodeStats()
    termination = vocab.termination_ids()
    context = list(prefix.ids)
    node = tree.root

    while stats.steps_taken < config.max_steps:
        if config.early_stop and stats.steps_taken > 0:
            sole = unique_candidate(node)
            # Stop only once the survivor already leads the ranking; after a
            # main-token push it may trail a sibling until its next token is
            # scored, and stopping then would not commute with running on.
            if sole is not None and _is_rank_maximal(sole, traces):
                stats.identified = sole
                stats.early_stopped = True
                break
        if node.is_leaf:
            stats.identified = node.terminal_for
            break

        if config.constrained:
            mask = build_allowed_set(node, submap, vocab, config)
            dist = next_distribution(backend, context, mask)
        else:
            # Unmasked; the admissible set is still queried so child
            # probabilities and any selected subtoken's mass are reported.
            dist = next_distribution(
                backend, context, query=allowed_tokens(node, submap, vocab, config)
            )
        record_step(traces, node, dist)
        stats.steps_taken += 1
        pick = dist.argmax
        stats.selected_tokens.append(pick)

        child = node.children.get(pick)
        if child is not None:
            context.append(pick)
            stats.committed_tokens.append(pick)
            node = child
            continue

        if (
            node.terminal_for is not None
            and config.include_termination_mass
            and pick in termination
        ):
            stats.identified = node.terminal_for
            break

        main = tree.main_token_push(node, pick, submap)
        if main is not None:
            stats.pushes += 1
            context.append(main)
            stats.committed_tokens.append(main)
            node = node.children[main]
            continue

        shared = [m for m in submap.mains_of(pick) if m in node.children]
        if len(shared) >= 2:
            node = tree.split_on_subtoken(node, pick)
            stats.splits += 1
            traces.override_last(node.members, dist.probs[pick])
            context.append(pick)
            stats.committed_tokens.append(pick)
            continue

        assert not config.constrained, "masked argmax must resolve within the tree"
        stats.off_tree_exit = True
        break

    ranked = rank_from_traces(traces, tree.identifiers)
    stats.traces = [traces.trace(i) for i in range(len(candidates))]
    return ranked, stats


def _is_rank_maximal(candidate: int, traces: ScoreTraces) -> bool:
    key = (traces.length(candidate), traces.last(candidate))
    for other in range(len(traces.probs)):
        if other == candidate:
            continue
        other_key = (traces.length(other), traces.last(other))
        if other_key > key or (other_key == key and other < candidate):
            return False
    return True


def rank_from_traces(traces: ScoreTraces, identifiers: list[str]) -> list[RankedCompletion]:
    keys = []
    for i in range(len(identifiers)):
        length = traces.length(i)
        assert length >= 1, "every candidate is scored at the first step"
        keys.append((length, traces.last(i)))
    # Stable descending sort: a longer scored path wins, equal lengths fall
    # back to the last probability, fully equal keys keep candidate order.
    order = sorted(range(len(identifiers)), key=lambda i: keys[i], reverse=True)
    return [
        RankedCompletion(i, identifiers[i], keys[i][0], keys[i][1], pos + 1)
        for pos, i in enumerate(order)
    ]


def ranking_record(
    strategy: str, candidates: list[str], ranking: list[str], stats: DecodeStats | None
) -> dict:
    """JSON-ready ranking output record.

    ``stats`` is a tree-ranker decode over ``candidates``; each entry's
    ranking key is read from its score trace. Strategies without a decode
    pass ``None`` and get ``null`` keys and statistics.
    """
    traces = dict(zip(candidates, stats.traces)) if stats is not None else {}
    entries = [
        {
            "identifier": ident,
            "rank": pos,
            "scored_len": len(traces[ident]) if ident in traces else None,
            "last_prob": traces[ident][-1] if ident in traces else None,
        }
        for pos, ident in enumerate(ranking, start=1)
    ]
    summary = dict.fromkeys(("steps", "early_stopped", "splits", "pushes", "off_tree_exit"))
    if stats is not None:
        summary.update(
            steps=stats.steps_taken,
            early_stopped=stats.early_stopped,
            splits=stats.splits,
            pushes=stats.pushes,
            off_tree_exit=stats.off_tree_exit,
        )
    return {"strategy": strategy, "ranking": entries, "stats": summary}
