"""Tree-guided greedy decode and candidate ranking.

One ranking request performs a single greedy decode: at each step the model
is queried once, the probabilities of every valid child continuation are
appended to the per-candidate score traces, and the decode follows the
argmax token down the tree. The tree places a node's candidates into its
children when the decode first reaches the node, so only the candidates of
visited nodes are tokenized, and only as far as the decode goes. Selected
tokens that are strict prefixes of child tokens are resolved either by
jumping to the unique matching child (main-token push) or by restructuring
the tree (split). The decode stops at a leaf; on a sole surviving candidate
once its trace leads the ranking (early stop), so that right after a
main-token push, where the survivor may still trail a sibling, it runs on
until the survivor's next token is scored; when the model emits an
identifier-ending token at a terminal node; when the unmasked argmax leaves
the tree (unconstrained mode); or at the step budget.

Candidates are ranked by how far their token path was scored, with the last
recorded probability breaking ties; fully equal keys keep the original
candidate order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .backend import LogitMask, ModelBackend, next_distribution
from .errors import MissingChildProbability, NotASharedPrefix
from .tree import CompletionTree, TreeNode
from .vocab import TokenSeq, Vocabulary, full_subtoken_map


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


def build_allowed_set(
    node: TreeNode, submap: tuple[tuple[int, ...], ...], vocab: Vocabulary, config: DecodeConfig
) -> LogitMask:
    """Tokens admissible at ``node``: child mains and their subtokens as explicit
    ids, and — at a terminal node, when configured — the vocabulary's shared
    class of identifier-ending tokens; if none, the mask raises :class:`EmptyMask`."""
    explicit: set[int] = set(node.children)
    for t in node.children:
        explicit.update(submap[t])
    terminal = node.terminal_for is not None and config.include_termination_mass
    return LogitMask(frozenset(explicit), vocab.termination_ids() if terminal else frozenset())


def record_step(traces: list[list[float]], node: TreeNode, dist) -> None:
    """Append each child edge's probability to the traces of its members."""
    for t, child in node.children.items():
        p = dist.probs.get(t)
        if p is None:
            raise MissingChildProbability(f"distribution lacks child token {t}")
        for i in child.members:
            traces[i].append(p)


def rank(
    backend: ModelBackend,
    prefix: TokenSeq,
    candidates: list[str],
    vocab: Vocabulary,
    config: DecodeConfig | None = None,
    submap: tuple[tuple[int, ...], ...] | None = None,
) -> tuple[list[RankedCompletion], DecodeStats]:
    """Rank ``candidates`` for ``prefix`` with one greedy decode; ``submap``
    defaults to the vocabulary's shared :func:`full_subtoken_map`. The tree
    checks the candidate list, and is expanded node by node as the decode
    reaches it; an empty prefix fails at the first query."""
    config = config or DecodeConfig()
    submap = full_subtoken_map(vocab) if submap is None else submap
    tree = CompletionTree(candidates, vocab)
    traces: list[list[float]] = [[] for _ in candidates]
    stats = DecodeStats()
    node = tree.root

    while stats.steps_taken < config.max_steps:
        if config.early_stop and stats.steps_taken > 0 and len(node.members) == 1:
            (sole,) = node.members
            # Stop only once the survivor already leads the ranking; after a
            # main-token push it may trail a sibling until its next token is
            # scored, and stopping then would not commute with running on.
            if _is_rank_maximal(sole, traces):
                stats.identified = sole
                stats.early_stopped = True
                break
        tree.expand(node)
        if node.is_leaf:
            stats.identified = node.terminal_for
            break

        mask = build_allowed_set(node, submap, vocab, config)
        context = prefix.ids + tuple(stats.committed_tokens)
        if config.constrained:
            dist = next_distribution(backend, context, mask)
        else:
            # Unmasked: the traces read only the explicit ids, so only they
            # are queried; the argmax comes with its own mass for a split, and
            # the termination class is only tested for membership.
            dist = next_distribution(backend, context, query=mask.ids, top_k=1)
        record_step(traces, node, dist)
        stats.steps_taken += 1
        pick = dist.argmax
        stats.selected_tokens.append(pick)

        child = node.children.get(pick)
        if child is not None:
            stats.committed_tokens.append(pick)
            node = child
            continue

        if pick in mask.termination:
            stats.identified = node.terminal_for
            break

        main = tree.main_token_push(node, pick, submap)
        if main is not None:
            stats.pushes += 1
            stats.committed_tokens.append(main)
            node = node.children[main]
            continue

        try:
            node = tree.split_on_subtoken(node, pick)
        except NotASharedPrefix:
            assert not config.constrained, "masked argmax must resolve within the tree"
            stats.off_tree_exit = True
            break
        stats.splits += 1
        for i in node.members:
            traces[i][-1] = dist.probs[pick]
        stats.committed_tokens.append(pick)

    ranked = rank_from_traces(traces, tree.identifiers)
    stats.traces = [tuple(trace) for trace in traces]
    return ranked, stats


def _ranking_key(trace: list[float] | tuple[float, ...]) -> tuple[int, float]:
    """A longer scored path ranks higher; equal lengths compare the last probability."""
    return (len(trace), trace[-1])


def _is_rank_maximal(candidate: int, traces: list[list[float]]) -> bool:
    # ``max`` keeps the first of equal keys, as the stable sort below does.
    return max(range(len(traces)), key=lambda i: _ranking_key(traces[i])) == candidate


def rank_from_traces(traces: list[list[float]], identifiers: list[str]) -> list[RankedCompletion]:
    assert all(traces), "every candidate is scored at the first step"
    keys = [_ranking_key(trace) for trace in traces]
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
    traces = stats.traces if stats is not None else ()
    keys = {c: _ranking_key(t) for c, t in zip(candidates, traces)}
    entries = [
        {"identifier": ident, "rank": pos, "scored_len": scored_len, "last_prob": last_prob}
        for pos, ident in enumerate(ranking, start=1)
        for scored_len, last_prob in [keys.get(ident, (None, None))]
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
