"""Trie-guided ranking of static code-completion candidates.

Builds a prefix trie over the greedy token sequences of a candidate list,
performs one constrained greedy decode of a language-model backend across
it, collects token-level probabilities for every valid alternative, and
ranks candidates by scored depth and last probability. Ships beam-search
baselines and an offline evaluation harness (MRR, Recall@K, exact match,
token efficiency).
"""

from .backend import (
    CountingBackend,
    Distribution,
    LogitMask,
    MockBackend,
    ModelBackend,
    SeededBackend,
    mock_backend_from_spec,
    next_distribution,
)
from .baselines import BeamAllScore, beam_all, beam_search, filter_to_candidates, greedy_complete
from .dataset import CompletionPoint, LoadedDataset, load_dataset
from .errors import TrierankError
from .metrics import exact_match_rate, mrr, recall_at_k, token_efficiency
from .ranking import DecodeConfig, DecodeStats, RankedCompletion, rank, ranking_record
from .tree import CompletionTree, TreeNode, build_tree
from .vocab import TokenSeq, Vocabulary, full_subtoken_map, greedy_tokenize

__version__ = "0.1.0"
