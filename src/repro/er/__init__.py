"""Entity-Resolution toolkit: blocking, meta-blocking, matching, metrics.

Implements the batch-ER machinery the paper builds on (Papadakis et al.'s
schema-agnostic Token Blocking and Meta-Blocking) plus the Jaro-Winkler
kernels, the profile matcher and the linksets (with their cluster
member index) used by Comparison-Execution.
"""

from repro.er.tokenizer import TokenVocabulary, tokenize_value, tokenize_entity
from repro.er.util import LRUCache, ordered_pair, safe_sorted
from repro.er.blocking import NGramBlocking, TokenBlocking
from repro.er.edge_pruning import BlockingGraph, WeightingScheme
from repro.er.meta_blocking import MetaBlockingConfig
from repro.er.similarity import jaro, jaro_fast, jaro_winkler_fast
from repro.er.matching import ProfileMatcher, SignatureColumns, SignatureRow
from repro.er.linkset import LinkSet
from repro.er.evaluation import pair_completeness, pairs_quality, f_measure

__all__ = [
    "TokenVocabulary",
    "tokenize_value",
    "tokenize_entity",
    "LRUCache",
    "ordered_pair",
    "safe_sorted",
    "NGramBlocking",
    "TokenBlocking",
    "BlockingGraph",
    "WeightingScheme",
    "MetaBlockingConfig",
    "jaro",
    "jaro_fast",
    "jaro_winkler_fast",
    "ProfileMatcher",
    "SignatureColumns",
    "SignatureRow",
    "LinkSet",
    "pair_completeness",
    "pairs_quality",
    "f_measure",
]
