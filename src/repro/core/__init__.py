"""QueryER core: the analysis-aware deduplication framework.

The public surface of the paper's contribution: the engine facade, the
Deduplicate operator, Group-Entities, the per-table indices and the
cost-based planner, whose executor runs the Deduplicate-Join
(Algs. 1–2) over its join state.
"""

from repro.core.engine import QueryEREngine
from repro.core.planner import (
    DedupQueryPlan,
    DedupQueryPlanner,
    DedupPlanningError,
    ExecutionMode,
)
from repro.core.dedup_operator import DeduplicateOperator, DedupStats
from repro.core.indices import LinkIndex, TableIndex
from repro.core.result import DedupResult, merge_values
from repro.core.statistics import ComparisonEstimator
from repro.core.batch import batch_deduplicate
from repro.core.entity import Entity, EntityCollection

__all__ = [
    "QueryEREngine",
    "ExecutionMode",
    "DedupQueryPlan",
    "DedupQueryPlanner",
    "DedupPlanningError",
    "DeduplicateOperator",
    "DedupStats",
    "LinkIndex",
    "TableIndex",
    "DedupResult",
    "merge_values",
    "ComparisonEstimator",
    "batch_deduplicate",
    "Entity",
    "EntityCollection",
]
