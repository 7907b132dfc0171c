"""``EXPLAIN`` support for the §7.2.1 planner.

:class:`~repro.core.planner.DedupQueryPlanner` picks which side of a
DEDUP query's first join to clean first from its comparison estimates,
and the engine caches its plans in an
:class:`~repro.core.epoch_cache.EpochCache`.  This package renders those
plans: :mod:`repro.optimizer.cost` extends the planner's estimates to
every binding of a join sequence, and :mod:`repro.optimizer.explain`
renders ``EXPLAIN`` / ``EXPLAIN ANALYZE`` from them.
"""

from repro.optimizer.cost import (
    DEFAULT_SELECTIVITY,
    BindingEstimate,
    CostModel,
    DedupOrderCost,
)
from repro.optimizer.explain import analyze_lines, explain_dedup, relational_plan_lines

__all__ = [
    "DEFAULT_SELECTIVITY",
    "BindingEstimate",
    "CostModel",
    "DedupOrderCost",
    "analyze_lines",
    "explain_dedup",
    "relational_plan_lines",
]
