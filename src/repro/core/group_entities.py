"""Group-Entities (paper §6.3) over one table's DR_E.

The operator itself is ``DedupQueryExecutor._group`` in
:mod:`repro.core.planner`, over the cluster-granular join state;
:func:`group_single` runs it on a single :class:`DedupResult` (the
benchmark's layer replay, ``bench/layers.py``, times it as
``group.single``).
"""

from __future__ import annotations

from typing import List

from repro.core.planner import DedupQueryExecutor, JoinState
from repro.core.result import DedupResult


def group_single(result: DedupResult) -> List[tuple]:
    """One fused tuple per cluster of *result*, in representative order."""
    every = (tuple(range(len(result.table.schema))),)
    return DedupQueryExecutor._group(JoinState.initial(result.table.name, result), every)
