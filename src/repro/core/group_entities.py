"""The Group-Entities operator (paper §6.3).

Groups a deduplicated result into a single record per entity cluster —
the "hyper-entity" whose attribute values concatenate the distinct values
of its members — placed directly before the final Project.

Two shapes of input exist:

* **single-table** (SP queries): one :class:`~repro.core.result.DedupResult`;
  each duplicate cluster becomes one grouped row.
* **joined** (SPJ queries): rows that concatenate fields of several
  bindings; the group key is the tuple of cluster representatives
  (:meth:`~repro.er.linkset.LinkSet.representative`), one per binding,
  so a left-cluster × right-cluster combination fuses into exactly one
  output row (``DedupQueryExecutor._group`` in :mod:`repro.core.planner`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core.result import DedupResult, merge_values


def group_single(result: DedupResult) -> List[Dict[str, Any]]:
    """Group a single-table DR_E into fused attribute dictionaries.

    Returns one dict per cluster (column name → merged value), sorted by
    the cluster representative for determinism.
    """
    table = result.table
    grouped: List[Tuple[Any, Dict[str, Any]]] = []
    for cluster in result.clusters():
        rows = [table.by_id(entity_id) for entity_id in cluster]
        fused = {
            name: merge_values([row[name] for row in rows])
            for name in table.schema.names
        }
        grouped.append((min(cluster, key=repr), fused))
    grouped.sort(key=lambda pair: repr(pair[0]))
    return [fused for _, fused in grouped]
