"""Result structures of the ER operators.

``DedupResult`` is the paper's DR_E — the evaluated entities QE plus the
duplicates found for them (QE̅) and the linkset L_E.  Group-Entities
(``DedupQueryExecutor._group`` in :mod:`repro.core.planner`) fuses each
duplicate cluster's values with :func:`merge_values`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set

from repro.er.linkset import LinkSet
from repro.storage.table import Row, Table

#: Separator used when contradicting attribute values are concatenated
#: into a single grouped representation ("EDBT | International ...").
GROUP_SEPARATOR = " | "


class DedupResult:
    """DR_E: evaluated entities ∪ their duplicates, plus the linkset.

    Parameters
    ----------
    table:
        The base entity collection the ids refer to.
    query_ids:
        QE — entity ids evaluated by the query (post-WHERE).
    duplicate_ids:
        QE̅ — ids *not* evaluated by the query but duplicating some QE
        member.
    links:
        L_E over this result: its pairs are the pairs this Deduplicate
        matched, and the Link Index clusters it read are held as
        components of its member index (:meth:`LinkSet.join
        <repro.er.linkset.LinkSet.join>`), with no pairs.  Cluster reads
        (``representative``, ``closure``, ``entities``) see both.
    """

    def __init__(
        self,
        table: Table,
        query_ids: Iterable[Any],
        duplicate_ids: Iterable[Any] = (),
        links: Optional[LinkSet] = None,
    ):
        self.table = table
        self.query_ids: Set[Any] = set(query_ids)
        self.duplicate_ids: Set[Any] = set(duplicate_ids) - self.query_ids
        self.links: LinkSet = links if links is not None else LinkSet()

    @property
    def entity_ids(self) -> Set[Any]:
        """QE ∪ QE̅ — everything DR_E contains."""
        return self.query_ids | self.duplicate_ids

    def rows(self) -> List[Row]:
        """Materialize all DR_E rows from the base table, in table order."""
        return self.table.rows_of(self.entity_ids)

    def clusters(self) -> List[Set[Any]]:
        """Duplicate clusters over DR_E, singletons included, ordered by
        the ``repr`` of their representative.

        Every entity of DR_E appears in exactly one cluster; entities in
        one component of L_E's member index share a cluster.
        """
        representative = self.links.representative
        groups: Dict[str, Set[Any]] = {}
        for entity_id in self.entity_ids:
            groups.setdefault(repr(representative(entity_id)), set()).add(entity_id)
        return [groups[key] for key in sorted(groups)]

    def __len__(self) -> int:
        return len(self.entity_ids)

    def __repr__(self) -> str:
        return (
            f"DedupResult({self.table.name!r}, |QE|={len(self.query_ids)}, "
            f"|QE̅|={len(self.duplicate_ids)}, |L|={len(self.links)})"
        )


def merge_values(values: Iterable[Any]) -> Any:
    """Fuse attribute values of one cluster into a grouped value.

    Distinct non-null values are concatenated with :data:`GROUP_SEPARATOR`
    in sorted order — sorting makes the fused value independent of the
    order comparisons happened to run in, which is what lets a Dedupe
    Query and the Batch Approach produce byte-identical groups.  All-null
    clusters stay null (paper §6.3: nulls map to the empty value,
    replaced by existing ones when available).
    """
    first: Dict[str, Any] = {}  # distinct text → its first original value
    for value in values:
        if value is not None:
            first.setdefault(str(value), value)
    if not first:
        return None
    if len(first) == 1:
        # A single distinct value keeps its original type — only genuine
        # contradictions are rendered as concatenated text.
        return next(iter(first.values()))
    return GROUP_SEPARATOR.join(sorted(first))
