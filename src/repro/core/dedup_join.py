"""The Deduplicate-Join operator (paper §6.2, Algorithms 1 and 2).

A join that knows which of its inputs is dirty.  The dirty side is first
*reduced* — entities that cannot join any row of the already-clean side
are discarded (Alg. 1 line 4/9) — then deduplicated, and finally the two
resolved sets are joined cluster-wise: whenever any member of a left
cluster joins any member of a right cluster, the operator emits the
Cartesian product of the two clusters (Alg. 2), so Group-Entities can
fuse them into one row.

This class is the paper-faithful two-table operator and the recommended
programmatic API.  The query executor
(:class:`repro.core.planner.DedupQueryExecutor`) applies the same
algorithms through its :class:`~repro.core.planner.JoinState`
generalization, which chains them across multi-join plans.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.dedup_operator import DeduplicateOperator
from repro.core.result import DedupResult
from repro.sql.physical import ExecutionContext
from repro.storage.table import Row, Table


class JoinType(enum.Enum):
    """Which input of the Deduplicate-Join is dirty (Alg. 1)."""

    DIRTY_RIGHT = "dirty-right"
    DIRTY_LEFT = "dirty-left"
    CLEAN_BOTH = "clean-both"  # both inputs already DR_E (NES plans)


def _join_value(value: Any) -> Any:
    """Case-folded join key so dirty string variants still hash-join."""
    if isinstance(value, str):
        return value.lower()
    return value


class JoinedDedupResult:
    """Output of the Deduplicate-Join: joined rows + both DR_E sets.

    ``rows`` concatenate the left and right base-table values; the
    operator's output is structure-preserving so further joins or
    Group-Entities can consume it (§6.2 "case-independent output").
    """

    def __init__(
        self,
        left: DedupResult,
        right: DedupResult,
        rows: List[Tuple[Row, Row]],
    ):
        self.left = left
        self.right = right
        self.rows = rows

    def value_tuples(self) -> List[tuple]:
        """Joined rows as flat value tuples (left fields ++ right fields)."""
        return [l.values + r.values for l, r in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"JoinedDedupResult({len(self.rows)} rows, L={self.left!r}, R={self.right!r})"


class DeduplicateJoinOperator:
    """Alg. 1: orient, reduce and resolve the dirty side, then Alg. 2."""

    def __init__(
        self,
        left_table: Table,
        right_table: Table,
        left_column: str,
        right_column: str,
        dedup_factory,
    ):
        """``dedup_factory(table) -> DeduplicateOperator`` supplies the
        per-table Deduplicate pipeline (the operator embeds one, §6.2)."""
        self.left_table = left_table
        self.right_table = right_table
        self.left_column = left_column
        self.right_column = right_column
        self._dedup_factory = dedup_factory

    # -- Algorithm 1 -----------------------------------------------------
    def execute(
        self,
        join_type: JoinType,
        left: Any,
        right: Any,
        context: Optional[ExecutionContext] = None,
    ) -> JoinedDedupResult:
        """Run the operator.

        For ``DIRTY_RIGHT``, *left* is a clean :class:`DedupResult` and
        *right* an iterable of dirty QE ids (and vice versa for
        ``DIRTY_LEFT``); for ``CLEAN_BOTH`` both are clean results.
        """
        context = context or ExecutionContext()
        if join_type is JoinType.DIRTY_RIGHT:
            left_dr: DedupResult = left
            reduced = self._discard_non_joining(
                dirty_ids=set(right),
                dirty_table=self.right_table,
                dirty_column=self.right_column,
                clean=left_dr,
                clean_column=self.left_column,
            )
            right_dr = self._dedup_factory(self.right_table).deduplicate(reduced, context)
        elif join_type is JoinType.DIRTY_LEFT:
            right_dr = right
            reduced = self._discard_non_joining(
                dirty_ids=set(left),
                dirty_table=self.left_table,
                dirty_column=self.left_column,
                clean=right_dr,
                clean_column=self.right_column,
            )
            left_dr = self._dedup_factory(self.left_table).deduplicate(reduced, context)
        elif join_type is JoinType.CLEAN_BOTH:
            left_dr, right_dr = left, right
        else:
            raise ValueError(f"unknown join type {join_type!r}")
        rows = self.join_operation(left_dr, right_dr, context)
        return JoinedDedupResult(left_dr, right_dr, rows)

    def _discard_non_joining(
        self,
        dirty_ids: Set[Any],
        dirty_table: Table,
        dirty_column: str,
        clean: DedupResult,
        clean_column: str,
    ) -> Set[Any]:
        """Alg. 1 line 4/9: keep only dirty entities that join the clean DR.

        The clean side contributes the join values of *all* its entities
        — duplicates included — which is exactly why one side must be
        resolved before the join (§6.2: satisfy "all possible variations
        of an entity's values").
        """
        clean_values = {
            _join_value(row[clean_column])
            for row in clean.rows()
            if row[clean_column] is not None
        }
        kept: Set[Any] = set()
        for entity_id in dirty_ids:
            value = dirty_table.by_id(entity_id)[dirty_column]
            if value is not None and _join_value(value) in clean_values:
                kept.add(entity_id)
        return kept

    # -- Algorithm 2 -------------------------------------------------------
    def join_operation(
        self,
        left_dr: DedupResult,
        right_dr: DedupResult,
        context: Optional[ExecutionContext] = None,
    ) -> List[Tuple[Row, Row]]:
        """Cluster-wise join of two resolved sets (Alg. 2).

        For every unvisited left entity, gather its duplicate set E_left,
        find every right entity some member joins with, expand each to
        its duplicates E_right, and emit E_left × E_right.
        """
        joined: List[Tuple[Row, Row]] = []
        # Hash the right DR rows by join value.
        right_rows = right_dr.rows()
        right_by_value: Dict[Any, List[Row]] = {}
        for row in right_rows:
            value = row[self.right_column]
            if value is None:
                continue
            right_by_value.setdefault(_join_value(value), []).append(row)

        left_rows = {row.id: row for row in left_dr.rows()}
        right_lookup = {row.id: row for row in right_rows}
        left_id_set = set(left_rows)
        right_id_set = set(right_lookup)
        visited: Set[Any] = set()

        for left_id in sorted(left_rows, key=repr):
            if left_id in visited:
                continue
            # E_left ← e ∪ duplicates(e), restricted to the left DR.
            e_left = {left_id} | (left_dr.links.cluster_of(left_id) & left_id_set)
            visited.update(e_left)
            # Collect joining right entities, expanded to their clusters.
            matched: Set[Any] = set()
            for member in e_left:
                value = left_rows[member][self.left_column]
                if value is None:
                    continue
                matched.update(
                    right_row.id for right_row in right_by_value.get(_join_value(value), ())
                )
            if not matched:
                continue
            e_right = matched | (right_dr.links.closure(matched) & right_id_set)
            for l_id in sorted(e_left, key=repr):
                for r_id in sorted(e_right, key=repr):
                    joined.append((left_rows[l_id], right_lookup[r_id]))
        return joined
