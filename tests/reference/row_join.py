"""The row-combination reference for the Dedup-Join and Group-Entities.

:class:`~repro.core.planner.DedupQueryExecutor` keeps its join state at
cluster granularity: one entry per cluster combination, holding each
binding's rows of the cluster.  This oracle spells the same
specification one row combination at a time: the join state holds one
tuple of base-table rows per joined combination, the residual filters
combinations, and Group-Entities buckets combinations by their tuple of
cluster representatives and fuses every column of every bucket with
:func:`~repro.core.result.merge_values`.  :func:`reference_engine` is an
engine whose DEDUP statements run through it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Set, Tuple

from repro.core.engine import QueryEREngine
from repro.core.planner import (
    BindingInfo,
    DedupQueryExecutor,
    JoinStep,
)
from repro.core.result import DedupResult, merge_values
from repro.core.statistics import join_value
from repro.sql.physical import ExecutionContext
from repro.sql.planner import PlanningError
from repro.storage.table import Row


def _key_parts(rows: Sequence[Row], representative: Callable[[Any], Any]) -> List[str]:
    """Per row, the ``repr`` of its cluster representative — computed once
    per distinct row (rows by identity: a table holds one Row per entity)."""
    memo: Dict[int, str] = {}
    parts: List[str] = []
    for row in rows:
        part = memo.get(id(row))
        if part is None:
            part = memo[id(row)] = repr(representative(row.id))
        parts.append(part)
    return parts


class RowJoinState:
    """Accumulated joined rows: one base-table Row per bound binding."""

    def __init__(self, bindings: List[str], results: Dict[str, DedupResult], rows: List[Tuple[Row, ...]]):
        self.bindings = bindings
        self.results = results
        self.rows = rows

    @classmethod
    def initial(cls, binding: str, result: DedupResult) -> "RowJoinState":
        return cls([binding], {binding: result}, [(row,) for row in result.rows()])

    def binding_position(self, binding: str) -> int:
        for position, name in enumerate(self.bindings):
            if name.lower() == binding.lower():
                return position
        raise PlanningError(f"binding {binding!r} not in join state")

    def value_tuples(self) -> List[tuple]:
        return [sum((row.values for row in combo), ()) for combo in self.rows]


class RowJoinExecutor(DedupQueryExecutor):
    """The executor over :class:`RowJoinState`: every join, residual and
    grouping step works one row combination at a time."""

    join_state = RowJoinState

    def _filter(self, state: RowJoinState, predicate: Callable[[tuple], Any]) -> RowJoinState:
        keep = [
            combo
            for combo, values in zip(state.rows, state.value_tuples())
            if predicate(values)
        ]
        return RowJoinState(state.bindings, state.results, keep)

    def _join_dirty(
        self,
        state: RowJoinState,
        step: JoinStep,
        right_info: BindingInfo,
        context: ExecutionContext,
    ) -> RowJoinState:
        """Reduce the incoming dirty side by the accumulated rows, dedup it,
        then perform the clean-clean cluster join."""
        position = state.binding_position(step.left_binding)
        left_column = step.left_column
        with context.timed("other"):
            accumulated_values = {
                join_value(combo[position][left_column])
                for combo in state.rows
                if combo[position][left_column] is not None
            }
            reduced = {
                row.id
                for row in right_info.qe_rows()
                if row[step.right_column] is not None
                and join_value(row[step.right_column]) in accumulated_values
            }
        right_dr = self.engine.dedup_operator(right_info.index).deduplicate(reduced, context)
        return self._join_clean(state, step, right_dr, right_info.binding, context)

    def _join_clean(
        self,
        state: RowJoinState,
        step: JoinStep,
        right_dr: DedupResult,
        right_binding: str,
        context: ExecutionContext,
    ) -> RowJoinState:
        """Generalized Alg. 2: cluster-wise join of the accumulated state
        with a resolved right side."""
        with context.timed("other"):
            position = state.binding_position(step.left_binding)
            left_result = state.results[state.bindings[position]]

            right_rows = right_dr.rows()
            right_lookup = {row.id: row for row in right_rows}
            right_id_set = set(right_lookup)
            right_by_value: Dict[Any, List[Row]] = {}
            for row in right_rows:
                value = row[step.right_column]
                if value is None:
                    continue
                right_by_value.setdefault(join_value(value), []).append(row)

            # Group accumulated combos by the left binding's cluster.
            representative = left_result.links.representative
            groups: Dict[Any, List[Tuple[Row, ...]]] = {}
            for combo in state.rows:
                groups.setdefault(representative(combo[position].id), []).append(combo)

            joined: List[Tuple[Row, ...]] = []
            for key in sorted(groups, key=repr):
                members = groups[key]
                matched: Set[Any] = set()
                for combo in members:
                    value = combo[position][step.left_column]
                    if value is None:
                        continue
                    matched.update(
                        right_row.id for right_row in right_by_value.get(join_value(value), ())
                    )
                if not matched:
                    continue
                e_right = matched | (right_dr.links.closure(matched) & right_id_set)
                for combo in members:
                    for right_id in sorted(e_right, key=repr):
                        joined.append(combo + (right_lookup[right_id],))

        results = dict(state.results)
        results[right_binding] = right_dr
        return RowJoinState(state.bindings + [right_binding], results, joined)

    def _group(self, state: RowJoinState, read: Any) -> List[tuple]:
        """Group-Entities: one fused tuple per cross-binding cluster key.

        The key is the ``repr`` of each binding's cluster representative.
        Each binding's distinct rows of a bucket are fused in first-seen
        order, which equals fusing every combo because
        :func:`merge_values` keeps a value's first occurrence.  Every
        column is fused, whichever of them (*read*) the tail reads.
        """
        keys = zip(
            *(
                _key_parts(rows, state.results[binding].links.representative)
                for binding, rows in zip(state.bindings, zip(*state.rows))
            )
        )
        buckets: Dict[tuple, List[Tuple[Row, ...]]] = {}
        for key, combo in zip(keys, state.rows):
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [combo]
            else:
                bucket.append(combo)
        grouped: List[tuple] = []
        for key in sorted(buckets):
            combos = buckets[key]
            fused: List[Any] = []
            for i in range(len(state.bindings)):
                # Rows by identity: combos hold the table's own Row objects.
                rows = {id(combo[i]): combo[i] for combo in combos}.values()
                fused.extend(merge_values(column) for column in zip(*(r.values for r in rows)))
            grouped.append(tuple(fused))
        return grouped


class _RowJoinEngine(QueryEREngine):
    def __init__(self, **kwargs: Any):
        super().__init__(**kwargs)
        self._executor = RowJoinExecutor(self)


def reference_engine(**kwargs: Any) -> QueryEREngine:
    """An engine whose DEDUP statements run through :class:`RowJoinExecutor`."""
    return _RowJoinEngine(**kwargs)
