"""Volcano-style physical operators.

Every operator implements the Iterator Interface the paper names in
§7.2.2: ``open() → iterate rows → close()``, here expressed as Python
generators over plain value tuples.  The :class:`ExecutionContext`
carries cross-operator state: the executed-comparison counter and
per-stage timings.

An operator tree is built once per statement and cached with its plan,
so every operator keeps its per-run state local to :meth:`execute`.
:meth:`PhysicalOperator.pretty` renders the tree ``EXPLAIN`` and
``QueryResult.plan_description`` print.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.sql.expressions import MaskPredicate
from repro.sql.schema import PlanSchema
from repro.storage.table import Table


class ExecutionContext:
    """Mutable per-query execution state and instrumentation.

    Attributes
    ----------
    comparisons:
        Number of pairwise entity comparisons executed so far — the
        paper's primary cost metric (§9.1 "Comp.").
    stage_times:
        Wall-clock seconds per named stage (block-join, meta-blocking,
        resolution, group, other) for the Table 6 breakdown.
    """

    def __init__(self) -> None:
        self.comparisons = 0
        self.stage_times: Dict[str, float] = {}

    def add_time(self, stage: str, seconds: float) -> None:
        self.stage_times[stage] = self.stage_times.get(stage, 0.0) + seconds

    def timed(self, stage: str) -> "_StageTimer":
        """Context manager accumulating elapsed time into *stage*."""
        return _StageTimer(self, stage)


class _StageTimer:
    def __init__(self, context: ExecutionContext, stage: str):
        self._context = context
        self._stage = stage
        self._start = 0.0

    def __enter__(self) -> "_StageTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._context.add_time(self._stage, time.perf_counter() - self._start)


#: ``note(kind, binding)``: text ``EXPLAIN`` appends to an ER operator's
#: line (its estimates); relational operators take none.
Note = Callable[[str, str], str]


def no_note(kind: str, binding: str) -> str:
    return ""


class PhysicalOperator:
    """Base physical operator: an iterator of value tuples."""

    def __init__(self, schema: PlanSchema):
        self.schema = schema

    def execute(self, context: ExecutionContext) -> Iterator[tuple]:
        raise NotImplementedError

    @property
    def children(self) -> Tuple["PhysicalOperator", ...]:
        return ()

    def pretty(self, indent: int = 0, note: Note = no_note) -> str:
        """The indented tree, one line per operator (the paper's figures)."""
        line = "  " * indent + self.label()
        return "\n".join([line] + [c.pretty(indent + 1, note) for c in self.children])

    def label(self) -> str:
        raise NotImplementedError


class TableScanOp(PhysicalOperator):
    """Scan of a base table, keeping the rows its single-table WHERE
    (``where``, a compiled :class:`~repro.sql.expressions.MaskPredicate`)
    selects; rows are read when the scan runs."""

    def __init__(
        self,
        schema: PlanSchema,
        table: Table,
        binding: str,
        where: Optional[MaskPredicate] = None,
        description: str = "",
    ):
        super().__init__(schema)
        self.table = table
        self.binding = binding
        self.where = where
        self.description = description

    def execute(self, context: ExecutionContext) -> Iterator[tuple]:
        table = self.table
        with context.timed("other"):
            if self.where is None:
                materialized = [row.values for row in table]
            else:
                positions = self.where.positions(table).tolist()
                materialized = [table[position].values for position in positions]
        yield from materialized

    def pretty(self, indent: int = 0, note: Note = no_note) -> str:
        scan = f"TableScan[{self.table.name} AS {self.binding}]"
        if self.where is None:
            return "  " * indent + scan
        return "  " * indent + f"Filter[{self.description}]\n" + "  " * (indent + 1) + scan


class FilterOp(PhysicalOperator):
    """Predicate filter."""

    def __init__(self, child: PhysicalOperator, predicate: Callable[[tuple], bool], description: str = ""):
        super().__init__(child.schema)
        self.child = child
        self.predicate = predicate
        self.description = description

    @property
    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def execute(self, context: ExecutionContext) -> Iterator[tuple]:
        predicate = self.predicate
        for row in self.child.execute(context):
            if predicate(row):
                yield row

    def label(self) -> str:
        return f"Filter[{self.description}]"


class HashJoinOp(PhysicalOperator):
    """Hash equi-join on precompiled key extractors (inner join)."""

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_key: Callable[[tuple], Any],
        right_key: Callable[[tuple], Any],
        description: str,
    ):
        super().__init__(left.schema + right.schema)
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key
        self.description = description

    @property
    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def execute(self, context: ExecutionContext) -> Iterator[tuple]:
        buckets: Dict[Any, List[tuple]] = {}
        for row in self.right.execute(context):
            key = self.right_key(row)
            if key is None:
                continue
            buckets.setdefault(key, []).append(row)
        for left_row in self.left.execute(context):
            key = self.left_key(left_row)
            if key is None:
                continue
            for right_row in buckets.get(key, ()):
                yield left_row + right_row

    def label(self) -> str:
        return f"HashJoin[{self.description}]"


class NestedLoopJoinOp(PhysicalOperator):
    """Fallback join for non-equi conditions."""

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        predicate: Callable[[tuple], bool],
        description: str,
    ):
        super().__init__(left.schema + right.schema)
        self.left = left
        self.right = right
        self.predicate = predicate
        self.description = description

    @property
    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def execute(self, context: ExecutionContext) -> Iterator[tuple]:
        right_rows = list(self.right.execute(context))
        predicate = self.predicate
        for left_row in self.left.execute(context):
            for right_row in right_rows:
                combined = left_row + right_row
                if predicate(combined):
                    yield combined

    def label(self) -> str:
        return f"NestedLoopJoin[{self.description}]"


class ProjectOp(PhysicalOperator):
    """Expression projection to the output schema; ``description`` is the
    select list as written."""

    def __init__(
        self,
        child: PhysicalOperator,
        schema: PlanSchema,
        evaluators: Sequence[Callable[[tuple], Any]],
        description: str,
    ):
        super().__init__(schema)
        self.child = child
        self.evaluators = list(evaluators)
        self.description = description

    @property
    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def execute(self, context: ExecutionContext) -> Iterator[tuple]:
        evaluators = self.evaluators
        for row in self.child.execute(context):
            yield tuple(fn(row) for fn in evaluators)

    def label(self) -> str:
        return f"Project[{self.description}]"


class HashAggregateOp(PhysicalOperator):
    """Hash aggregation over the child's rows.

    ``output_plan`` describes each output column: ``("key", i)`` takes
    the i-th group-key value, ``("agg", i)`` the i-th aggregate result.
    ``description`` is the select list and GROUP BY keys as written.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        schema: PlanSchema,
        key_fns: Sequence[Callable[[tuple], Any]],
        calls,
        output_plan: Sequence[Tuple[str, int]],
        description: str,
    ):
        super().__init__(schema)
        self.child = child
        self.key_fns = list(key_fns)
        self.calls = list(calls)
        self.output_plan = list(output_plan)
        self.description = description

    @property
    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def execute(self, context: ExecutionContext) -> Iterator[tuple]:
        from repro.sql.aggregates import run_aggregation

        rows = list(self.child.execute(context))
        for key, results in run_aggregation(rows, self.key_fns, self.calls):
            out = []
            for kind, index in self.output_plan:
                out.append(key[index] if kind == "key" else results[index])
            yield tuple(out)

    def label(self) -> str:
        return f"Aggregate[{self.description}]"


class SortOp(PhysicalOperator):
    """ORDER BY with None-first semantics per key; ``description`` is the
    ORDER BY list as written."""

    def __init__(
        self,
        child: PhysicalOperator,
        keys: Sequence[Tuple[Callable[[tuple], Any], bool]],
        description: str,
    ):
        super().__init__(child.schema)
        self.child = child
        self.keys = list(keys)
        self.description = description

    @property
    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def execute(self, context: ExecutionContext) -> Iterator[tuple]:
        rows = list(self.child.execute(context))
        # Stable multi-key sort: apply keys right-to-left.
        for key_fn, ascending in reversed(self.keys):
            rows.sort(
                key=lambda row: _sort_key(key_fn(row)),
                reverse=not ascending,
            )
        yield from rows

    def label(self) -> str:
        return f"Sort[{self.description}]"


def _sort_key(value: Any) -> tuple:
    """Total order over heterogeneous values: None first, then by type."""
    if value is None:
        return (0, "", "")
    if isinstance(value, (int, float)):
        return (1, float(value), "")
    return (2, 0.0, str(value))


class LimitOp(PhysicalOperator):
    """Stop after *count* rows."""

    def __init__(self, child: PhysicalOperator, count: int):
        super().__init__(child.schema)
        self.child = child
        self.count = count

    @property
    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def execute(self, context: ExecutionContext) -> Iterator[tuple]:
        remaining = self.count
        if remaining <= 0:
            return
        for row in self.child.execute(context):
            yield row
            remaining -= 1
            if remaining == 0:
                return

    def label(self) -> str:
        return f"Limit[{self.count}]"


class DistinctOp(PhysicalOperator):
    """Duplicate-row elimination preserving first-seen order."""

    def __init__(self, child: PhysicalOperator):
        super().__init__(child.schema)
        self.child = child

    @property
    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def execute(self, context: ExecutionContext) -> Iterator[tuple]:
        seen = set()
        for row in self.child.execute(context):
            if row not in seen:
                seen.add(row)
                yield row

    def label(self) -> str:
        return "Distinct"
