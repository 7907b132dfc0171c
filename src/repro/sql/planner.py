"""Relational (non-ER) query planning.

Converts a parsed :class:`~repro.sql.ast.SelectQuery` into a logical plan
with the standard heuristics the paper assumes as its starting point
(§7.2.1: "the best non ER-enabled query plan ... is given"): filters are
pushed to the scans they reference, joins are left-deep in FROM-clause
order, projection sits at the root.  A second pass lowers the logical
plan to volcano physical operators.

Two parts serve ``SELECT DEDUP`` too: :func:`resolve_bindings` checks
the table bindings of every statement, and
:meth:`RelationalPlanner.tail` (Aggregate or Project, Distinct, Sort,
Limit) ends every statement — a DEDUP one over its Group-Entities
tuples (:class:`~repro.sql.logical.LogicalValues`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.sql import ast
from repro.sql.expressions import (
    column_refs,
    compile_expression,
    compile_mask,
    compile_predicate,
    conjoin,
    conjuncts,
)
from repro.sql.logical import (
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalPlan,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalValues,
)
from repro.sql.physical import (
    DistinctOp,
    FilterOp,
    HashJoinOp,
    LimitOp,
    NestedLoopJoinOp,
    PhysicalOperator,
    ProjectOp,
    ScanOp,
    SortOp,
    TableScanOp,
)
from repro.storage.catalog import Catalog


class PlanningError(ValueError):
    """Raised when a query cannot be planned against the catalog."""


def equi_join_keys(condition: ast.Expr) -> Optional[Tuple[ast.ColumnRef, ast.ColumnRef]]:
    """Extract the two column refs of a simple ``a.x = b.y`` condition."""
    if (
        isinstance(condition, ast.BinaryOp)
        and condition.op == "="
        and isinstance(condition.left, ast.ColumnRef)
        and isinstance(condition.right, ast.ColumnRef)
    ):
        return condition.left, condition.right
    return None


class BindingResolution(NamedTuple):
    """Where :func:`resolve_bindings` places a query's WHERE and JOINs."""

    #: Per FROM/JOIN table, in FROM order, the WHERE conjuncts reading only it.
    filters: List[List[ast.Expr]]
    #: The WHERE conjuncts reading several tables (or none).
    residual: List[ast.Expr]
    #: Per JOIN, the (lower-cased) binding of each column its condition names.
    join_owners: List[Dict[ast.ColumnRef, str]]


def resolve_bindings(
    query: ast.SelectQuery, columns: Sequence[Iterable[str]]
) -> BindingResolution:
    """Check the table bindings of *query* — the one resolver of both the
    relational and the DEDUP planner.

    *columns* holds, in FROM order, the column names of the FROM table and
    of each JOIN table.  Raises :class:`PlanningError` on a duplicate
    alias, an unknown alias, an unknown or ambiguous unqualified column,
    or a join condition naming a table that is joined only later.  An
    unqualified column belongs to the one binding that has it; in a join
    condition only the tables joined so far count.
    """
    refs = (query.table, *(j.table for j in query.joins))
    names: Dict[str, Set[str]] = {}
    for ref, table_columns in zip(refs, columns):
        key = ref.binding.lower()
        if key in names:
            raise PlanningError(f"duplicate table binding {ref.binding!r}")
        names[key] = {c.lower() for c in table_columns}
    order = list(names)

    def owner(ref: ast.ColumnRef, scope: List[str], clause: str) -> str:
        if ref.qualifier is not None:
            if ref.qualifier.lower() not in names:
                raise PlanningError(f"unknown table alias {ref.qualifier!r} in {clause}")
            return ref.qualifier.lower()
        found = [b for b in order if ref.name.lower() in names[b]]
        visible = [b for b in found if b in scope]
        if len(visible) > 1:
            raise PlanningError(f"ambiguous column {ref.name!r}; qualify it")
        if not found:
            raise PlanningError(f"unknown column {ref.name!r}")
        return (visible or found)[0]

    filters: Dict[str, List[ast.Expr]] = {key: [] for key in order}
    residual: List[ast.Expr] = []
    for conjunct in conjuncts(query.where):
        owners = {owner(ref, order, "WHERE clause") for ref in column_refs(conjunct)}
        if len(owners) == 1:
            filters[owners.pop()].append(conjunct)
        else:
            residual.append(conjunct)

    join_owners: List[Dict[ast.ColumnRef, str]] = []
    for position, join in enumerate(query.joins):
        scope = order[: position + 2]
        owners: Dict[ast.ColumnRef, str] = {}
        for ref in column_refs(join.condition):
            key = owner(ref, scope, "JOIN condition")
            if key not in scope:
                raise PlanningError(
                    f"join condition {join.condition} references "
                    f"{key!r} before it is joined"
                )
            owners[ref] = key
        join_owners.append(owners)
    return BindingResolution([filters[key] for key in order], residual, join_owners)


class RelationalPlanner:
    """AST → logical plan → physical plan against a table catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    # -- logical planning -------------------------------------------------
    def logical_plan(self, query: ast.SelectQuery) -> LogicalPlan:
        """Build the pushed-down, left-deep logical plan for *query*."""
        return self.tail(self._from_where(query), query)

    def _from_where(self, query: ast.SelectQuery) -> LogicalPlan:
        """FROM, WHERE and JOIN: filters pushed to their scans, joins
        left-deep in FROM order, cross-table conjuncts above the joins."""
        refs = (query.table, *(j.table for j in query.joins))
        tables = [self.catalog.get(ref.name) for ref in refs]
        resolution = resolve_bindings(query, [[c.name for c in t.schema] for t in tables])
        scans: List[LogicalPlan] = []
        for ref, table, exprs in zip(refs, tables, resolution.filters):
            scan: LogicalPlan = LogicalScan(table, ref.binding)
            condition = conjoin(exprs)
            scans.append(scan if condition is None else LogicalFilter(scan, condition))

        plan = scans[0]
        for join, scan in zip(query.joins, scans[1:]):
            plan = LogicalJoin(plan, scan, join.condition, join.join_type)
        residual = conjoin(resolution.residual)
        return plan if residual is None else LogicalFilter(plan, residual)

    def tail(self, child: LogicalPlan, query: ast.SelectQuery) -> LogicalPlan:
        """Aggregate or Project, then Distinct, Sort and Limit over *child* —
        the end of every SELECT, relational or DEDUP (whose *child* is the
        Group-Entities output)."""
        if self._is_aggregation(query):
            plan = self._aggregate(child, query)
        else:
            plan = self._project(child, query)
        if query.distinct:
            plan = LogicalDistinct(plan)
        if query.order_by:
            # ORDER BY refers to projected names; resolve after projection.
            plan = LogicalSort(plan, [(o.expr, o.ascending) for o in query.order_by])
        if query.limit is not None:
            plan = LogicalLimit(plan, query.limit)
        return plan

    @staticmethod
    def _is_aggregation(query: ast.SelectQuery) -> bool:
        from repro.sql.aggregates import contains_aggregate

        if query.group_by:
            return True
        return any(
            not isinstance(item.expr, ast.Star) and contains_aggregate(item.expr)
            for item in query.items
        )

    def _aggregate(self, plan: LogicalPlan, query: ast.SelectQuery) -> LogicalPlan:
        from repro.sql.aggregates import is_aggregate_call

        group_strings = [str(g).lower() for g in query.group_by]
        items: List[Tuple[str, ast.Expr]] = []
        for index, item in enumerate(query.items):
            expr = item.expr
            if isinstance(expr, ast.Star):
                raise PlanningError("SELECT * cannot be combined with aggregation")
            if is_aggregate_call(expr):
                name = item.alias or expr.name.lower()
            else:
                if str(expr).lower() not in group_strings:
                    raise PlanningError(
                        f"{expr} must appear in GROUP BY or inside an aggregate"
                    )
                name = item.alias or _default_name(expr, index)
            items.append((name, expr))
        from repro.sql.logical import LogicalAggregate

        return LogicalAggregate(plan, items, query.group_by)

    def _project(self, plan: LogicalPlan, query: ast.SelectQuery) -> LogicalPlan:
        items: List[Tuple[str, ast.Expr]] = []
        for item in query.items:
            if isinstance(item.expr, ast.Star):
                qualifier = item.expr.qualifier
                for field in plan.schema:
                    if qualifier is None or field.qualifier.lower() == qualifier.lower():
                        items.append((field.name, ast.ColumnRef(field.name, field.qualifier)))
                if qualifier is not None and not any(
                    f.qualifier.lower() == qualifier.lower() for f in plan.schema
                ):
                    raise PlanningError(f"unknown table alias {qualifier!r} in select list")
            else:
                name = item.alias or _default_name(item.expr, len(items))
                items.append((name, item.expr))
        return LogicalProject(plan, items)

    # -- physical planning --------------------------------------------------
    def physical_plan(self, plan: LogicalPlan) -> PhysicalOperator:
        """Lower a logical plan to volcano operators."""
        if isinstance(plan, LogicalScan):
            return TableScanOp(plan.schema, plan.table, plan.binding)
        if isinstance(plan, LogicalValues):
            return ScanOp(plan.schema, plan.rows, "Values", "Values")
        if isinstance(plan, LogicalFilter) and isinstance(plan.child, LogicalScan):
            # A single-table WHERE: the column-mask evaluator DEDUP
            # bindings use too.
            scan = plan.child
            where = compile_mask(plan.condition, scan.schema)
            return TableScanOp(scan.schema, scan.table, scan.binding, where, str(plan.condition))
        if isinstance(plan, LogicalFilter):
            child = self.physical_plan(plan.child)
            predicate = compile_predicate(plan.condition, plan.child.schema)
            return FilterOp(child, predicate, description=str(plan.condition))
        if isinstance(plan, LogicalJoin):
            return self._physical_join(plan)
        if isinstance(plan, LogicalProject):
            child = self.physical_plan(plan.child)
            evaluators = [compile_expression(e, plan.child.schema) for _, e in plan.items]
            return ProjectOp(child, plan.schema, evaluators)
        if isinstance(plan, LogicalSort):
            child = self.physical_plan(plan.child)
            keys = [
                (compile_expression(expr, plan.child.schema), ascending)
                for expr, ascending in plan.keys
            ]
            return SortOp(child, keys)
        if isinstance(plan, LogicalLimit):
            return LimitOp(self.physical_plan(plan.child), plan.count)
        if isinstance(plan, LogicalDistinct):
            return DistinctOp(self.physical_plan(plan.child))
        from repro.sql.logical import LogicalAggregate

        if isinstance(plan, LogicalAggregate):
            return self._physical_aggregate(plan)
        raise PlanningError(f"cannot lower plan node {type(plan).__name__}")

    def _physical_aggregate(self, plan) -> PhysicalOperator:
        from repro.sql.aggregates import aggregate_argument, is_aggregate_call
        from repro.sql.physical import HashAggregateOp

        child = self.physical_plan(plan.child)
        child_schema = plan.child.schema
        key_fns = [compile_expression(g, child_schema) for g in plan.group_by]
        group_strings = [str(g).lower() for g in plan.group_by]
        calls = []
        output_plan: List[Tuple[str, int]] = []
        for name, expr in plan.items:
            if is_aggregate_call(expr):
                argument = aggregate_argument(expr)
                value_fn = (
                    compile_expression(argument, child_schema)
                    if argument is not None
                    else None
                )
                output_plan.append(("agg", len(calls)))
                calls.append((expr, value_fn))
            else:
                output_plan.append(("key", group_strings.index(str(expr).lower())))
        return HashAggregateOp(child, plan.schema, key_fns, calls, output_plan)

    def _physical_join(self, plan: LogicalJoin) -> PhysicalOperator:
        left = self.physical_plan(plan.left)
        right = self.physical_plan(plan.right)
        keys = equi_join_keys(plan.condition)
        if keys is not None:
            left_key, right_key = self._orient_keys(plan, keys)
            if left_key is not None and right_key is not None:
                return HashJoinOp(
                    left,
                    right,
                    left_key,
                    right_key,
                    description=str(plan.condition),
                )
        predicate = compile_predicate(plan.condition, plan.schema)
        return NestedLoopJoinOp(left, right, predicate, description=str(plan.condition))

    def _orient_keys(
        self, plan: LogicalJoin, keys: Tuple[ast.ColumnRef, ast.ColumnRef]
    ) -> Tuple[Optional[Callable], Optional[Callable]]:
        """Figure out which key column belongs to which join side."""
        first, second = keys
        for candidate in ((first, second), (second, first)):
            left_ref, right_ref = candidate
            try:
                left_fn = compile_expression(left_ref, plan.left.schema)
                right_fn = compile_expression(right_ref, plan.right.schema)
                return _normalized_key(left_fn), _normalized_key(right_fn)
            except Exception:
                continue
        return None, None


def _normalized_key(fn: Callable) -> Callable:
    """Case-fold string join keys so 'EDBT' joins with 'edbt'."""

    def key(row: tuple):
        value = fn(row)
        if isinstance(value, str):
            return value.lower()
        return value

    return key


def _default_name(expr: ast.Expr, index: int) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    return f"col{index}"
