"""Relational (non-ER) query planning.

Converts a parsed :class:`~repro.sql.ast.SelectQuery` into a tree of
volcano operators (:mod:`repro.sql.physical`) with the standard
heuristics the paper assumes as its starting point (§7.2.1: "the best
non ER-enabled query plan ... is given"): filters are pushed to the
scans they reference, joins are left-deep in FROM-clause order,
projection sits at the root.  Expressions are compiled as the tree is
built, so the engine caches the tree and runs it as it is.

Two parts serve ``SELECT DEDUP`` too: :func:`resolve_bindings` checks
the table bindings of every statement, and
:meth:`RelationalPlanner.tail` (Aggregate or Project, Distinct, Sort,
Limit) ends every statement — a DEDUP one over its Group-Entities leaf
(:class:`~repro.core.planner.GroupEntitiesOp`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.sql import ast
from repro.sql.aggregates import aggregate_argument, contains_aggregate, is_aggregate_call
from repro.sql.expressions import (
    column_refs,
    compile_expression,
    compile_mask,
    compile_predicate,
    conjoin,
    conjuncts,
)
from repro.sql.physical import (
    DistinctOp,
    FilterOp,
    HashAggregateOp,
    HashJoinOp,
    LimitOp,
    NestedLoopJoinOp,
    PhysicalOperator,
    ProjectOp,
    SortOp,
    TableScanOp,
)
from repro.sql.schema import output_schema, schema_for_table
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
    """AST → operator tree against a table catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    def plan(self, query: ast.SelectQuery) -> PhysicalOperator:
        """The operator tree of a plain SELECT: pushed-down scans,
        left-deep joins, the residual, then :meth:`tail`."""
        return self.tail(self._from_where(query), query)

    def _from_where(self, query: ast.SelectQuery) -> PhysicalOperator:
        """FROM, WHERE and JOIN: each single-table WHERE compiled to a
        column mask on its scan, joins left-deep in FROM order (a hash
        join on a two-table equality, else a nested loop), cross-table
        conjuncts in a filter above them."""
        refs = (query.table, *(j.table for j in query.joins))
        tables = [self.catalog.get(ref.name) for ref in refs]
        resolution = resolve_bindings(query, [[c.name for c in t.schema] for t in tables])
        scans: List[PhysicalOperator] = []
        for ref, table, exprs in zip(refs, tables, resolution.filters):
            schema = schema_for_table(table, ref.binding)
            condition = conjoin(exprs)
            if condition is None:
                scans.append(TableScanOp(schema, table, ref.binding))
            else:
                where = compile_mask(condition, schema)
                scans.append(TableScanOp(schema, table, ref.binding, where, str(condition)))

        plan = scans[0]
        for join, scan, owners in zip(query.joins, scans[1:], resolution.join_owners):
            plan = self._join(plan, scan, join, owners)
        residual = conjoin(resolution.residual)
        if residual is None:
            return plan
        return FilterOp(plan, compile_predicate(residual, plan.schema), str(residual))

    @staticmethod
    def _join(
        left: PhysicalOperator,
        right: PhysicalOperator,
        join: ast.JoinClause,
        owners: Dict[ast.ColumnRef, str],
    ) -> PhysicalOperator:
        """A hash join when the condition equates a column of the joined
        table with one of the tables before it (*owners*, from
        :func:`resolve_bindings`), else a nested-loop join."""
        condition = join.condition
        keys = equi_join_keys(condition)
        binding = join.table.binding.lower()
        if keys is not None and [owners[ref] == binding for ref in keys].count(True) == 1:
            left_ref, right_ref = keys if owners[keys[1]] == binding else keys[::-1]
            return HashJoinOp(
                left,
                right,
                _normalized_key(compile_expression(left_ref, left.schema)),
                _normalized_key(compile_expression(right_ref, right.schema)),
                str(condition),
            )
        predicate = compile_predicate(condition, left.schema + right.schema)
        return NestedLoopJoinOp(left, right, predicate, str(condition))

    def tail(self, child: PhysicalOperator, query: ast.SelectQuery) -> PhysicalOperator:
        """Aggregate or Project, then Distinct, Sort and Limit over *child* —
        the end of every SELECT, relational or DEDUP (whose *child* is the
        Group-Entities leaf)."""
        if self._is_aggregation(query):
            plan = self._aggregate(child, query)
        else:
            plan = self._project(child, query)
        if query.distinct:
            plan = DistinctOp(plan)
        if query.order_by:
            # ORDER BY refers to projected names; resolve after projection.
            keys = [(compile_expression(o.expr, plan.schema), o.ascending) for o in query.order_by]
            plan = SortOp(plan, keys, ", ".join(str(o) for o in query.order_by))
        if query.limit is not None:
            plan = LimitOp(plan, query.limit)
        return plan

    @staticmethod
    def _is_aggregation(query: ast.SelectQuery) -> bool:
        if query.group_by:
            return True
        return any(
            not isinstance(item.expr, ast.Star) and contains_aggregate(item.expr)
            for item in query.items
        )

    @staticmethod
    def _aggregate(child: PhysicalOperator, query: ast.SelectQuery) -> PhysicalOperator:
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
        schema = output_schema(items, child.schema)
        calls = []
        output_plan: List[Tuple[str, int]] = []
        for _, expr in items:
            if is_aggregate_call(expr):
                argument = aggregate_argument(expr)
                value_fn = None if argument is None else compile_expression(argument, child.schema)
                output_plan.append(("agg", len(calls)))
                calls.append((expr, value_fn))
            else:
                output_plan.append(("key", group_strings.index(str(expr).lower())))
        key_fns = [compile_expression(g, child.schema) for g in query.group_by]
        keys = ", ".join(str(g) for g in query.group_by) or "()"
        description = f"{_select_list(query)} BY {keys}"
        return HashAggregateOp(child, schema, key_fns, calls, output_plan, description)

    @staticmethod
    def _project(child: PhysicalOperator, query: ast.SelectQuery) -> PhysicalOperator:
        items: List[Tuple[str, ast.Expr]] = []
        for item in query.items:
            if isinstance(item.expr, ast.Star):
                qualifier = item.expr.qualifier
                for field in child.schema:
                    if qualifier is None or field.qualifier.lower() == qualifier.lower():
                        items.append((field.name, ast.ColumnRef(field.name, field.qualifier)))
                if qualifier is not None and not any(
                    f.qualifier.lower() == qualifier.lower() for f in child.schema
                ):
                    raise PlanningError(f"unknown table alias {qualifier!r} in select list")
            else:
                name = item.alias or _default_name(item.expr, len(items))
                items.append((name, item.expr))
        schema = output_schema(items, child.schema)
        evaluators = [compile_expression(e, child.schema) for _, e in items]
        return ProjectOp(child, schema, evaluators, _select_list(query))


def _select_list(query: ast.SelectQuery) -> str:
    """The select list as written — the Project and Aggregate labels."""
    return ", ".join(str(item) for item in query.items)


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
