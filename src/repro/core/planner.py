"""Dedupe-query planning and execution (paper §7).

Four execution strategies are implemented, matching the paper's
experimental configurations:

* **AES** — Advanced ER Solution (§7.2): cost-based operator placement.
  For SP queries the Deduplicate operator sits above the Filter; for SPJ
  queries the planner estimates post-BP/BF comparisons per join branch
  (:class:`~repro.core.statistics.ComparisonEstimator`) and deduplicates
  the *cheaper* branch first, turning the join into a Dirty-Left or
  Dirty-Right Deduplicate-Join (Figs. 7/8).
* **NES** — Naive ER Solution (§7.1, Fig. 6): Deduplicate above every
  Filter, both branches cleaned independently, then a clean-clean join.
* **NAIVE_SCAN** — the first naive plan (Fig. 5): Deduplicate directly
  above each Table Scan (whole-table cleaning), filters applied with
  dedup-aware semantics above it.
* **BATCH** — the BA baseline (§5): full offline ER on every involved
  table, then the query over the grouped result.

All strategies funnel into the same Group-Entities + Project tail, so
their outputs are directly comparable — which is precisely the paper's
DQ-Correctness requirement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.batch import batch_deduplicate
from repro.core.indices import TableIndex
from repro.core.result import DedupResult, merge_values
from repro.core.statistics import ComparisonEstimator, join_value
from repro.sql import ast
from repro.sql.expressions import (
    compile_predicate,
    conjoin,
    conjuncts,
    referenced_bindings,
)
from repro.sql.logical import Field, PlanSchema
from repro.sql.physical import ExecutionContext
from repro.storage.table import Row


class ExecutionMode(enum.Enum):
    """Which of the paper's strategies answers the Dedupe Query."""

    AES = "aes"
    NES = "nes"
    NAIVE_SCAN = "naive-scan"
    BATCH = "batch"


class DedupPlanningError(ValueError):
    """Raised when a DEDUP query cannot be planned."""


@dataclass
class BindingInfo:
    """One FROM-clause table binding with its pushed-down predicate."""

    binding: str
    index: TableIndex
    condition: Optional[ast.Expr]
    predicate: Callable[[Sequence[Any]], bool]

    def qe_rows(self) -> List[Row]:
        """QE: rows the query evaluates after the per-binding WHERE."""
        predicate = self.predicate
        return [row for row in self.index.table if predicate(row.values)]

    def qe_ids(self) -> Set[Any]:
        return {row.id for row in self.qe_rows()}


@dataclass
class JoinStep:
    """One equi-join edge between an already-bound side and a new table."""

    left_binding: str
    left_column: str
    right_binding: str
    right_column: str


@dataclass
class DedupQueryPlan:
    """Planner output: placements, estimates and a printable plan tree."""

    mode: ExecutionMode
    bindings: List[str]
    estimates: Dict[str, int] = field(default_factory=dict)
    clean_first: Optional[str] = None
    join_steps: List[JoinStep] = field(default_factory=list)
    description: str = ""

    def pretty(self) -> str:
        return self.description


class DedupQueryPlanner:
    """Builds and executes plans for ``SELECT DEDUP`` queries."""

    def __init__(self, engine: "QueryEREngine"):  # noqa: F821 (facade type)
        self.engine = engine

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def analyze(
        self, query: ast.SelectQuery
    ) -> Tuple[List[BindingInfo], List[JoinStep], Optional[ast.Expr]]:
        """Split the query into per-binding filters, join edges, residual."""
        bindings: Dict[str, BindingInfo] = {}
        order: List[str] = []
        for ref in (query.table, *(j.table for j in query.joins)):
            key = ref.binding.lower()
            if key in bindings:
                raise DedupPlanningError(f"duplicate table binding {ref.binding!r}")
            index = self.engine.index_of(ref.name)
            bindings[key] = BindingInfo(ref.binding, index, None, lambda row: True)
            order.append(key)

        per_binding: Dict[str, List[ast.Expr]] = {b: [] for b in order}
        residual: List[ast.Expr] = []
        for conjunct in conjuncts(query.where):
            owners = self._owners(conjunct, bindings, order)
            if len(owners) == 1:
                per_binding[next(iter(owners))].append(conjunct)
            else:
                residual.append(conjunct)

        infos: List[BindingInfo] = []
        for key in order:
            info = bindings[key]
            condition = conjoin(per_binding[key])
            schema = PlanSchema(
                [Field(info.binding, c.name) for c in info.index.table.schema]
            )
            info.condition = condition
            info.predicate = compile_predicate(condition, schema)
            infos.append(info)

        steps = [self._join_step(j, infos) for j in query.joins]
        # A join condition may only reference bindings joined so far:
        # _ref_owner resolves against *all* bindings, so without this
        # check a condition naming a later FROM entry would plan fine
        # and then blow up (or mis-join) deep inside the executor.
        bound = {order[0]}
        for step, join in zip(steps, query.joins):
            if step.left_binding not in bound:
                raise DedupPlanningError(
                    f"join condition {join.condition} references "
                    f"{step.left_binding!r} before it is joined"
                )
            bound.add(step.right_binding)
        return infos, steps, conjoin(residual)

    def _owners(
        self, conjunct: ast.Expr, bindings: Dict[str, BindingInfo], order: List[str]
    ) -> Set[str]:
        owners: Set[str] = set()
        for qualifier in referenced_bindings(conjunct):
            if qualifier == "":
                owners.update(self._owners_unqualified(conjunct, bindings, order))
            elif qualifier in bindings:
                owners.add(qualifier)
            else:
                raise DedupPlanningError(f"unknown alias {qualifier!r} in WHERE")
        return owners

    @staticmethod
    def _owners_unqualified(
        conjunct: ast.Expr, bindings: Dict[str, BindingInfo], order: List[str]
    ) -> Set[str]:
        from repro.sql.planner import _unqualified_names

        owners: Set[str] = set()
        for name in _unqualified_names(conjunct):
            candidates = [
                key
                for key in order
                if name.lower() in {c.name.lower() for c in bindings[key].index.table.schema}
            ]
            if not candidates:
                raise DedupPlanningError(f"unknown column {name!r}")
            if len(candidates) > 1:
                raise DedupPlanningError(f"ambiguous column {name!r}; qualify it")
            owners.add(candidates[0])
        return owners

    def _join_step(self, join: ast.JoinClause, infos: List[BindingInfo]) -> JoinStep:
        condition = join.condition
        if not (
            isinstance(condition, ast.BinaryOp)
            and condition.op == "="
            and isinstance(condition.left, ast.ColumnRef)
            and isinstance(condition.right, ast.ColumnRef)
        ):
            raise DedupPlanningError(
                f"DEDUP joins must be equi-joins on columns, got {condition}"
            )
        new_binding = join.table.binding.lower()
        refs = {self._ref_owner(r, infos): r for r in (condition.left, condition.right)}
        if new_binding not in refs:
            raise DedupPlanningError(
                f"join condition {condition} does not reference {join.table.binding}"
            )
        right_ref = refs.pop(new_binding)
        if len(refs) != 1:
            raise DedupPlanningError(f"join condition {condition} must span two tables")
        left_owner, left_ref = next(iter(refs.items()))
        return JoinStep(left_owner, left_ref.name, new_binding, right_ref.name)

    def _ref_owner(self, ref: ast.ColumnRef, infos: List[BindingInfo]) -> str:
        if ref.qualifier is not None:
            for info in infos:
                if info.binding.lower() == ref.qualifier.lower():
                    return info.binding.lower()
            raise DedupPlanningError(f"unknown alias {ref.qualifier!r} in join")
        candidates = [
            info.binding.lower()
            for info in infos
            if ref.name.lower() in {c.name.lower() for c in info.index.table.schema}
        ]
        if len(candidates) != 1:
            raise DedupPlanningError(f"cannot resolve join column {ref.name!r}")
        return candidates[0]

    # ----------------------------------------------------------------------
    # planning
    # ----------------------------------------------------------------------
    def plan(self, query: ast.SelectQuery, mode: ExecutionMode) -> DedupQueryPlan:
        """Produce the plan (with estimates) without executing it."""
        infos, steps, _residual = self.analyze(query)
        plan = DedupQueryPlan(mode=mode, bindings=[i.binding for i in infos], join_steps=steps)
        if steps and mode is ExecutionMode.AES:
            first = steps[0]
            left_info = self._info(infos, first.left_binding)
            right_info = self._info(infos, first.right_binding)
            left_estimate = ComparisonEstimator(left_info.index).estimate(left_info.condition)
            right_estimate = ComparisonEstimator(right_info.index).estimate(right_info.condition)
            plan.estimates = {
                left_info.binding: left_estimate,
                right_info.binding: right_estimate,
            }
            plan.clean_first = (
                left_info.binding if left_estimate <= right_estimate else right_info.binding
            )
        plan.description = self._describe(query, plan, infos)
        return plan

    @staticmethod
    def _info(infos: List[BindingInfo], binding: str) -> BindingInfo:
        for info in infos:
            if info.binding.lower() == binding.lower():
                return info
        raise DedupPlanningError(f"unknown binding {binding!r}")

    def _describe(
        self, query: ast.SelectQuery, plan: DedupQueryPlan, infos: List[BindingInfo]
    ) -> str:
        lines = ["Project[" + ", ".join(str(i) for i in query.items) + "]"]
        lines.append("  GroupEntities")
        indent = "  "
        if plan.join_steps:
            step = plan.join_steps[0]
            if plan.mode is ExecutionMode.AES and plan.clean_first is not None:
                dirty = (
                    step.right_binding
                    if plan.clean_first.lower() == step.left_binding.lower()
                    else step.left_binding
                )
                join_label = f"Dirty{'Right' if dirty == step.right_binding else 'Left'}Join"
            else:
                join_label = "DeduplicateJoin"
            lines.append(f"{indent * 2}{join_label}[{step.left_binding}.{step.left_column} = "
                         f"{step.right_binding}.{step.right_column}]")
            indent *= 3
        for info in infos:
            branch: List[str] = []
            clean_here = (
                plan.mode in (ExecutionMode.NES, ExecutionMode.NAIVE_SCAN, ExecutionMode.BATCH)
                or not plan.join_steps
                or (plan.clean_first or "").lower() == info.binding.lower()
            )
            dedup_label = "BatchDeduplicate" if plan.mode is ExecutionMode.BATCH else "Deduplicate"
            if clean_here and plan.mode is not ExecutionMode.NAIVE_SCAN and plan.mode is not ExecutionMode.BATCH:
                branch.append(dedup_label)
                if info.condition is not None:
                    branch.append(f"Filter[{info.condition}]")
            else:
                if info.condition is not None:
                    branch.append(f"Filter[{info.condition}]")
                if clean_here:
                    branch.append(dedup_label)
            branch.append(f"TableScan[{info.index.table.name} AS {info.binding}]")
            for depth, label in enumerate(branch):
                lines.append(indent + "  " * depth + label)
        return "\n".join(lines)


# ===========================================================================
# execution
# ===========================================================================


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


class JoinState:
    """Accumulated joined rows: one base-table Row per bound binding."""

    def __init__(self, bindings: List[str], results: Dict[str, DedupResult], rows: List[Tuple[Row, ...]]):
        self.bindings = bindings
        self.results = results
        self.rows = rows

    @classmethod
    def initial(cls, binding: str, result: DedupResult) -> "JoinState":
        return cls([binding], {binding: result}, [(row,) for row in result.rows()])

    def binding_position(self, binding: str) -> int:
        for position, name in enumerate(self.bindings):
            if name.lower() == binding.lower():
                return position
        raise DedupPlanningError(f"binding {binding!r} not in join state")

    def schema(self) -> PlanSchema:
        fields: List[Field] = []
        for binding in self.bindings:
            table = self.results[binding].table
            fields.extend(Field(binding, c.name) for c in table.schema)
        return PlanSchema(fields)

    def value_tuples(self) -> List[tuple]:
        return [sum((row.values for row in combo), ()) for combo in self.rows]


class DedupQueryExecutor:
    """Executes a planned Dedupe Query through Group-Entities + Project."""

    def __init__(self, engine: "QueryEREngine"):  # noqa: F821
        self.engine = engine
        self.planner = DedupQueryPlanner(engine)

    # -- entry point ------------------------------------------------------
    def execute(
        self,
        query: ast.SelectQuery,
        mode: ExecutionMode,
        context: ExecutionContext,
        plan: DedupQueryPlan,
    ) -> Tuple[List[str], List[tuple]]:
        """Run *query* under *plan* (:meth:`DedupQueryPlanner.plan`'s
        output for the same query and mode, possibly cached)."""
        infos, steps, residual = self.planner.analyze(query)

        if not steps:
            state = self._execute_single(infos[0], mode, context)
        else:
            state = self._execute_joins(infos, steps, plan, mode, context)

        if residual is not None:
            predicate = compile_predicate(residual, state.schema())
            keep = [
                combo
                for combo, values in zip(state.rows, state.value_tuples())
                if predicate(values)
            ]
            state = JoinState(state.bindings, state.results, keep)

        with context.timed("group"):
            grouped = self._group(state)
        from repro.sql.planner import RelationalPlanner

        if RelationalPlanner._is_aggregation(query):
            columns, rows = self._aggregate_grouped(query, state, grouped)
        else:
            columns, rows = self._project(query, state, grouped)
        rows = self._order_and_limit(query, columns, rows)
        return columns, rows

    # -- single-table (SP) path ------------------------------------------------
    def _execute_single(
        self, info: BindingInfo, mode: ExecutionMode, context: ExecutionContext
    ) -> JoinState:
        if mode is ExecutionMode.BATCH:
            full = batch_deduplicate(
                info.index,
                matcher=self.engine.matcher_for(info.index),
                meta_blocking=self.engine.meta_blocking,
                context=context,
            )
            result = self._dedup_aware_filter(info, full)
        elif mode is ExecutionMode.NAIVE_SCAN:
            operator = self.engine.dedup_operator(info.index)
            full = operator.deduplicate(info.index.table.ids, context)
            result = self._dedup_aware_filter(info, full)
        else:  # NES and AES place Deduplicate above the Filter (§7.2.1)
            with context.timed("other"):
                qe = info.qe_ids()
            operator = self.engine.dedup_operator(info.index)
            result = operator.deduplicate(qe, context)
        return JoinState.initial(info.binding, result)

    def _dedup_aware_filter(self, info: BindingInfo, full: DedupResult) -> DedupResult:
        """Filter *above* a whole-table Deduplicate (Fig. 5 semantics).

        A cluster survives when any member satisfies the predicate; the
        satisfying members are QE, the dragged-in ones QE̅.
        """
        qe = {row.id for row in info.qe_rows()}
        duplicates = full.links.closure(qe)
        return DedupResult(info.index.table, qe, duplicates - qe, full.links)

    # -- SPJ path -------------------------------------------------------------
    def _execute_joins(
        self,
        infos: List[BindingInfo],
        steps: List[JoinStep],
        plan: DedupQueryPlan,
        mode: ExecutionMode,
        context: ExecutionContext,
    ) -> JoinState:
        info_by_binding = {i.binding.lower(): i for i in infos}
        first = steps[0]
        left_info = info_by_binding[first.left_binding]
        right_info = info_by_binding[first.right_binding]

        if mode is ExecutionMode.AES:
            clean_first = (plan.clean_first or left_info.binding).lower()
            if clean_first == left_info.binding.lower():
                left_dr = self._clean(left_info, context)
                state = JoinState.initial(left_info.binding, left_dr)
                state = self._join_dirty(state, first, right_info, context)
            else:
                right_dr = self._clean(right_info, context)
                reduced = self._reduce_by_values(
                    left_info, first.left_column, right_dr, first.right_column, context
                )
                left_dr = self.engine.dedup_operator(left_info.index).deduplicate(
                    reduced, context
                )
                state = JoinState.initial(left_info.binding, left_dr)
                state = self._join_clean(state, first, right_dr, right_info.binding, context)
        elif mode is ExecutionMode.NES:
            left_dr = self._clean(left_info, context)
            right_dr = self._clean(right_info, context)
            state = JoinState.initial(left_info.binding, left_dr)
            state = self._join_clean(state, first, right_dr, right_info.binding, context)
        else:  # NAIVE_SCAN and BATCH clean whole tables first
            left_dr = self._whole_table(left_info, mode, context)
            right_dr = self._whole_table(right_info, mode, context)
            state = JoinState.initial(left_info.binding, left_dr)
            state = self._join_clean(state, first, right_dr, right_info.binding, context)

        # Remaining joins: every new table enters dirty (reduced first).
        for step in steps[1:]:
            next_info = info_by_binding[step.right_binding]
            if mode in (ExecutionMode.NAIVE_SCAN, ExecutionMode.BATCH):
                next_dr = self._whole_table(next_info, mode, context)
                state = self._join_clean(state, step, next_dr, next_info.binding, context)
            elif mode is ExecutionMode.NES:
                next_dr = self._clean(next_info, context)
                state = self._join_clean(state, step, next_dr, next_info.binding, context)
            else:
                state = self._join_dirty(state, step, next_info, context)
        return state

    def _clean(self, info: BindingInfo, context: ExecutionContext) -> DedupResult:
        with context.timed("other"):
            qe = info.qe_ids()
        return self.engine.dedup_operator(info.index).deduplicate(qe, context)

    def _whole_table(
        self, info: BindingInfo, mode: ExecutionMode, context: ExecutionContext
    ) -> DedupResult:
        if mode is ExecutionMode.BATCH:
            full = batch_deduplicate(
                info.index,
                matcher=self.engine.matcher_for(info.index),
                meta_blocking=self.engine.meta_blocking,
                context=context,
            )
        else:
            full = self.engine.dedup_operator(info.index).deduplicate(
                info.index.table.ids, context
            )
        return self._dedup_aware_filter(info, full)

    # -- join mechanics ----------------------------------------------------
    def _reduce_by_values(
        self,
        dirty_info: BindingInfo,
        dirty_column: str,
        clean_dr: DedupResult,
        clean_column: str,
        context: ExecutionContext,
    ) -> Set[Any]:
        """Alg. 1 line 4/9 against a clean DR (values of all duplicates)."""
        with context.timed("other"):
            clean_values = {
                join_value(row[clean_column])
                for row in clean_dr.rows()
                if row[clean_column] is not None
            }
            kept: Set[Any] = set()
            for row in dirty_info.qe_rows():
                value = row[dirty_column]
                if value is not None and join_value(value) in clean_values:
                    kept.add(row.id)
        return kept

    def _join_dirty(
        self,
        state: JoinState,
        step: JoinStep,
        right_info: BindingInfo,
        context: ExecutionContext,
    ) -> JoinState:
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
        state: JoinState,
        step: JoinStep,
        right_dr: DedupResult,
        right_binding: str,
        context: ExecutionContext,
    ) -> JoinState:
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
        return JoinState(state.bindings + [right_binding], results, joined)

    # -- grouping + projection -------------------------------------------------
    def _group(self, state: JoinState) -> List[tuple]:
        """Group-Entities: one fused tuple per cross-binding cluster key.

        The key is the ``repr`` of each binding's cluster representative.
        Each binding's distinct rows of a bucket are fused in first-seen
        order, which equals fusing every combo because
        :func:`merge_values` keeps a value's first occurrence.
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

    def _aggregate_grouped(
        self, query: ast.SelectQuery, state: JoinState, grouped: List[tuple]
    ) -> Tuple[List[str], List[tuple]]:
        """Dedupe-aware aggregation (§10 extension): aggregates fold over
        *grouped entities*, so each duplicate cluster contributes once."""
        from repro.sql.aggregates import (
            aggregate_argument,
            is_aggregate_call,
            run_aggregation,
        )
        from repro.sql.expressions import compile_expression

        schema = state.schema()
        key_fns = [compile_expression(g, schema) for g in query.group_by]
        group_strings = [str(g).lower() for g in query.group_by]
        columns: List[str] = []
        calls = []
        output_plan: List[Tuple[str, int]] = []
        for index, item in enumerate(query.items):
            expr = item.expr
            if isinstance(expr, ast.Star):
                raise DedupPlanningError("SELECT * cannot be combined with aggregation")
            if is_aggregate_call(expr):
                argument = aggregate_argument(expr)
                value_fn = (
                    compile_expression(argument, schema) if argument is not None else None
                )
                columns.append(item.alias or expr.name.lower())
                output_plan.append(("agg", len(calls)))
                calls.append((expr, value_fn))
            else:
                if str(expr).lower() not in group_strings:
                    raise DedupPlanningError(
                        f"{expr} must appear in GROUP BY or inside an aggregate"
                    )
                columns.append(
                    item.alias
                    or (expr.name if isinstance(expr, ast.ColumnRef) else f"col{index}")
                )
                output_plan.append(("key", group_strings.index(str(expr).lower())))
        rows = []
        for key, results in run_aggregation(grouped, key_fns, calls):
            rows.append(
                tuple(
                    key[i] if kind == "key" else results[i]
                    for kind, i in output_plan
                )
            )
        return columns, rows

    def _project(
        self, query: ast.SelectQuery, state: JoinState, grouped: List[tuple]
    ) -> Tuple[List[str], List[tuple]]:
        schema = state.schema()
        columns: List[str] = []
        positions: List[int] = []
        for item in query.items:
            if isinstance(item.expr, ast.Star):
                qualifier = item.expr.qualifier
                for i, fieldref in enumerate(schema):
                    if qualifier is None or fieldref.qualifier.lower() == qualifier.lower():
                        columns.append(fieldref.name)
                        positions.append(i)
            elif isinstance(item.expr, ast.ColumnRef):
                positions.append(schema.resolve(item.expr.name, item.expr.qualifier))
                columns.append(item.alias or item.expr.name)
            else:
                raise DedupPlanningError(
                    "DEDUP projection supports plain columns and *, got "
                    f"{item.expr}"
                )
        rows = [tuple(row[p] for p in positions) for row in grouped]
        return columns, rows

    @staticmethod
    def _order_and_limit(
        query: ast.SelectQuery, columns: List[str], rows: List[tuple]
    ) -> List[tuple]:
        if query.order_by:
            lowered = [c.lower() for c in columns]
            for item in reversed(query.order_by):
                if not isinstance(item.expr, ast.ColumnRef):
                    raise DedupPlanningError("DEDUP ORDER BY supports plain columns")
                try:
                    position = lowered.index(item.expr.name.lower())
                except ValueError:
                    raise DedupPlanningError(
                        f"ORDER BY column {item.expr.name!r} not in output"
                    ) from None
                from repro.sql.physical import _sort_key

                rows.sort(
                    key=lambda row: _sort_key(row[position]),
                    reverse=not item.ascending,
                )
        if query.limit is not None:
            rows = rows[: query.limit]
        return rows
