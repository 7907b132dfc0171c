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

All strategies funnel into Group-Entities and then the relational tail
(:meth:`~repro.sql.planner.RelationalPlanner.tail`: Aggregate or
Project, Distinct, Sort, Limit — the one every plain SELECT ends in), so
their outputs are directly comparable — which is precisely the paper's
DQ-Correctness requirement.  The Dedup-Join and Group-Entities work on
clusters: the :class:`JoinState` holds one entry per combination of
duplicate clusters, and only a cluster of two or more rows is fused —
in the columns the relational tail reads (:attr:`DedupQueryPlan.read`).

A statement is analysed once, by :meth:`DedupQueryPlanner.plan`: the
bindings (checked by the relational planner's
:func:`~repro.sql.planner.resolve_bindings`), their compiled filters,
the join steps and the residual live on the :class:`DedupQueryPlan`,
together with its operator tree (``root``): the relational tail, built
once over a :class:`GroupEntitiesOp` leaf that runs the ER part through
the engine's executor.  The engine runs that tree and prints it
(:meth:`DedupQueryPlan.explain` annotates it with the comparison
estimates; :func:`analyze_lines` adds ``EXPLAIN ANALYZE``'s actual
figures).  The engine caches plans in its
:class:`~repro.core.epoch_cache.EpochCache`: a DEDUP plan under its
execution mode, a plain SELECT's operator tree under ``"relational"``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.batch import batch_deduplicate
from repro.core.indices import TableIndex
from repro.core.result import DedupResult, merge_values
from repro.core.statistics import ComparisonEstimator, join_value
from repro.sql import ast
from repro.sql.expressions import (
    MaskPredicate,
    RowEvaluator,
    column_refs,
    compile_mask,
    compile_predicate,
    conjoin,
)
from repro.sql.physical import ExecutionContext, Note, PhysicalOperator, no_note
from repro.sql.planner import PlanningError, RelationalPlanner, equi_join_keys, resolve_bindings
from repro.sql.schema import PlanSchema, schema_for_table
from repro.storage.table import Row


class ExecutionMode(enum.Enum):
    """Which of the paper's strategies answers the Dedupe Query."""

    AES = "aes"
    NES = "nes"
    NAIVE_SCAN = "naive-scan"
    BATCH = "batch"


#: The relational planner's error; DEDUP statements raise the same class.
DedupPlanningError = PlanningError


@dataclass
class BindingInfo:
    """One FROM-clause table binding with its pushed-down predicate."""

    binding: str
    index: TableIndex
    condition: Optional[ast.Expr]
    where: MaskPredicate

    def qe_rows(self) -> List[Row]:
        """QE: rows the query evaluates after the per-binding WHERE, in
        table order."""
        table = self.index.table
        return [table[position] for position in self.where.positions(table).tolist()]

    def qe_ids(self) -> Set[Any]:
        return {row.id for row in self.qe_rows()}


@dataclass
class JoinStep:
    """One equi-join edge between an already-bound side and a new table."""

    left_binding: str
    left_column: str
    right_binding: str
    right_column: str


#: Per binding of a joined row, in join-state order, the positions of
#: its columns that the relational tail reads.
ReadColumns = Tuple[Tuple[int, ...], ...]


@dataclass
class DedupQueryPlan:
    """Planner output: the analysed statement, its placements and estimates.

    ``infos`` (one per FROM binding, with the per-binding WHERE compiled
    to column masks), ``join_steps``, ``residual`` and ``schema`` (the
    joined rows' columns, which the residual and the relational tail
    resolve against) are the statement's one analysis; the executor and
    ``EXPLAIN`` read them from here.  ``residual_predicate`` is the
    residual compiled over ``schema``, once per plan.  ``root`` is the
    operator tree the engine runs and prints: the relational tail over
    a :class:`GroupEntitiesOp` leaf.  ``read`` holds, per binding, the
    columns that tail reads (:func:`_read_columns`), the ones
    Group-Entities fuses.
    """

    mode: ExecutionMode
    query: ast.SelectQuery
    infos: List[BindingInfo]
    join_steps: List[JoinStep]
    residual: Optional[ast.Expr]
    schema: PlanSchema
    residual_predicate: RowEvaluator
    read: ReadColumns
    estimates: Dict[str, int] = field(default_factory=dict)
    clean_first: Optional[str] = None
    root: PhysicalOperator = field(init=False, repr=False, compare=False)

    def explain(self) -> Tuple[List[str], int]:
        """``EXPLAIN``'s lines: the operator tree (``root``) annotated with
        what the plan and the comparison estimator already know, plus ΣC.

        A ``TableScan`` shows the table's rows, a ``Filter`` the size of
        its literal-derived superset S_E, and a ``Deduplicate`` the
        estimated comparisons C of its binding: the planner's own
        estimate where it made one (the first join's two sides), else
        :class:`~repro.core.statistics.ComparisonEstimator` over the
        binding's filter.  The returned ΣC, every binding's C, is what
        ``EXPLAIN ANALYZE`` reports next to the actual comparisons.  It
        is an upper bound for a side that enters an AES join dirty: C
        prices the side's whole filtered frontier, while the executor
        deduplicates only the rows the semi-join reduction keeps.
        """
        comparisons = {binding.lower(): c for binding, c in self.estimates.items()}
        selected: Dict[str, int] = {}
        table_rows: Dict[str, int] = {}
        for info in self.infos:
            binding = info.binding.lower()
            estimator = ComparisonEstimator(info.index)
            entities = estimator.selected_entities(info.condition)
            selected[binding] = len(entities)
            table_rows[binding] = len(info.index.table)
            if binding not in comparisons:
                comparisons[binding] = estimator.estimate_for_entities(entities)

        def note(kind: str, binding: str) -> str:
            if kind == "dedup":
                return f" {{est comparisons={comparisons[binding]}}}"
            if kind == "filter":
                return f" {{est rows={selected[binding]}}}"
            return f" {{rows={table_rows[binding]}}}"

        lines = [f"-- plan: dedup (mode={self.mode.value})"]
        lines.extend(self.root.pretty(note=note).splitlines())
        return lines, sum(comparisons.values())


class GroupEntitiesOp(PhysicalOperator):
    """The leaf of a DEDUP plan's operator tree: Deduplicate (-Join), the
    residual and Group-Entities of *plan*, run by the engine's executor
    (looked up on every run).  It yields the grouped tuples under
    ``plan.schema`` to the relational tail and keeps none of them."""

    def __init__(self, engine: "QueryEREngine", plan: DedupQueryPlan):  # noqa: F821
        super().__init__(plan.schema)
        self.engine = engine
        self.plan = plan

    def execute(self, context: ExecutionContext) -> Iterator[tuple]:
        yield from self.engine._executor.resolve(self.plan, context)

    def pretty(self, indent: int = 0, note: Note = no_note) -> str:
        """``GroupEntities`` over the residual, the joins nested left-deep
        in execution order and each binding's branch, one line per
        operator.  ``note(kind, binding)`` is appended to each
        ``Deduplicate`` (kind ``"dedup"``), ``Filter`` (``"filter"``) and
        ``TableScan`` (``"scan"``) line of a binding."""
        plan = self.plan
        info_by = {i.binding.lower(): i for i in plan.infos}
        dedup_label = "BatchDeduplicate" if plan.mode is ExecutionMode.BATCH else "Deduplicate"

        def branch(binding: str, clean_here: bool, depth: int) -> List[str]:
            info = info_by[binding]
            dedup = [dedup_label + note("dedup", binding)]
            filters = (
                [f"Filter[{info.condition}]" + note("filter", binding)]
                if info.condition is not None
                else []
            )
            scan = f"TableScan[{info.index.table.name} AS {info.binding}]" + note("scan", binding)
            if clean_here and plan.mode not in (ExecutionMode.NAIVE_SCAN, ExecutionMode.BATCH):
                parts = dedup + filters
            else:
                parts = filters + (dedup if clean_here else [])
            parts.append(scan)
            return ["  " * (depth + extra) + label for extra, label in enumerate(parts)]

        def join_line(label: str, step: JoinStep, depth: int) -> str:
            return (
                "  " * depth + f"{label}[{step.left_binding}.{step.left_column} = "
                f"{step.right_binding}.{step.right_column}]"
            )

        tree = ["  " * indent + "GroupEntities"]
        depth = indent + 1
        if plan.residual is not None:
            tree.append("  " * depth + f"Filter[{plan.residual}]")
            depth += 1
        steps = plan.join_steps
        if not steps:
            return "\n".join(tree + branch(plan.infos[0].binding.lower(), True, depth))
        aes = plan.mode is ExecutionMode.AES
        # The last step is the outermost node, the first the innermost.
        for step in reversed(steps[1:]):
            tree.append(join_line("DirtyRightJoin" if aes else "DeduplicateJoin", step, depth))
            depth += 1
        first = steps[0]
        clean = (plan.clean_first or first.left_binding).lower()
        if not aes:
            label = "DeduplicateJoin"
        elif clean == first.left_binding:
            label = "DirtyRightJoin"
        else:
            label = "DirtyLeftJoin"
        tree.append(join_line(label, first, depth))
        depth += 1
        for binding in (first.left_binding, first.right_binding):
            tree.extend(branch(binding, not aes or binding == clean, depth))
        # Tables entering at later steps (dirty in AES, cleaned otherwise).
        for step in steps[1:]:
            tree.extend(branch(step.right_binding, not aes, depth))
        return "\n".join(tree)


def analyze_lines(
    plan_lines: List[str],
    estimated_comparisons: Optional[int],
    actual_rows: int,
    actual_comparisons: int,
    elapsed_s: float,
    stage_times: Dict[str, float],
) -> List[str]:
    """The ``EXPLAIN ANALYZE`` report: the plan's lines, then the actual
    rows, estimated-vs-actual comparisons and per-stage seconds."""
    lines = list(plan_lines)
    lines.append("-- analyze --")
    estimated = "n/a" if estimated_comparisons is None else estimated_comparisons
    lines.append(f"rows: actual={actual_rows}")
    lines.append(f"comparisons: estimated={estimated} actual={actual_comparisons}")
    lines.append(f"elapsed: actual={elapsed_s:.6f}s")
    total = sum(stage_times.values())
    for stage in sorted(stage_times):
        seconds = stage_times[stage]
        share = f" ({100.0 * seconds / total:.1f}%)" if total > 0 else ""
        lines.append(f"stage {stage}: actual={seconds:.6f}s{share}")
    return lines


class DedupQueryPlanner:
    """Builds plans for ``SELECT DEDUP`` queries."""

    def __init__(self, engine: "QueryEREngine"):  # noqa: F821 (facade type)
        self.engine = engine
        self.relational = RelationalPlanner(engine.catalog)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def analyze(
        self, query: ast.SelectQuery
    ) -> Tuple[List[BindingInfo], List[JoinStep], Optional[ast.Expr]]:
        """Split the query into per-binding filters, join edges, residual."""
        refs = (query.table, *(j.table for j in query.joins))
        indices = [self.engine.index_of(ref.name) for ref in refs]
        resolution = resolve_bindings(
            query, [[c.name for c in index.table.schema] for index in indices]
        )
        infos: List[BindingInfo] = []
        for ref, index, exprs in zip(refs, indices, resolution.filters):
            condition = conjoin(exprs)
            where = compile_mask(condition, schema_for_table(index.table, ref.binding))
            infos.append(BindingInfo(ref.binding, index, condition, where))
        steps = [
            self._join_step(join, owners)
            for join, owners in zip(query.joins, resolution.join_owners)
        ]
        return infos, steps, conjoin(resolution.residual)

    @staticmethod
    def _join_step(join: ast.JoinClause, owners: Dict[ast.ColumnRef, str]) -> JoinStep:
        """The equi-join edge of *join*; *owners* maps each column of its
        condition to its binding (:func:`resolve_bindings`)."""
        condition = join.condition
        keys = equi_join_keys(condition)
        if keys is None:
            raise PlanningError(f"DEDUP joins must be equi-joins on columns, got {condition}")
        new_binding = join.table.binding.lower()
        refs = {owners[ref]: ref for ref in keys}
        if new_binding not in refs:
            raise PlanningError(
                f"join condition {condition} does not reference {join.table.binding}"
            )
        right_ref = refs.pop(new_binding)
        if len(refs) != 1:
            raise PlanningError(f"join condition {condition} must span two tables")
        left_owner, left_ref = next(iter(refs.items()))
        return JoinStep(left_owner, left_ref.name, new_binding, right_ref.name)

    # ----------------------------------------------------------------------
    # planning
    # ----------------------------------------------------------------------
    def plan(self, query: ast.SelectQuery, mode: ExecutionMode) -> DedupQueryPlan:
        """Analyse *query* once and produce its plan (with estimates).

        The relational tail is built here, once, over the plan's
        Group-Entities leaf, so an unknown select-list or ORDER BY column
        raises before any Deduplicate runs.
        """
        infos, steps, residual = self.analyze(query)
        joined = _joined_infos(infos, steps)
        schema = _output_schema(joined)
        plan = DedupQueryPlan(
            mode,
            query,
            infos,
            steps,
            residual,
            schema,
            compile_predicate(residual, schema),
            _read_columns(query, schema, joined),
        )
        plan.root = self.relational.tail(GroupEntitiesOp(self.engine, plan), query)
        if steps and mode is ExecutionMode.AES:
            info_by = {i.binding.lower(): i for i in infos}
            left_info = info_by[steps[0].left_binding]
            right_info = info_by[steps[0].right_binding]
            left_estimate = ComparisonEstimator(left_info.index).estimate(left_info.condition)
            right_estimate = ComparisonEstimator(right_info.index).estimate(right_info.condition)
            plan.estimates = {
                left_info.binding: left_estimate,
                right_info.binding: right_estimate,
            }
            plan.clean_first = (
                left_info.binding if left_estimate <= right_estimate else right_info.binding
            )
        return plan


def _joined_infos(infos: List[BindingInfo], steps: List[JoinStep]) -> List[BindingInfo]:
    """The bindings in the order the executor's join state binds them:
    the first join's left and right binding, then each later join's
    right binding."""
    info_by = {info.binding.lower(): info for info in infos}
    if not steps:
        return infos[:1]
    bindings = [steps[0].left_binding] + [step.right_binding for step in steps]
    return [info_by[binding.lower()] for binding in bindings]


def _output_schema(joined: List[BindingInfo]) -> PlanSchema:
    """The joined rows' schema: the *joined* bindings' columns in order."""
    return PlanSchema(
        [f for info in joined for f in schema_for_table(info.index.table, info.binding)]
    )


def _read_columns(
    query: ast.SelectQuery, schema: PlanSchema, joined: List[BindingInfo]
) -> ReadColumns:
    """The columns of *schema* the relational tail of *query* reads — the
    select list's, aggregate arguments included, and the GROUP BY keys'
    (ORDER BY names projected columns only) — as positions within the
    row of each of the *joined* bindings.  A ``*`` reads every column of
    every binding, an ``alias.*`` every column of its binding."""
    exprs = [item.expr for item in query.items] + list(query.group_by)
    stars = [expr.qualifier for expr in exprs if isinstance(expr, ast.Star)]
    positions = {
        schema.resolve(ref.name, ref.qualifier) for expr in exprs for ref in column_refs(expr)
    }
    positions.update(
        position
        for position, f in enumerate(schema)
        if any(q is None or f.qualifier.lower() == q.lower() for q in stars)
    )
    read: List[Tuple[int, ...]] = []
    offset = 0
    for info in joined:
        width = len(info.index.table.schema)
        read.append(tuple(sorted(p - offset for p in positions if offset <= p < offset + width)))
        offset += width
    return tuple(read)


# ===========================================================================
# execution
# ===========================================================================


def _semi_join(
    dirty: BindingInfo, dirty_column: str, rows: Iterable[Row], column: str
) -> Set[Any]:
    """Alg. 1 lines 4/9: the ids of *dirty*'s QE rows whose *dirty_column*
    value joins (:func:`join_value`) the *column* value of one of *rows*;
    NULL joins nothing."""
    values = {join_value(row[column]) for row in rows if row[column] is not None}
    return {
        row.id
        for row in dirty.qe_rows()
        if row[dirty_column] is not None and join_value(row[dirty_column]) in values
    }


#: A join-state entry: per bound binding, the ``repr`` of its cluster
#: representative and that cluster's distinct rows in first-seen order.
Entry = Tuple[Tuple[str, ...], Tuple[List[Row], ...]]


class JoinState:
    """Accumulated joined clusters, one entry per cluster combination.

    An entry stands for the product of its row lists (last binding
    fastest): the row combinations a row-at-a-time join would hold.
    The residual, the last step before Group-Entities, leaves each entry
    only the rows of its surviving combinations.  Entries' keys are
    distinct.
    """

    def __init__(self, bindings: List[str], results: Dict[str, DedupResult], entries: List[Entry]):
        self.bindings = bindings
        self.results = results
        self.entries = entries

    @classmethod
    def initial(cls, binding: str, result: DedupResult) -> "JoinState":
        """One entry per cluster of *result*, its rows in table order."""
        representative = result.links.representative
        clusters: Dict[str, List[Row]] = {}
        for row in result.rows():
            clusters.setdefault(repr(representative(row.id)), []).append(row)
        entries = [((key,), (rows,)) for key, rows in clusters.items()]
        return cls([binding], {binding: result}, entries)

    def binding_position(self, binding: str) -> int:
        for position, name in enumerate(self.bindings):
            if name.lower() == binding.lower():
                return position
        raise PlanningError(f"binding {binding!r} not in join state")


class DedupQueryExecutor:
    """Executes the ER part of a planned Dedupe Query: Deduplicate (-Join),
    the residual filter and Group-Entities."""

    #: The join state's class; a test oracle swaps in a row-combination one.
    join_state = JoinState

    def __init__(self, engine: "QueryEREngine"):  # noqa: F821
        self.engine = engine

    # -- entry point ------------------------------------------------------
    def resolve(self, plan: DedupQueryPlan, context: ExecutionContext) -> List[tuple]:
        """The Group-Entities tuples of *plan* (:meth:`DedupQueryPlanner.plan`'s
        output, possibly cached), which its relational tail reads."""
        if not plan.join_steps:
            info = plan.infos[0]
            result = self._resolved(info, plan.mode, context)
            state = self.join_state.initial(info.binding, result)
        else:
            state = self._execute_joins(plan, context)

        if plan.residual is not None:
            state = self._filter(state, plan.residual_predicate)

        # Aggregates fold over grouped entities, so each duplicate cluster
        # contributes once (the §10 dedupe-aware aggregation).
        with context.timed("group"):
            return self._group(state, plan.read)

    def _resolved(
        self, info: BindingInfo, mode: ExecutionMode, context: ExecutionContext
    ) -> DedupResult:
        """A binding's DR: NES and AES place Deduplicate above the Filter
        (§7.2.1), NAIVE_SCAN and BATCH clean the whole table first."""
        if mode in (ExecutionMode.NAIVE_SCAN, ExecutionMode.BATCH):
            return self._whole_table(info, mode, context)
        return self._clean(info, context)

    def _dedup_aware_filter(self, info: BindingInfo, full: DedupResult) -> DedupResult:
        """Filter *above* a whole-table Deduplicate (Fig. 5 semantics).

        A cluster survives when any member satisfies the predicate; the
        satisfying members are QE, the dragged-in ones QE̅.
        """
        qe = info.qe_ids()
        duplicates = full.links.closure(qe)
        return DedupResult(info.index.table, qe, duplicates - qe, full.links)

    # -- SPJ path -------------------------------------------------------------
    def _execute_joins(self, plan: DedupQueryPlan, context: ExecutionContext) -> JoinState:
        mode, steps = plan.mode, plan.join_steps
        info_by_binding = {i.binding.lower(): i for i in plan.infos}
        first = steps[0]
        left_info = info_by_binding[first.left_binding]
        right_info = info_by_binding[first.right_binding]

        if mode is ExecutionMode.AES:
            clean_first = (plan.clean_first or left_info.binding).lower()
            if clean_first == left_info.binding.lower():
                left_dr = self._clean(left_info, context)
                state = self.join_state.initial(left_info.binding, left_dr)
                state = self._join_dirty(state, first, right_info, context)
            else:
                right_dr = self._clean(right_info, context)
                with context.timed("other"):
                    reduced = _semi_join(
                        left_info, first.left_column, right_dr.rows(), first.right_column
                    )
                left_dr = self.engine.dedup_operator(left_info.index).deduplicate(
                    reduced, context
                )
                state = self.join_state.initial(left_info.binding, left_dr)
                state = self._join_clean(state, first, right_dr, right_info.binding, context)
        else:  # NES cleans both sides' QE, NAIVE_SCAN and BATCH whole tables
            left_dr = self._resolved(left_info, mode, context)
            right_dr = self._resolved(right_info, mode, context)
            state = self.join_state.initial(left_info.binding, left_dr)
            state = self._join_clean(state, first, right_dr, right_info.binding, context)

        # Remaining joins: in AES every new table enters dirty (reduced first).
        for step in steps[1:]:
            next_info = info_by_binding[step.right_binding]
            if mode is ExecutionMode.AES:
                state = self._join_dirty(state, step, next_info, context)
            else:
                next_dr = self._resolved(next_info, mode, context)
                state = self._join_clean(state, step, next_dr, next_info.binding, context)
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
        with context.timed("other"):
            accumulated = (row for _, clusters in state.entries for row in clusters[position])
            reduced = _semi_join(right_info, step.right_column, accumulated, step.left_column)
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
        with a resolved right side.

        Each left cluster's matched right rows expand to their clusters
        (E_right); every entry of the left cluster then pairs with each
        right cluster of E_right, whose rows it holds in ``repr`` order
        of their ids.  The right side is keyed once: a left cluster's
        E_right is the union of the cluster keys its join values reach.
        """
        with context.timed("other"):
            position = state.binding_position(step.left_binding)
            left_column = step.left_column
            right_column = step.right_column

            # One pass over the right side, in ``repr`` order of ids: each
            # cluster's rows under its key, and per join value the keys
            # of the clusters holding it.
            representative = right_dr.links.representative
            rows_of: Dict[str, List[Row]] = {}
            keys_of: Dict[Any, Set[str]] = {}
            for row in sorted(right_dr.rows(), key=lambda row: repr(row.id)):
                key = repr(representative(row.id))
                rows_of.setdefault(key, []).append(row)
                value = row[right_column]
                if value is not None:
                    keys_of.setdefault(join_value(value), set()).add(key)

            # Entries by the left binding's cluster.
            groups: Dict[str, List[Entry]] = {}
            for entry in state.entries:
                groups.setdefault(entry[0][position], []).append(entry)

            joined: List[Entry] = []
            for members in groups.values():
                matched: Set[str] = set()
                for _, clusters in members:
                    for row in clusters[position]:
                        value = row[left_column]
                        if value is not None:
                            matched.update(keys_of.get(join_value(value), ()))
                # A cluster's key is the repr of its smallest member by
                # repr, so key order is the order of each cluster's first row.
                right_keys = sorted(matched)
                for keys, clusters in members:
                    for right_key in right_keys:
                        joined.append((keys + (right_key,), clusters + (rows_of[right_key],)))

        results = dict(state.results)
        results[right_binding] = right_dr
        return JoinState(state.bindings + [right_binding], results, joined)

    # -- residual and Group-Entities ----------------------------------------------
    @staticmethod
    def _filter(state: JoinState, predicate: RowEvaluator) -> JoinState:
        """The residual over each entry's row combinations (last binding
        fastest); an entry keeps, per binding, the rows of its surviving
        combinations in first-seen order, and is dropped with none."""
        kept: List[Entry] = []
        for keys, clusters in state.entries:
            survivors: List[Dict[int, Row]] = [{} for _ in clusters]
            for combo in itertools.product(*clusters):
                if predicate(sum((row.values for row in combo), ())):
                    for seen, row in zip(survivors, combo):
                        seen.setdefault(id(row), row)
            if survivors[0]:
                kept.append((keys, tuple(list(seen.values()) for seen in survivors)))
        return JoinState(state.bindings, state.results, kept)

    @staticmethod
    def _group(state: JoinState, read: ReadColumns) -> List[tuple]:
        """Group-Entities: one fused tuple per entry, in key order.

        A binding's cluster of one row passes that row's values through
        (:func:`merge_values` of one value is that value); only clusters
        of two or more rows fuse, column by column, in first-seen order.
        *read* (:attr:`DedupQueryPlan.read`) names, per binding, the
        columns the tail reads: only those fuse, and the others keep the
        cluster's first row's value.
        """
        grouped: List[tuple] = []
        for _, clusters in sorted(state.entries, key=lambda entry: entry[0]):
            fused: List[Any] = []
            for binding, rows in enumerate(clusters):
                if len(rows) == 1:
                    fused.extend(rows[0].values)
                else:
                    values = list(rows[0].values)
                    for position in read[binding]:
                        values[position] = merge_values([row.values[position] for row in rows])
                    fused.extend(values)
            grouped.append(tuple(fused))
        return grouped
