"""``EXPLAIN`` / ``EXPLAIN ANALYZE`` rendering.

Renders the plan the engine would execute as an indented operator tree
annotated with per-statement estimates (rows, comparisons; see
:mod:`repro.optimizer.cost`), plus — for ``ANALYZE`` — the actual
per-stage seconds the ``--profile`` plumbing captures and the actual
row/comparison counts next to their estimates.

The operator labels are the executor's vocabulary (``TableScan``,
``Filter``, ``Deduplicate``, ``BatchDeduplicate``, ``GroupEntities``,
``DirtyLeftJoin`` / ``DirtyRightJoin`` / ``DeduplicateJoin``,
``Project``), unchanged from the planner's ``_describe`` — tools and
tests that grep for them keep working.  Unlike ``_describe``, *every*
join step is shown, in execution order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.planner import DedupQueryPlan, DedupQueryPlanner, ExecutionMode
from repro.optimizer.cost import CostModel, DedupOrderCost
from repro.sql import ast
from repro.sql.logical import LogicalPlan


def _fmt(value: float) -> str:
    return str(int(round(value)))


def explain_dedup(
    engine,
    query: ast.SelectQuery,
    mode: ExecutionMode,
    plan: DedupQueryPlan,
) -> Tuple[List[str], float]:
    """The annotated operator tree of a planned DEDUP query.

    Returns the tree's lines and the whole-plan comparison estimate
    (every binding's comparisons under this placement), which
    ``EXPLAIN ANALYZE`` reports next to the actual count.
    """
    infos, steps, residual = DedupQueryPlanner(engine).analyze(query)
    info_by = {i.binding.lower(): i for i in infos}

    model = CostModel(engine)
    estimates = {i.binding.lower(): model.binding_estimate(i) for i in infos}
    order_cost: Optional[DedupOrderCost] = None
    if steps and mode is ExecutionMode.AES and plan.clean_first is not None:
        try:
            order_cost = model.dedup_order_cost(infos, steps, plan.clean_first)
        except Exception:
            order_cost = None

    lines = [f"-- plan: dedup (mode={mode.value})"]

    def est_comparisons(binding: str) -> float:
        if order_cost is not None and binding in order_cost.comparisons:
            return order_cost.comparisons[binding]
        return float(estimates[binding].comparisons)

    def est_rows(binding: str) -> float:
        if order_cost is not None and binding in order_cost.rows:
            return order_cost.rows[binding]
        return float(min(estimates[binding].dr_rows, estimates[binding].table_rows))

    def branch(binding: str, clean_here: bool, depth: int) -> List[str]:
        info = info_by[binding]
        pad = "  " * depth
        out: List[str] = []
        dedup_label = (
            "BatchDeduplicate" if plan.mode is ExecutionMode.BATCH else "Deduplicate"
        )
        dedup_line = (
            f"{dedup_label} {{est comparisons={_fmt(est_comparisons(binding))}, "
            f"est rows={_fmt(est_rows(binding))}}}"
        )
        filter_line = (
            f"Filter[{info.condition}] {{est rows={_fmt(estimates[binding].qe_rows)}}}"
            if info.condition is not None
            else None
        )
        scan_line = (
            f"TableScan[{info.index.table.name} AS {info.binding}] "
            f"{{rows={estimates[binding].table_rows}}}"
        )
        if clean_here and plan.mode not in (ExecutionMode.NAIVE_SCAN, ExecutionMode.BATCH):
            parts = [dedup_line] + ([filter_line] if filter_line else [])
        else:
            parts = ([filter_line] if filter_line else []) + (
                [dedup_line] if clean_here else []
            )
        parts.append(scan_line)
        for extra, label in enumerate(parts):
            out.append(pad + "  " * extra + label)
        return out

    tree: List[str] = [f"Project[{', '.join(str(i) for i in query.items)}]"]
    tree.append("  GroupEntities")
    depth = 2
    if residual is not None:
        tree.append("  " * depth + f"Filter[{residual}]")
        depth += 1
    if not steps:
        binding = infos[0].binding.lower()
        tree.extend(branch(binding, True, depth))
    else:
        clean = (plan.clean_first or steps[0].left_binding).lower()
        # Joins nest left-deep in execution order: the last step is the
        # outermost node, the first step the innermost.
        for position in range(len(steps) - 1, 0, -1):
            step = steps[position]
            label = (
                "DirtyRightJoin"
                if plan.mode is ExecutionMode.AES
                else "DeduplicateJoin"
            )
            tree.append(
                "  " * depth
                + f"{label}[{step.left_binding}.{step.left_column} = "
                f"{step.right_binding}.{step.right_column}]"
            )
            depth += 1
        first = steps[0]
        if plan.mode is ExecutionMode.AES:
            dirty = (
                first.right_binding
                if clean == first.left_binding
                else first.left_binding
            )
            label = "DirtyRightJoin" if dirty == first.right_binding else "DirtyLeftJoin"
        else:
            label = "DeduplicateJoin"
        tree.append(
            "  " * depth
            + f"{label}[{first.left_binding}.{first.left_column} = "
            f"{first.right_binding}.{first.right_column}]"
        )
        depth += 1
        seen: List[str] = []
        for binding in (first.left_binding, first.right_binding):
            clean_here = (
                plan.mode in (ExecutionMode.NES, ExecutionMode.NAIVE_SCAN, ExecutionMode.BATCH)
                or binding == clean
            )
            tree.extend(branch(binding, clean_here, depth))
            seen.append(binding)
        # Tables entering at later steps (dirty in AES, cleaned otherwise).
        for step in steps[1:]:
            clean_here = plan.mode is not ExecutionMode.AES
            tree.extend(branch(step.right_binding, clean_here, depth))
    total = sum(est_comparisons(binding) for binding in estimates)
    return lines + tree, total


def relational_plan_lines(plan: LogicalPlan) -> List[str]:
    """The logical tree of a relational plan."""
    return ["-- plan: relational"] + plan.pretty().splitlines()


def analyze_lines(
    plan_lines: List[str],
    estimated_comparisons: Optional[float],
    estimated_rows: Optional[float],
    actual_rows: int,
    actual_comparisons: int,
    elapsed_s: float,
    stage_times: Dict[str, float],
) -> List[str]:
    """The ``EXPLAIN ANALYZE`` report: plan + estimated-vs-actual costs."""
    lines = list(plan_lines)
    lines.append("-- analyze --")
    est_rows = _fmt(estimated_rows) if estimated_rows is not None else "n/a"
    est_cmp = _fmt(estimated_comparisons) if estimated_comparisons is not None else "n/a"
    lines.append(f"rows: estimated={est_rows} actual={actual_rows}")
    lines.append(f"comparisons: estimated={est_cmp} actual={actual_comparisons}")
    lines.append(f"elapsed: actual={elapsed_s:.6f}s")
    total = sum(stage_times.values())
    for stage in sorted(stage_times):
        seconds = stage_times[stage]
        share = f" ({100.0 * seconds / total:.1f}%)" if total > 0 else ""
        lines.append(f"stage {stage}: actual={seconds:.6f}s{share}")
    return lines
