"""``EXPLAIN`` / ``EXPLAIN ANALYZE`` rendering.

Renders the plan the engine would execute as an indented operator tree
annotated with per-statement estimates (rows, comparisons; see
:mod:`repro.optimizer.cost`), plus — for ``ANALYZE`` — the actual
per-stage seconds the ``--profile`` plumbing captures and the actual
row/comparison counts next to their estimates.

A DEDUP plan's tree is :meth:`~repro.core.planner.DedupQueryPlan.tree`,
the one the plan's own ``pretty()`` prints; this module only adds the
``{est …}`` annotations.  Its operator labels are the executor's
vocabulary (``TableScan``, ``Filter``, ``Deduplicate``,
``BatchDeduplicate``, ``GroupEntities``, ``DirtyLeftJoin`` /
``DirtyRightJoin`` / ``DeduplicateJoin``, ``Project``), and every join
step is shown, in execution order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.planner import DedupQueryPlan, ExecutionMode
from repro.optimizer.cost import CostModel, DedupOrderCost
from repro.sql.logical import LogicalPlan


def _fmt(value: float) -> str:
    return str(int(round(value)))


def explain_dedup(engine, plan: DedupQueryPlan) -> Tuple[List[str], float]:
    """The annotated operator tree of a planned DEDUP query.

    Returns the tree's lines and the whole-plan comparison estimate
    (every binding's comparisons under this placement), which
    ``EXPLAIN ANALYZE`` reports next to the actual count.
    """
    infos, steps = plan.infos, plan.join_steps
    model = CostModel(engine)
    estimates = {i.binding.lower(): model.binding_estimate(i) for i in infos}
    order_cost: Optional[DedupOrderCost] = None
    if steps and plan.mode is ExecutionMode.AES and plan.clean_first is not None:
        try:
            order_cost = model.dedup_order_cost(infos, steps, plan.clean_first)
        except Exception:
            order_cost = None

    def est_comparisons(binding: str) -> float:
        if order_cost is not None and binding in order_cost.comparisons:
            return order_cost.comparisons[binding]
        return float(estimates[binding].comparisons)

    def est_rows(binding: str) -> float:
        if order_cost is not None and binding in order_cost.rows:
            return order_cost.rows[binding]
        return float(min(estimates[binding].dr_rows, estimates[binding].table_rows))

    def note(kind: str, binding: str) -> str:
        if kind == "dedup":
            return (
                f" {{est comparisons={_fmt(est_comparisons(binding))}, "
                f"est rows={_fmt(est_rows(binding))}}}"
            )
        if kind == "filter":
            return f" {{est rows={_fmt(estimates[binding].qe_rows)}}}"
        return f" {{rows={estimates[binding].table_rows}}}"

    lines = [f"-- plan: dedup (mode={plan.mode.value})"] + plan.tree(note)
    total = sum(est_comparisons(binding) for binding in estimates)
    return lines, total


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
