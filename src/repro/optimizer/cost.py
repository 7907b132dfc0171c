"""Per-statement row and comparison estimates for ``EXPLAIN``.

Extends the paper's §7.2.1 estimates — sample-based duplication factors
(:class:`~repro.core.statistics.TableStatistics`), WHERE-literal
comparison estimation (:class:`~repro.core.statistics.ComparisonEstimator`)
and pre-computed join percentages — from the first join's two branches,
which is all :class:`~repro.core.planner.DedupQueryPlanner` needs to
pick the side to clean first, to every binding of a left-deep AES join
sequence, so ``EXPLAIN`` can annotate each Deduplicate with the
comparisons and rows it is expected to see.  ``EXPLAIN`` builds one
:class:`CostModel` per statement; nothing here is cached across
statements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.core.planner import BindingInfo, JoinStep
from repro.core.statistics import ComparisonEstimator

#: Selectivity assumed for predicates the literal-based estimator cannot
#: bound (numeric ranges, ``MOD``, ``IS NULL`` …).  The estimator itself
#: stays a superset (paper: "possibly containing false-positives but not
#: the opposite"); this constant keeps such a filter from being estimated
#: as a full scan.
DEFAULT_SELECTIVITY = 0.33


@dataclass
class BindingEstimate:
    """Per-binding statistics snapshot the cost formulas consume."""

    binding: str
    table: str
    table_rows: int
    #: |S_E|: superset estimate of the rows the per-binding WHERE keeps.
    qe_rows: int
    #: Estimated post-BP/BF comparisons to clean that frontier (paper's C).
    comparisons: int
    #: Estimated |DR_E| = |QE| x (1 + duplication factor).
    dr_rows: int


@dataclass
class DedupOrderCost:
    """Estimates for one AES join order under one DEDUP placement."""

    #: Estimated comparisons actually executed per binding under this
    #: placement (the clean side pays its full frontier; every side
    #: entering dirty pays its semi-join-reduced share).
    comparisons: Dict[str, float] = field(default_factory=dict)
    #: Estimated surviving rows per binding after joins reduce it.
    rows: Dict[str, float] = field(default_factory=dict)


class CostModel:
    """Estimates one statement's bindings against engine statistics."""

    def __init__(self, engine):
        self.engine = engine
        self._binding_cache: Dict[Tuple[str, str], BindingEstimate] = {}

    # -- per-binding estimation -----------------------------------------
    def binding_estimate(self, info: BindingInfo) -> BindingEstimate:
        """Statistics snapshot for one FROM-clause binding (memoized)."""
        key = (info.binding.lower(), str(info.condition))
        cached = self._binding_cache.get(key)
        if cached is not None:
            return cached
        estimator = ComparisonEstimator(info.index)
        selected = estimator.selected_entities(info.condition)
        table_rows = len(info.index.table)
        qe_rows = len(selected)
        if info.condition is not None and qe_rows >= table_rows:
            # A filter exists but carries no usable literal: assume the
            # default selectivity rather than pricing it as a full scan.
            qe_rows = max(1, int(round(table_rows * DEFAULT_SELECTIVITY)))
        statistics = self.engine.statistics_of(info.index.table.name)
        estimate = BindingEstimate(
            binding=info.binding.lower(),
            table=info.index.table.name,
            table_rows=table_rows,
            qe_rows=qe_rows,
            comparisons=estimator.estimate_for_entities(selected),
            dr_rows=statistics.estimated_dr_size(qe_rows),
        )
        self._binding_cache[key] = estimate
        return estimate

    def join_fraction(
        self,
        entering: BindingEstimate,
        entering_column: str,
        partner: BindingEstimate,
        partner_column: str,
    ) -> float:
        """Fraction of the entering side surviving the semi-join reduction.

        ``join_percentage`` gives the whole-table fraction whose join
        value appears on the other side; the partner side has itself been
        reduced (filters, earlier joins), so the entering side's frontier
        shrinks by both factors.  Clamped to (0, 1].
        """
        entering_fraction, _ = self.engine.join_percentage(
            entering.table, partner.table, entering_column, partner_column
        )
        partner_presence = min(1.0, partner.dr_rows / partner.table_rows) if partner.table_rows else 1.0
        return max(1e-6, min(1.0, entering_fraction * partner_presence))

    # -- DEDUP plans ------------------------------------------------------
    def dedup_order_cost(
        self,
        infos: Sequence[BindingInfo],
        steps: Sequence[JoinStep],
        clean_first: str,
    ) -> DedupOrderCost:
        """Estimate one AES join order under one DEDUP placement.

        The clean-first side deduplicates its full post-WHERE frontier;
        the other side of the first join — and every later-entering
        table — is semi-join reduced before its Deduplicate runs, so its
        comparisons scale (linearly, a deliberate simplification) with
        the surviving fraction of its frontier.
        """
        by_binding = {i.binding.lower(): self.binding_estimate(i) for i in infos}
        first = steps[0]
        clean = clean_first.lower()
        dirty = first.right_binding if clean == first.left_binding else first.left_binding

        comparisons: Dict[str, float] = {}
        rows: Dict[str, float] = {}

        # Clean side: full-frontier Deduplicate above its Filter.
        clean_est = by_binding[clean]
        comparisons[clean] = float(clean_est.comparisons)
        rows[clean] = float(min(clean_est.dr_rows, clean_est.table_rows))

        # Dirty side of the first join: reduced by the clean DR's values.
        dirty_est = by_binding[dirty]
        dirty_column = first.right_column if dirty == first.right_binding else first.left_column
        clean_column = first.left_column if dirty == first.right_binding else first.right_column
        fraction = self.join_fraction(dirty_est, dirty_column, clean_est, clean_column)
        comparisons[dirty] = dirty_est.comparisons * fraction
        rows[dirty] = min(dirty_est.dr_rows * fraction, float(dirty_est.table_rows))

        # Later steps: every entering table is reduced against the
        # already-bound partner, then deduplicated, then cluster-joined.
        for step in steps[1:]:
            partner = step.left_binding
            entering = step.right_binding
            entering_est = by_binding[entering]
            partner_rows = rows.get(partner, float(by_binding[partner].table_rows))
            partner_est = by_binding[partner]
            fraction = self.join_fraction(
                entering_est, step.right_column, partner_est, step.left_column
            )
            # The partner may itself have shrunk below its DR estimate.
            if partner_est.dr_rows:
                fraction = max(
                    1e-6, min(1.0, fraction * min(1.0, partner_rows / partner_est.dr_rows))
                )
            comparisons[entering] = entering_est.comparisons * fraction
            rows[entering] = min(entering_est.dr_rows * fraction, float(entering_est.table_rows))

        return DedupOrderCost(comparisons=comparisons, rows=rows)
