"""ER-specific statistics for the cost-based planner (paper §7.2.1(i)).

Three estimators:

* **Comparison estimation** — from the WHERE clause's string literals
  (treated as blocking keys into the TBI) derive the approximate
  selected set S_E ≈ QE, expand it to its table blocks, apply Block
  Purging + Block Filtering, and evaluate the paper's comparison formula.
  The chain stops before Edge Pruning ("the cost of estimating the
  output of the Edge Pruning ... is very high; we terminate our
  calculations at the BF step").  BP/BF is candidate derivation's own
  stage (:func:`~repro.er.packed_blocking.purge_and_filter`) over the
  table's postings.
* **Duplication factor** — a sample of each table is cleaned with an
  all-pairs comparison; df = duplicates found / sample size, used to
  estimate |DR_E| from |QE|.  The sample runs the first time the
  planner reads the statistic (and again after an insert makes it
  stale), never at registration or load time.
* **Join percentage** — for every table pair, the fraction of rows whose
  join value appears on the other side, used to estimate how much a join
  shrinks each DR_E.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.dedup_join import _join_value
from repro.core.indices import TableIndex
from repro.er.block_filtering import DEFAULT_RATIO
from repro.er.block_purging import SMOOTHING_FACTOR
from repro.er.matching import ProfileMatcher, build_signature
from repro.er.packed_blocking import purge_and_filter
from repro.er.tokenizer import TokenVocabulary, tokenize_value
from repro.sql import ast
from repro.sql.expressions import string_literals
from repro.storage.table import Row, Table


class ComparisonEstimator:
    """Estimates post-BP/BF comparisons for a query over one table."""

    def __init__(
        self,
        index: TableIndex,
        smoothing: float = SMOOTHING_FACTOR,
        filter_ratio: float = DEFAULT_RATIO,
    ):
        self.index = index
        self.smoothing = smoothing
        self.filter_ratio = filter_ratio

    # -- S_E ------------------------------------------------------------
    def selected_entities(self, where: Optional[ast.Expr]) -> Set[Any]:
        """Approximate QE from WHERE-literal blocking keys (S_E).

        Walks the boolean structure: literals resolve to the union of
        entities in the blocks of their tokens (a multi-token literal
        intersects its tokens' blocks — the entity must mention all of
        them); AND intersects, OR unions.  Conditions that carry no
        usable literal (numeric ranges, MOD, IS NULL…) contribute "all
        entities", keeping the estimate a superset as required
        ("possibly containing false-positives but not the opposite").
        """
        if where is None:
            return set(self.index.table.ids)
        estimated = self._walk(where)
        if estimated is None:
            return set(self.index.table.ids)
        return estimated

    def _walk(self, node: ast.Expr) -> Optional[Set[Any]]:
        """None means "cannot bound" (≈ the whole table)."""
        if isinstance(node, ast.BooleanOp):
            parts = [self._walk(operand) for operand in node.operands]
            if node.op == "AND":
                bounded = [p for p in parts if p is not None]
                if not bounded:
                    return None
                result = set(bounded[0])
                for part in bounded[1:]:
                    result &= part
                return result
            # OR: unbounded operand ⇒ unbounded result.
            if any(p is None for p in parts):
                return None
            result = set()
            for part in parts:
                result |= part
            return result
        if isinstance(node, ast.NotOp):
            return None  # negation of a block set is ~everything
        literals = string_literals(node)
        if not literals:
            return None
        union: Set[Any] = set()
        for literal in literals:
            union |= self._entities_of_literal(literal)
        return union

    def _entities_of_literal(self, literal: str) -> Set[Any]:
        """Entities in the TBI blocks of the literal's tokens (W_B)."""
        tokens = tokenize_value(literal)
        if not tokens:
            return set()
        result: Optional[Set[Any]] = None
        for token in tokens:
            block = self.index.tbi.get(token)
            members = set(block.entities) if block is not None else set()
            result = members if result is None else (result & members)
            if not result:
                return set()
        return result or set()

    # -- comparisons ---------------------------------------------------------
    def estimate(self, where: Optional[ast.Expr]) -> int:
        """Estimated executed comparisons after BP + BF (paper's C)."""
        selected = self.selected_entities(where)
        return self.estimate_for_entities(selected)

    def estimate_for_entities(self, selected: Set[Any]) -> int:
        """C = Σ_{b ∈ SB} |q_b|·(|S_b| − (|q_b|+1)/2) after BP + BF.

        SB is the table blocks of the selected entities not yet resolved
        in the Link Index (the pending ones, q); |S_b| counts a block's
        members after BP/BF and |q_b| its pending ones.  Every term,
        |q_b|·|S_b| − |q_b|(|q_b|+1)/2, is an integer, so C is summed
        exactly in integers.
        """
        resolved = self.index.link_index.is_resolved
        pending = [e for e in selected if not resolved(e)]
        if not pending:
            return 0
        postings = self.index.postings
        dense = postings.dense_frontier(pending)
        tokens = postings.tokens_of_entities(dense)
        sizes, indptr, members = purge_and_filter(
            postings, tokens, postings.sizes_of(tokens), self.smoothing, self.filter_ratio
        )
        is_pending = np.zeros(postings.entity_count, dtype=bool)
        is_pending[dense] = True
        block_of = np.repeat(np.arange(len(sizes)), np.diff(indptr))
        q = np.bincount(block_of[is_pending[members]], minlength=len(sizes))
        return int((q * sizes - q * (q + 1) // 2).sum())


class TableStatistics:
    """Duplication factor of one table, from an all-pairs cleaned sample.

    A fraction of the table is cleaned with an exhaustive in-sample
    comparison (the sample is small, so the quadratic pair count is
    bounded) to estimate df = |duplicates| / |sample| (§7.2.1).  The
    pairs go through the batched Comparison-Execution entry point,
    :meth:`~repro.er.matching.ProfileMatcher.match_pair_indices`, on a
    private matcher configured like *matcher* and over signatures
    interned into a private vocabulary — so neither the table matcher's
    counters and memo nor the table index's vocabulary and signatures
    change.  (Token ids are assigned in first-intern order, and
    Edge Pruning visits blocks in token-id order; sample tokens
    interned into the table vocabulary first would reorder that.)  The
    decisions equal ``matcher.matches`` on every pair.
    """

    def __init__(
        self,
        index: TableIndex,
        matcher: ProfileMatcher,
        sample_fraction: float = 0.05,
        max_sample: int = 200,
        seed: int = 7,
    ):
        table = index.table
        rows = sample_rows(table, sample_fraction, max_sample, seed)
        duplicates = _count_duplicates(index, matcher, rows)
        self.sample_size = len(rows)
        self.sample_duplicates = duplicates
        self.duplication_factor = duplicates / len(rows) if rows else 0.0
        self.base_rows = len(table)
        self.appended_rows = 0

    def mark_appended(self, count: int) -> None:
        """Record that *count* rows were ingested since this sample ran."""
        self.appended_rows += count

    # -- (de)hydration ---------------------------------------------------
    def to_state(self) -> Dict[str, Any]:
        """The statistic's full state as plain JSON-serializable fields."""
        return {
            "sample_size": self.sample_size,
            "sample_duplicates": self.sample_duplicates,
            "duplication_factor": self.duplication_factor,
            "base_rows": self.base_rows,
            "appended_rows": self.appended_rows,
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "TableStatistics":
        """Rehydrate a persisted statistic without re-running the sample.

        A statistic restored with ``appended_rows > 0`` reports itself
        :attr:`stale` exactly like the live one did, so the engine's
        lazy-recompute path behaves identically after a reload.
        """
        statistics = cls.__new__(cls)
        statistics.sample_size = int(state["sample_size"])
        statistics.sample_duplicates = int(state["sample_duplicates"])
        statistics.duplication_factor = float(state["duplication_factor"])
        statistics.base_rows = int(state["base_rows"])
        statistics.appended_rows = int(state["appended_rows"])
        return statistics

    @property
    def stale(self) -> bool:
        """Whether appends since sampling invalidate the duplication factor.

        The cleaned sample no longer represents the collection once it
        has grown; ``QueryEREngine.statistics_of`` recomputes a stale
        statistic on its next read.
        """
        return self.appended_rows > 0

    def estimated_dr_size(self, qe_size: int) -> int:
        """Estimated |DR_E| for a query evaluating *qe_size* entities."""
        return int(round(qe_size * (1.0 + self.duplication_factor)))


def sample_rows(
    table: Table, sample_fraction: float = 0.05, max_sample: int = 200, seed: int = 7
) -> List[Row]:
    """The rows :class:`TableStatistics` cleans for the duplication factor."""
    fraction = min(1.0, max(sample_fraction, 1e-9))
    return list(table.sample(fraction, seed=seed, limit=max_sample))


def _count_duplicates(index: TableIndex, matcher: ProfileMatcher, rows: List[Row]) -> int:
    """Matching pairs among *rows*, all pairs in one batched call."""
    if len(rows) < 2:
        return 0
    private = ProfileMatcher(
        similarity=matcher.similarity,
        threshold=matcher.threshold,
        exclude=matcher.exclude,
    )
    vocabulary = TokenVocabulary()
    attributes = index.entities.attributes_of_row
    signatures = {
        row.id: build_signature(row.id, attributes(row), vocabulary, private.exclude)
        for row in rows
    }
    pairs = list(combinations(signatures, 2))
    return len(private.match_pair_indices(pairs, signatures))


def join_percentage(
    left: TableIndex,
    right: TableIndex,
    left_column: str,
    right_column: str,
) -> Tuple[float, float]:
    """Fraction of each side whose join value appears on the other side.

    The paper pre-computes it per table pair (§7.2.1: "we pre-compute
    for every table pair the percentage of entities that join"); the
    engine computes it on first read and caches it until an insert.
    Join values are folded exactly as the Deduplicate-Join folds them.
    """
    left_values = _join_value_counts(left.table, left_column)
    right_values = _join_value_counts(right.table, right_column)
    left_total = len(left.table) or 1
    right_total = len(right.table) or 1
    left_joining = sum(count for value, count in left_values.items() if value in right_values)
    right_joining = sum(count for value, count in right_values.items() if value in left_values)
    return left_joining / left_total, right_joining / right_total


def _join_value_counts(table: Table, column: str) -> Counter:
    values = table.column_values()[table.schema.position(column)]
    return Counter(_join_value(value) for value in values if value is not None)
