"""The planner's ER-specific statistic (paper §7.2.1(i)).

**Comparison estimation** — from the WHERE clause's string literals
(treated as blocking keys into the TBI) derive the approximate selected
set S_E ≈ QE, expand it to its table blocks, apply Block Purging + Block
Filtering, and evaluate the paper's comparison formula.  The chain stops
before Edge Pruning ("the cost of estimating the output of the Edge
Pruning ... is very high; we terminate our calculations at the BF
step").  BP/BF is candidate derivation's own stage
(:func:`~repro.er.packed_blocking.purge_and_filter`) over the table's
postings.

The planner reads it to pick the side of a join to clean first, and
``EXPLAIN`` prints it.  The paper's other two statistics, a sampled
duplication factor and per-table-pair join percentages, would only feed
row estimates that no plan choice reads, so they are not computed.
"""

from __future__ import annotations

from typing import Any, Optional, Set

import numpy as np

from repro.core.indices import TableIndex
from repro.er.block_filtering import DEFAULT_RATIO
from repro.er.block_purging import SMOOTHING_FACTOR
from repro.er.packed_blocking import purge_and_filter
from repro.er.tokenizer import tokenize_value
from repro.sql import ast
from repro.sql.expressions import string_literals


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
        """Entities in the TBI blocks of the literal's tokens (W_B).

        Looks tokens up without interning: a token the vocabulary does
        not know, or one whose posting is empty, selects nothing.
        """
        tokens = tokenize_value(literal)
        vocabulary = self.index.vocabulary
        if not tokens or not all(token in vocabulary for token in tokens):
            return set()
        postings = self.index.postings
        indptr, members = postings.members_of([vocabulary.id_of(t) for t in tokens])
        common = members[indptr[0] : indptr[1]]
        for i in range(1, len(tokens)):
            if not len(common):
                break
            common = np.intersect1d(common, members[indptr[i] : indptr[i + 1]])
        return set(postings.entity_ids_of(common))

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


def join_value(value: Any) -> Any:
    """Case-folded join key so dirty string variants still hash-join."""
    if isinstance(value, str):
        return value.lower()
    return value
