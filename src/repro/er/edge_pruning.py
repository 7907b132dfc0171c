"""Edge Pruning over the blocking graph (Weighted Edge Pruning, WEP).

Paper §4/§6.1(iii): the block collection is transformed into a *blocking
graph* — a node per entity, an edge per co-occurring pair — each edge
weighted by the likelihood the pair matches.  Edges below the global
average weight are discarded, removing most superfluous comparisons while
retaining nearly all matching ones (Papadakis et al. [25, 27]).

Weighting schemes implemented (standard meta-blocking literature):

* ``CBS``  — Common Blocks Scheme: number of blocks the pair shares.
* ``ECBS`` — Enhanced CBS: CBS scaled by the inverse block-frequency of
  both entities (log |B|/|B_i| factors).
* ``JS``   — Jaccard Scheme: shared blocks over union of blocks.
* ``ARCS`` — Aggregate Reciprocal Comparisons: Σ 1/||b|| over shared
  blocks, favouring pairs meeting in small blocks.

The graph is built from CSR block spans over dense entity indices: each
unordered pair is one packed int (``left * n + right``), pair generation
and the per-scheme weights are bulk NumPy array operations, and Edge
Pruning consumes the arrays directly.  Summation order is part of the
contract: a pair's ARCS weight sums its reciprocals in block visit order
(ascending token id on the query path) and the average weight sums the
edges in ascending packed-key order, both strictly left to right.
"""

from __future__ import annotations

import enum
import math
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

#: Pairs :func:`generate_span_segments` enumerates per pass.  A pass
#: holds a handful of int64 scratch arrays as long as its pair count, so
#: this bounds the generator's scratch memory (a few MB) however many
#: pairs the span has.
_PAIRS_PER_PASS = 1 << 18


class WeightingScheme(enum.Enum):
    """Edge-weight definitions for the blocking graph."""

    CBS = "cbs"
    ECBS = "ecbs"
    JS = "js"
    ARCS = "arcs"


# -- construction helpers -----------------------------------------------------
#
# A build is split into *segment generation* (per-block work: dense-index
# sorting, pair enumeration, focus filtering, key packing) and
# *reduction* (per-pair weight-stat accumulation).  Generation is
# independent per contiguous block span; reduction is a single in-order
# pass.


def generate_span_segments(
    members: Any,
    indptr: Any,
    start: int,
    stop: int,
    n: int,
    in_focus: Optional[bytearray],
    need_arcs: bool,
) -> Tuple[Any, Any, Any]:
    """Every focus-incident pair of block span ``[start, stop)``.

    *members* holds dense entity indices grouped by block (block ``b``
    spans ``members[indptr[b] : indptr[b+1]]``), in any order within a
    block.  The whole span is handled by array operations, with no
    per-block loop: one ``lexsort`` orders the members within each
    block, each focus row pairs with every later member of its block,
    each non-focus row with every later *focus* member, and each pair
    gathers its block's ARCS reciprocal.  Pairs come out in block order,
    then ascending left and right member — the order a per-block nested
    loop would visit them in.  They are enumerated in passes of whole
    rows, about ``_PAIRS_PER_PASS`` pairs each, written straight into
    the outputs.

    Returns ``(keys, values, block_counts)``: packed pair keys, their
    reciprocals (``None`` unless *need_arcs*), and an int64 array of
    length *n* counting each entity's blocks in the span.
    """
    base = int(indptr[start])
    span = members[base : int(indptr[stop])]
    block_counts = np.bincount(span, minlength=n).astype(np.int64)
    sizes = np.diff(indptr[start : stop + 1]).astype(np.int64)
    block_of = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    rows = span[np.lexsort((span, block_of))]
    position = np.arange(len(rows), dtype=np.int64)
    # Span-local exclusive end of each row's block.
    ends = np.repeat(indptr[start + 1 : stop + 1] - base, sizes)
    if in_focus is None:
        focus_row = None
        counts = ends - position - 1
    else:
        focus_row = np.frombuffer(in_focus, dtype=np.uint8).view(np.bool_)[rows]
        focus_positions = np.flatnonzero(focus_row)
        # focus_before[x]: focus rows among span positions < x.
        focus_before = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(focus_row, out=focus_before[1:])
        counts = np.where(
            focus_row,
            ends - position - 1,
            focus_before[ends] - focus_before[position + 1],
        )
    # pair_end[r]: pairs of rows 0..r — row r's exclusive end in the output.
    pair_end = np.cumsum(counts)
    total = int(pair_end[-1]) if len(pair_end) else 0
    keys = np.empty(total, dtype=np.int64)
    values = None
    if need_arcs:
        cardinality = sizes * (sizes - 1) // 2
        reciprocal = np.zeros(len(sizes), dtype=np.float64)
        np.divide(1.0, cardinality, out=reciprocal, where=cardinality > 0)
        values = np.empty(total, dtype=np.float64)
    # Each pass ends at the last row finishing within the next multiple
    # of _PAIRS_PER_PASS pairs (a pass holds at most one more row).
    cuts = np.searchsorted(
        pair_end, np.arange(_PAIRS_PER_PASS, total, _PAIRS_PER_PASS), side="right"
    ).tolist()
    for lo, hi in zip([0] + cuts, cuts + [len(rows)]):
        if lo == hi:
            continue
        row_counts = counts[lo:hi]
        row_starts = pair_end[lo:hi] - row_counts
        out = slice(int(row_starts[0]), int(pair_end[hi - 1]))
        left = np.repeat(position[lo:hi], row_counts)
        # Rank of each pair among its row's pairs.
        offset = np.arange(out.start, out.stop, dtype=np.int64) - np.repeat(
            row_starts, row_counts
        )
        right = left + 1 + offset
        if focus_row is not None:
            # A non-focus row's partners are the focus rows after it.
            others = ~np.repeat(focus_row[lo:hi], row_counts)
            first_later_focus = np.repeat(focus_before[lo + 1 : hi + 1], row_counts)
            right[others] = focus_positions[first_later_focus[others] + offset[others]]
        np.multiply(rows[left], n, out=keys[out])
        keys[out] += rows[right]
        if need_arcs:
            values[out] = reciprocal[block_of[left]]
    return keys, values, block_counts


def reduce_span_segments(keys: Any, values: Any, need_arcs: bool) -> Tuple[Any, Any]:
    """Generated pairs → ``(edge_keys, edge_stats)``, edges by ascending key.

    One stable argsort groups each key's contributions in global block
    visit order; ARCS sums then accumulate them strictly left to right
    (``np.add.at`` is unbuffered and applies its operands in order,
    where a segmented reduction may reassociate them), and CBS counts
    are the group lengths.
    """
    empty_stats = np.empty(0, dtype=np.float64 if need_arcs else np.int64)
    if not len(keys):
        return np.empty(0, dtype=np.int64), empty_stats
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundaries = np.nonzero(np.diff(sorted_keys))[0] + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
    unique_keys = sorted_keys[starts]
    if need_arcs:
        edge_of = np.zeros(len(sorted_keys), dtype=np.int64)
        edge_of[boundaries] = 1
        np.cumsum(edge_of, out=edge_of)
        sums = np.zeros(len(unique_keys), dtype=np.float64)
        np.add.at(sums, edge_of, values[order])
    else:
        stops = np.concatenate((boundaries, np.array([len(sorted_keys)], dtype=np.int64)))
        sums = stops - starts
    return unique_keys, sums


class BlockingGraph:
    """Weighted co-occurrence graph over packed pair keys."""

    def __init__(
        self,
        scheme: WeightingScheme,
        block_count: int,
        universe: List[Any],
        index_of: Dict[Any, int],
        block_counts: List[int],
        edge_keys: Any,
        edge_stats: Any,
    ):
        """A graph assembled from already-reduced edge arrays.

        *universe* lists the entities by dense index (``index_of`` is
        its inverse), *block_counts* each entity's block count,
        *edge_keys* the packed pairs and *edge_stats* their
        :func:`reduce_span_segments` statistic (ARCS sums, else shared
        block counts).
        """
        self.scheme = scheme
        self._block_count = max(block_count, 1)
        self._universe = universe
        self._index_of = index_of
        self._n = len(universe)
        self._block_counts = block_counts
        self._edge_positions: Optional[Dict[int, int]] = None
        self._weights_memo = None
        self._edge_keys = edge_keys
        self._edge_stats = edge_stats

    # -- accessors ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._edge_keys)

    def nodes(self) -> Set[Any]:
        return set(self._universe)

    def _entity_boosts(self) -> List[float]:
        """Per-entity ECBS log boosts, computed once (bulk) per graph."""
        total = self._block_count
        return [
            math.log(total / count) if count else 0.0 for count in self._block_counts
        ]

    def _weights(self):
        """Per-edge weights in edge order, computed in bulk per scheme.

        Memoized: the graph is immutable after construction and WEP
        needs the array twice (average, then filter).
        """
        if self._weights_memo is None:
            self._weights_memo = self._compute_weights()
        return self._weights_memo

    def _compute_weights(self):
        stats = self._edge_stats
        if self.scheme is WeightingScheme.ARCS:
            return stats
        if self.scheme is WeightingScheme.CBS:
            return stats.astype(np.float64)
        keys = self._edge_keys
        n = self._n
        left = keys // n
        right = keys % n
        if self.scheme is WeightingScheme.JS:
            counts = np.asarray(self._block_counts, dtype=np.int64)
            union = counts[left] + counts[right] - stats
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(union != 0, stats / union, 0.0)
        # ECBS — math.log per entity (not np.log: bit-identical to the
        # scalar :meth:`_scheme_weight`), bulk multiply per edge.
        boosts = np.asarray(self._entity_boosts(), dtype=np.float64)
        boost_left = boosts[left]
        boost_right = boosts[right]
        weights = stats * boost_left * boost_right
        degenerate = (boost_left <= 0.0) | (boost_right <= 0.0)
        return np.where(degenerate, stats.astype(np.float64), weights)

    def _positions(self) -> Dict[int, int]:
        """Packed key → edge position, built lazily for point lookups."""
        positions = self._edge_positions
        if positions is None:
            positions = {key: i for i, key in enumerate(self._edge_keys.tolist())}
            self._edge_positions = positions
        return positions

    def weight(self, a: Any, b: Any) -> float:
        """Edge weight of pair ``(a, b)`` under the configured scheme."""
        ia = self._index_of.get(a)
        ib = self._index_of.get(b)
        if ia is None or ib is None:
            return 0.0
        if ia > ib:
            ia, ib = ib, ia
        position = self._positions().get(ia * self._n + ib)
        if position is None:
            return 0.0
        stat = self._edge_stats[position]
        if self.scheme is WeightingScheme.ARCS:
            return float(stat)
        return self._scheme_weight(
            int(stat), self._block_counts[ia], self._block_counts[ib]
        )

    def _scheme_weight(self, common: int, blocks_a: int, blocks_b: int) -> float:
        """One edge's CBS / ECBS / JS weight from its integer statistics."""
        if self.scheme is WeightingScheme.CBS:
            return float(common)
        if self.scheme is WeightingScheme.ECBS:
            total = self._block_count
            boost_a = math.log(total / blocks_a) if total else 0.0
            boost_b = math.log(total / blocks_b) if total else 0.0
            # Guard degenerate single-block collections: keep CBS ordering.
            if boost_a <= 0.0 or boost_b <= 0.0:
                return float(common)
            return common * boost_a * boost_b
        if self.scheme is WeightingScheme.JS:
            union = blocks_a + blocks_b - common
            return common / union if union else 0.0
        raise AssertionError(f"unhandled scheme {self.scheme!r}")

    def edges(self) -> Iterator[Tuple[Any, Any, float]]:
        """Iterate ``(a, b, weight)`` over all edges, in edge order."""
        universe = self._universe
        n = self._n
        weights = self._weights().tolist()
        for key, weight in zip(self._edge_keys.tolist(), weights):
            left, right = divmod(key, n)
            yield universe[left], universe[right], float(weight)

    def average_weight(self) -> float:
        """Mean edge weight — WEP's global pruning criterion.

        Summed left to right over the edges in edge order (``cumsum``,
        never ``np.sum``, whose pairwise summation rounds differently).
        """
        edge_count = len(self)
        if not edge_count:
            return 0.0
        return float(np.cumsum(self._weights())[-1]) / edge_count

    def retained_key_array(self, threshold: float) -> Any:
        """Packed keys whose weight is at or above *threshold* (bulk).

        The keys keep their edge order, so the caller can unpack them to
        id pairs without set materialization.
        """
        return self._edge_keys[self._weights() >= threshold]
