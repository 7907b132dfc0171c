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

The graph is built from CSR block spans over dense entity indices —
positions in a universe that candidate derivation lays out in the
table's entity-id order, from the postings' rank arrays: each
unordered pair is one packed int (``left * n + right``), pair generation
and the per-scheme weights are bulk NumPy array operations, and Edge
Pruning consumes the arrays directly.  Every sort is over a single int
key, with no multi-key ``lexsort``.  Summation order is part of the
contract, unchanged: a pair's ARCS weight sums its reciprocals in block
visit order (ascending token id on the query path) and the average
weight sums the edges in ascending packed-key order, both strictly left
to right.
"""

from __future__ import annotations

import enum
import math
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

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
# *reduction* (per-pair weight-stat accumulation), a single in-order pass.


def generate_span_segments(
    members: Any,
    indptr: Any,
    n: int,
    in_focus: Optional[Any],
    need_arcs: bool,
) -> Tuple[Any, Any, Any]:
    """Every focus-incident pair of the blocks *indptr* delimits.

    *members* holds dense entity indices grouped by block (block ``b``
    spans ``members[indptr[b] : indptr[b+1]]``), in any order within a
    block.  All blocks are handled by array operations, with no
    per-block loop: one sort of the single key ``block · n + member``
    orders the members within each block (free when they already are),
    each focus row pairs with every later member of its block,
    each non-focus row with every later *focus* member, and each pair
    gathers its block's ARCS reciprocal.  Pairs come out in block order,
    then ascending left and right member — the order a per-block nested
    loop would visit them in.  They are enumerated in passes of whole
    rows, about ``_PAIRS_PER_PASS`` pairs each, written straight into
    the outputs.

    *in_focus* is a bytes-like mask over the *n* entities (a
    ``bytearray`` or a uint8 array), or ``None`` for no focus.

    Returns ``(keys, values, block_counts)``: packed pair keys, their
    reciprocals (``None`` unless *need_arcs*), and an int64 array of
    length *n* counting each entity's blocks.
    """
    base = int(indptr[0])
    span = members[base : int(indptr[-1])]
    block_counts = np.bincount(span, minlength=n).astype(np.int64)
    sizes = np.diff(indptr).astype(np.int64)
    block_of = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    block_base = block_of * n
    rows = block_base + span
    # Candidate derivation hands the members over already in order; a
    # plain sort of sorted keys costs ten times the check.
    if not (rows[1:] >= rows[:-1]).all():
        rows.sort()
    rows -= block_base
    position = np.arange(len(rows), dtype=np.int64)
    # Exclusive end of each row's block, relative to the first block.
    ends = np.repeat(indptr[1:] - base, sizes)
    # Row r's j-th partner is partners[first[r] + j]: a focus row pairs
    # with every later row of its block, a non-focus row with every
    # later focus row, read from a second table holding the focus rows
    # alone.
    if in_focus is None:
        partners = rows
        first = position + 1
        counts = ends - first
    else:
        focus_row = np.frombuffer(in_focus, dtype=np.uint8).view(np.bool_)[rows]
        # focus_before[x]: focus rows among span positions < x.
        focus_before = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(focus_row, out=focus_before[1:])
        partners = np.concatenate((rows, rows[focus_row]))
        first = np.where(focus_row, position + 1, len(rows) + focus_before[position + 1])
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
        row_reciprocal = reciprocal[block_of]
        values = np.empty(total, dtype=np.float64)
    # Each pass ends at the last row finishing within the next multiple
    # of _PAIRS_PER_PASS pairs (a pass holds at most one more row).
    cuts = np.searchsorted(
        pair_end, np.arange(_PAIRS_PER_PASS, total, _PAIRS_PER_PASS), side="right"
    ).tolist()
    for lo, hi in zip([0] + cuts, cuts + [len(rows)]):
        start = int(pair_end[lo - 1]) if lo else 0
        stop = int(pair_end[hi - 1]) if hi else 0
        if start == stop:
            continue
        row_counts = counts[lo:hi]
        # Each pair's partner index: its row's first partner plus the
        # pair's rank among the row's pairs.
        index = np.repeat(first[lo:hi] - (pair_end[lo:hi] - row_counts), row_counts)
        index += np.arange(start, stop, dtype=np.int64)
        out = keys[start:stop]
        np.multiply(np.repeat(rows[lo:hi], row_counts), n, out=out)
        out += partners[index]
        if need_arcs:
            values[start:stop] = np.repeat(row_reciprocal[lo:hi], row_counts)
    return keys, values, block_counts


def reduce_span_segments(keys: Any, values: Any, need_arcs: bool) -> Tuple[Any, Any]:
    """Generated pairs → ``(edge_keys, edge_stats)``, edges by ascending key.

    One stable argsort groups each key's contributions in global block
    visit order.  CBS counts are the group lengths; ARCS sums add each
    edge's reciprocals with ``np.bincount``, which accumulates strictly
    left to right in that order, where a segmented reduction may
    reassociate them.
    """
    m = len(keys)
    if not m:
        return np.empty(0, dtype=np.int64), np.empty(
            0, dtype=np.float64 if need_arcs else np.int64
        )
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.empty(m, dtype=np.bool_)
    first[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    unique_keys = sorted_keys[starts]
    if not need_arcs:
        return unique_keys, np.diff(starts, append=m)
    edge_of = np.cumsum(first)
    edge_of -= 1
    return unique_keys, np.bincount(edge_of, weights=values[order], minlength=len(starts))


class BlockingGraph:
    """Weighted co-occurrence graph over packed pair keys."""

    def __init__(
        self,
        scheme: WeightingScheme,
        block_count: int,
        universe: Sequence[Any],
        block_counts: Any,
        edge_keys: Any,
        edge_stats: Any,
    ):
        """A graph assembled from already-reduced edge arrays.

        *universe* lists the entities by dense index (a list or an
        object array), *block_counts* is an int array of each entity's
        block count, *edge_keys* the packed pairs and *edge_stats* their
        :func:`reduce_span_segments` statistic (ARCS sums, else shared
        block counts).
        """
        self.scheme = scheme
        self._block_count = max(block_count, 1)
        self._universe = universe
        self._index_of: Optional[Dict[Any, int]] = None
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
            math.log(total / count) if count else 0.0
            for count in self._block_counts.tolist()
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
            counts = self._block_counts
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
        """Edge weight of pair ``(a, b)`` under the configured scheme.

        The first call indexes the universe (entity → dense index).
        """
        if self._index_of is None:
            self._index_of = {entity: i for i, entity in enumerate(self._universe)}
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
            int(stat), int(self._block_counts[ia]), int(self._block_counts[ib])
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
