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

Graph construction is the meta-blocking hot path, so the default
(``packed=True``) build maps entities to dense integer indices once and
represents each unordered pair as a single packed int (``left * n +
right``).  Pair generation over the whole collection and the per-scheme
weight computation run as bulk NumPy array operations, and Edge Pruning
consumes the arrays directly instead of iterating an edge generator.

The unpacked build (the pre-fast-path implementation) is kept for the
perf-regression baseline.  Both builds are observationally identical —
same weights, same edge iteration order, same pruning output, bit for
bit: pairs are visited in the baseline's exact order, per-pair weight
accumulation (``np.add.at`` is unbuffered and in-order) reproduces the
baseline's float additions, and the average weight is summed in the
baseline's edge-insertion order.
"""

from __future__ import annotations

import enum
import math
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.er.blocking import Block, BlockCollection
from repro.er.util import ordered_pair, safe_sorted

#: Backwards-compatible aliases; shared definitions live in repro.er.util.
_safe_sorted = safe_sorted
_ordered = ordered_pair

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
# The packed build is split into *segment generation* (per-block work:
# dense-index sorting, pair enumeration, focus filtering, key packing)
# and *reduction* (per-pair weight-stat accumulation).  Generation is
# independent per contiguous block span; reduction is a single in-order
# pass.  Every build — the Block-object graph, the serial span build and
# the shard runtime (:mod:`repro.parallel`) — generates through
# :func:`generate_span_segments`, so a sharded build concatenating
# per-span results in block order is *the same computation* as the
# serial one — bit for bit.


def prepare_packed_universe(
    collection: BlockCollection, focus: Optional[Set[Any]]
) -> Tuple[List[Any], Dict[Any, int], Optional[bytearray]]:
    """Entity universe, dense index mapping and focus mask of a build.

    Entities are sorted once, globally: per-block integer sorts then
    reproduce the unpacked build's per-block entity sorts, so pair visit
    order — and therefore weight accumulation order and edge order — is
    preserved exactly.
    """
    universe = safe_sorted(collection.entity_ids())
    index_of: Dict[Any, int] = {entity: i for i, entity in enumerate(universe)}
    if focus is None:
        in_focus = None
    else:
        in_focus = bytearray(len(universe))
        for entity in focus:
            i = index_of.get(entity)
            if i is not None:
                in_focus[i] = 1
    return universe, index_of, in_focus


def collection_span(
    blocks: Iterable[Block], index_of: Dict[Any, int]
) -> Tuple[Any, Any]:
    """``(members, indptr)``: *blocks* as one CSR span of dense indices,
    in block visit order — the input :func:`generate_span_segments`
    takes."""
    blocks = list(blocks)
    sizes = np.fromiter((block.size for block in blocks), dtype=np.int64, count=len(blocks))
    indptr = np.zeros(len(blocks) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    members = np.fromiter(
        (index_of[e] for block in blocks for e in block.entities),
        dtype=np.int64,
        count=int(indptr[-1]),
    )
    return members, indptr


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


def reduce_packed_segments(keys: Any, values: Any, need_arcs: bool) -> Tuple[Any, Any]:
    """In-order reduction of generated pairs to (edge_keys, edge_stats).

    Edges come back in first-visit order — the order the unpacked
    build's dict would iterate them in — and per-key accumulation
    (``np.add.at`` is unbuffered and in-order) reproduces the unpacked
    build's float additions exactly.
    """
    if not len(keys):
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64) if need_arcs else np.empty(0, dtype=np.int64),
        )
    unique_keys, first_seen, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    insertion = np.argsort(first_seen)
    if need_arcs:
        sums = np.zeros(len(unique_keys), dtype=np.float64)
        np.add.at(sums, inverse, values)
        edge_stats = sums[insertion]
    else:
        edge_stats = np.bincount(inverse, minlength=len(unique_keys))[insertion]
    return unique_keys[insertion], edge_stats


def reduce_span_segments(keys: Any, values: Any, need_arcs: bool) -> Tuple[Any, Any]:
    """Sorted-key reduction for the columnar blocking pipeline.

    The packed-TBI pipeline owns its ordering contract (edges in
    ascending packed-key order rather than the dict path's first-visit
    order), which unlocks a much cheaper reduction than
    :func:`reduce_packed_segments`: one stable argsort, boundary
    detection, and ``np.add.reduceat`` — no ``np.unique`` index
    juggling, no unbuffered ``np.add.at``.  Per-key contributions still
    accumulate left-to-right in global block visit order (the stable
    sort preserves it), so a sharded build concatenating span results in
    partition order reduces bit-identically to the serial span build.
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
        sums = np.add.reduceat(values[order], starts)
    else:
        stops = np.concatenate((boundaries, np.array([len(sorted_keys)], dtype=np.int64)))
        sums = stops - starts
    return unique_keys, sums


class BlockingGraph:
    """Weighted co-occurrence graph of a block collection."""

    def __init__(
        self,
        collection: BlockCollection,
        scheme: WeightingScheme = WeightingScheme.ARCS,
        focus: Optional[Set[Any]] = None,
        packed: bool = True,
    ):
        """Build the graph; with *focus* set, only edges incident to a
        focus entity are materialized.  The Deduplicate operator passes
        its query frontier here: Comparison-Execution only ever runs
        QE-incident pairs (§6.1(iv)), so the rest of the graph would be
        built and thrown away.  *packed* selects the array-based build
        (see module docstring); both builds are observationally
        identical."""
        self.scheme = scheme
        self.packed = packed
        self._block_count = max(len(collection), 1)
        if packed:
            self._build_packed(collection, focus)
        else:
            self._build_unpacked(collection, focus)

    # -- packed construction ----------------------------------------------
    def _build_packed(self, collection: BlockCollection, focus: Optional[Set[Any]]) -> None:
        """Bulk pair generation + in-order reduction."""
        universe, index_of, in_focus = prepare_packed_universe(collection, focus)
        self._universe = universe
        self._index_of = index_of
        self._n = len(universe)
        self._edge_positions: Optional[Dict[int, int]] = None
        self._weights_memo = None
        need_arcs = self.scheme is WeightingScheme.ARCS
        members, indptr = collection_span(collection, index_of)
        keys, values, block_counts = generate_span_segments(
            members, indptr, 0, len(indptr) - 1, self._n, in_focus, need_arcs
        )
        self._block_counts = block_counts.tolist()
        self._edge_keys, self._edge_stats = reduce_packed_segments(
            keys, values, need_arcs
        )

    @classmethod
    def from_arrays(
        cls,
        scheme: WeightingScheme,
        block_count: int,
        universe: List[Any],
        index_of: Dict[Any, int],
        block_counts: List[int],
        edge_keys: Any,
        edge_stats: Any,
    ) -> "BlockingGraph":
        """A packed graph assembled from already-reduced edge arrays.

        The columnar pipeline (serial or sharded) reduces its span
        segments with :func:`reduce_span_segments` and hands the result
        here; the graph is indistinguishable from one built serially
        over that order.
        """
        graph = cls.__new__(cls)
        graph.scheme = scheme
        graph.packed = True
        graph._block_count = max(block_count, 1)
        graph._universe = universe
        graph._index_of = index_of
        graph._n = len(universe)
        graph._block_counts = block_counts
        graph._edge_positions = None
        graph._weights_memo = None
        graph._edge_keys = edge_keys
        graph._edge_stats = edge_stats
        return graph

    # -- unpacked construction --------------------------------------------
    def _build_unpacked(self, collection: BlockCollection, focus: Optional[Set[Any]]) -> None:
        # Per-entity block membership counts and per-pair shared stats.
        entity_blocks: Dict[Any, int] = {}
        shared_blocks: Dict[Tuple[Any, Any], int] = {}
        shared_arcs: Dict[Tuple[Any, Any], float] = {}
        for block in collection:
            members = safe_sorted(block.entities)
            reciprocal = 1.0 / block.cardinality if block.cardinality else 0.0
            for entity in members:
                entity_blocks[entity] = entity_blocks.get(entity, 0) + 1
            # Members are sorted, so (left, right) is already canonical.
            for i, left in enumerate(members):
                left_in_focus = focus is None or left in focus
                for right in members[i + 1 :]:
                    if not left_in_focus and right not in focus:
                        continue
                    pair = (left, right)
                    shared_blocks[pair] = shared_blocks.get(pair, 0) + 1
                    shared_arcs[pair] = shared_arcs.get(pair, 0.0) + reciprocal
        self._entity_blocks = entity_blocks
        self._shared_blocks = shared_blocks
        self._shared_arcs = shared_arcs

    # -- accessors ---------------------------------------------------------
    def __len__(self) -> int:
        if self.packed:
            return len(self._edge_keys)
        return len(self._shared_blocks)

    def nodes(self) -> Set[Any]:
        if self.packed:
            return set(self._universe)
        return set(self._entity_blocks)

    def _entity_boosts(self) -> List[float]:
        """Per-entity ECBS log boosts, computed once (bulk) per graph."""
        total = self._block_count
        return [
            math.log(total / count) if count else 0.0 for count in self._block_counts
        ]

    def _packed_weights(self):
        """Per-edge weights in edge order, computed in bulk per scheme.

        Memoized: the graph is immutable after construction and WEP
        needs the array twice (average, then filter).
        """
        if self._weights_memo is None:
            self._weights_memo = self._compute_packed_weights()
        return self._weights_memo

    def _compute_packed_weights(self):
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
        # scalar baseline), bulk multiply per edge.
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
        if self.packed:
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
            common = int(stat)
            return self._scheme_weight(
                common, self._block_counts[ia], self._block_counts[ib], 0.0
            )
        pair = ordered_pair(a, b)
        common = self._shared_blocks.get(pair, 0)
        if common == 0:
            return 0.0
        return self._scheme_weight(
            common,
            self._entity_blocks[pair[0]],
            self._entity_blocks[pair[1]],
            self._shared_arcs.get(pair, 0.0),
        )

    def _scheme_weight(self, common: int, blocks_a: int, blocks_b: int, arcs: float) -> float:
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
        if self.scheme is WeightingScheme.ARCS:
            return arcs
        raise AssertionError(f"unhandled scheme {self.scheme!r}")

    def _unpack(self, key: int) -> Tuple[Any, Any]:
        left, right = divmod(key, self._n)
        universe = self._universe
        return universe[left], universe[right]

    def edges(self) -> Iterator[Tuple[Any, Any, float]]:
        """Iterate ``(a, b, weight)`` over all edges.

        Weights come from the bulk per-scheme computation in edge
        (first-visit) order; the unpacked graph keeps the original
        per-pair paths.
        """
        if self.packed:
            universe = self._universe
            n = self._n
            weights = self._packed_weights().tolist()
            for key, weight in zip(self._edge_keys.tolist(), weights):
                left, right = divmod(key, n)
                yield universe[left], universe[right], float(weight)
            return
        if self.scheme is WeightingScheme.ARCS:
            for (a, b), w in self._shared_arcs.items():
                yield a, b, w
            return
        if self.scheme is WeightingScheme.CBS:
            for (a, b), common in self._shared_blocks.items():
                yield a, b, float(common)
            return
        for (a, b) in self._shared_blocks:
            yield a, b, self.weight(a, b)

    def average_weight(self) -> float:
        """Mean edge weight — WEP's global pruning criterion.

        Summation runs left-to-right over edges in first-visit order on
        both the packed and unpacked paths, so the threshold is the same
        float either way.
        """
        edge_count = len(self)
        if not edge_count:
            return 0.0
        if self.packed:
            # Sequential left-to-right summation in C (cumsum, never
            # np.sum): bit-identical to the baseline's Python sum over
            # the same edge order — pairwise summation would round
            # differently.
            return float(np.cumsum(self._packed_weights())[-1]) / edge_count
        if self.scheme is WeightingScheme.ARCS:
            return sum(self._shared_arcs.values()) / edge_count
        if self.scheme is WeightingScheme.CBS:
            return sum(self._shared_blocks.values()) / edge_count
        return sum(w for _, _, w in self.edges()) / edge_count

    def retained_key_array(self, threshold: float) -> Any:
        """Packed keys whose weight is at or above *threshold* (bulk).

        The columnar pipeline consumes this directly — the keys keep
        their edge order (ascending under the sorted-key reduction), so
        the caller can unpack to id pairs without set materialization.
        Packed graphs only.
        """
        return self._edge_keys[self._packed_weights() >= threshold]

    def retained_pairs(self, threshold: float) -> Set[Tuple[Any, Any]]:
        """Canonical pairs whose weight is at or above *threshold*.

        The packed path filters the weight array in bulk and only
        unpacks the survivors; equivalent to filtering :meth:`edges`.
        """
        if self.packed:
            unpack = self._unpack
            return {unpack(key) for key in self.retained_key_array(threshold).tolist()}
        return {(a, b) for a, b, w in self.edges() if w >= threshold}


def edge_pruning(
    collection: BlockCollection,
    scheme: WeightingScheme = WeightingScheme.ARCS,
    focus: Optional[Set[Any]] = None,
    packed: bool = True,
) -> Set[Tuple[Any, Any]]:
    """Weighted Edge Pruning: return the retained comparison pairs.

    Pairs whose edge weight is **at or above** the average survive.  The
    result is a set of canonical unordered pairs; unlike BP/BF the output
    is a pair set rather than a block collection, matching the graph-level
    granularity of comparison-refinement methods.  With *focus*, the
    graph (and therefore the average-weight threshold) is restricted to
    focus-incident edges — the only edges the caller will execute.
    """
    graph = BlockingGraph(collection, scheme=scheme, focus=focus, packed=packed)
    return graph.retained_pairs(graph.average_weight())


def pairs_to_blocks(pairs: Iterable[Tuple[Any, Any]]) -> BlockCollection:
    """Wrap retained pairs as 2-entity blocks (one block per pair).

    Lets the Comparison-Execution stage keep a single block-oriented code
    path regardless of whether Edge Pruning ran.
    """
    collection = BlockCollection()
    for index, (a, b) in enumerate(sorted(pairs, key=repr)):
        collection.put(Block(f"pair:{index}", (a, b)))
    return collection
