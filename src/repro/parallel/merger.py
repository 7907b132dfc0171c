"""Deterministic recombination of per-partition span results.

Shards may answer in any order; the merge consumes results *sorted by
partition index*, and partitions are contiguous block spans — so
concatenating per-partition outputs reproduces the serial block visit
order exactly, and the graph reduction is bit-identical to serial (the
subsystem's core guarantee, checked by the equivalence property tests).
"""

from __future__ import annotations

from typing import Any, Iterable, List, Tuple

import numpy as np

from repro.er.edge_pruning import reduce_span_segments
from repro.parallel.tasks import GraphResult


class DeterministicMerger:
    """Fixed-canonical-order recombination of partition results."""

    @staticmethod
    def merge_span_segments(
        results: Iterable[GraphResult], n: int, need_arcs: bool
    ) -> Tuple[Any, Any, List[int]]:
        """(edge_keys, edge_stats, block_counts) from partition segments.

        Partition-order concatenation reduced through
        :func:`~repro.er.edge_pruning.reduce_span_segments`: the stable
        key sort keeps per-key contributions in global block visit
        order, so the merged arrays equal the serial span build's
        exactly (sorted-key edge order, left-to-right per-key sums).
        Block-membership counts are integer sums — exact in any order.
        """
        ordered = sorted(results, key=lambda r: r.partition)
        block_counts = [0] * n
        for result in ordered:
            for position, count in result.touched_counts.items():
                block_counts[position] += count
        keys = np.concatenate([r.keys for r in ordered] or [np.empty(0, dtype=np.int64)])
        values = (
            np.concatenate([r.values for r in ordered] or [np.empty(0)])
            if need_arcs
            else None
        )
        edge_keys, edge_stats = reduce_span_segments(keys, values, need_arcs)
        return edge_keys, edge_stats, block_counts
