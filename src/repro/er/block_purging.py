"""Block Purging — drop oversized blocks of non-discriminative tokens.

Paper §6.1(iii)/§7.2.1: blocks larger than a data-derived comparison
threshold correspond to stop-word-like tokens (e.g. "Entity" in Table 1)
whose comparisons are overwhelmingly redundant or non-matching.  The
threshold t is the cardinality ||b_i|| at the first index i (blocks sorted
ascending by cardinality) where

    |b_i| * ||b_{i-1}|| < SF * ||b_i|| * |b_{i-1}|

with smoothing factor SF = 1.025 [23]; blocks with ||b|| > t are removed.
"""

from __future__ import annotations

from typing import Any, List, Tuple

import numpy as np

#: Smoothing factor, experimentally set to 1.025 in the blocking framework
#: of Papadakis et al. and adopted verbatim by the paper (§7.2.1).
SMOOTHING_FACTOR = 1.025


def _threshold_from_stats(
    stats: List[Tuple[int, int, int]], smoothing: float
) -> int:
    """The descending cumulative-ratio walk of comparisons-based purging.

    *stats* is the ascending per-level ``(cardinality, Σ|b|, Σ||b||)``
    list (Python ints — the walk's comparisons are exact).  This is
    Papadakis et al.'s procedure [23] that §7.2.1 references: with
    BC(c) = Σ|b| and CC(c) = Σ||b|| over blocks with ||b|| ≤ c, walk
    the levels *descending* and stop at the first level i where

        BC(c_i) · CC(c_{i+1}) < SF · CC(c_i) · BC(c_{i+1})

    i.e. where including the next-larger level stops inflating the
    comparisons-per-assignment ratio by more than the smoothing factor;
    the threshold is that next-larger level's cardinality.  Returns
    ``0`` for no levels and the maximum cardinality when the walk never
    triggers (nothing purged).
    """
    if not stats:
        return 0
    # Fallback when the walk never flattens: the ratio grows faster than
    # SF at every level, so only the smallest blocks are worth keeping.
    threshold = stats[0][0]
    previous_cardinality, previous_size, previous_comparisons = 0, 0.0, 0.0
    for cardinality, cum_size, cum_comparisons in reversed(stats):
        if previous_comparisons > 0:
            if cum_size * previous_comparisons < smoothing * cum_comparisons * previous_size:
                threshold = previous_cardinality
                break
        previous_cardinality = cardinality
        previous_size, previous_comparisons = cum_size, cum_comparisons
    return threshold


def purge_threshold_from_sizes(sizes: Any, smoothing: float = SMOOTHING_FACTOR) -> int:
    """Purge threshold ||b|| from a per-block size array |b|.

    Vectorized grouping (distinct cardinality levels, cumulative Σ|b|
    and Σ||b|| via ``np.unique``/``np.cumsum``) feeding the exact scalar
    walk of :func:`_threshold_from_stats`.  Blocks with fewer than two
    entities yield no comparisons and are ignored.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    sizes = sizes[sizes >= 2]
    if not len(sizes):
        return 0
    cardinalities = sizes * (sizes - 1) // 2
    levels, inverse = np.unique(cardinalities, return_inverse=True)
    size_sums = np.zeros(len(levels), dtype=np.int64)
    np.add.at(size_sums, inverse, sizes)
    comparison_sums = np.zeros(len(levels), dtype=np.int64)
    np.add.at(comparison_sums, inverse, cardinalities)
    stats = list(
        zip(
            levels.tolist(),
            np.cumsum(size_sums).tolist(),
            np.cumsum(comparison_sums).tolist(),
        )
    )
    return _threshold_from_stats(stats, smoothing)
