"""Block Filtering — keep each entity only in its smallest blocks.

Paper §6.1(iii)/§7.2.1: each block has a different importance for every
entity it contains; smaller blocks are more discriminative.  For every
entity e with block list {B} (sorted ascending by block size |b|), retain
e only in the first ``n = ceil(p * |{B}|)`` blocks, p ≤ 1 the filtering
ratio (0.8 per Papadakis et al. [27]).
"""

from __future__ import annotations

from typing import Any

import numpy as np

#: Default filtering ratio from the enhanced meta-blocking paper [27].
DEFAULT_RATIO = 0.8


def retained_assignment_mask(
    entities: Any, block_ranks: Any, ratio: float = DEFAULT_RATIO
) -> Any:
    """Vectorized Block Filtering over flat assignment arrays.

    Inputs are parallel per-assignment arrays: *entities* (dense entity
    id of the assignment) and *block_ranks* (its block's rank among the
    blocks in ascending ``(|b|, key)`` order, the ITBI order, key ties
    broken lexicographically over the key strings).  Returns a boolean
    mask keeping, per entity, its first ``max(1, ceil(ratio * count))``
    assignments in that order, computed with one sort of the single key
    ``entity · B + block_rank`` and prefix arithmetic instead of
    per-entity sorts.  An entity is assigned to a block at most once, so
    the keys are distinct and need no stable sort.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError("filtering ratio must be in (0, 1]")
    total = len(entities)
    if not total:
        return np.zeros(0, dtype=bool)
    block_count = int(block_ranks.max()) + 1
    keys = entities * block_count
    keys += block_ranks
    order = np.argsort(keys)
    grouped = keys[order] // block_count
    # Per-entity group spans over the sorted assignments.
    boundaries = np.nonzero(np.diff(grouped))[0] + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
    stops = np.concatenate((boundaries, np.array([total], dtype=np.int64)))
    counts = stops - starts
    # Same float arithmetic as math.ceil(ratio * count).
    limits = np.maximum(1, np.ceil(ratio * counts)).astype(np.int64)
    positions = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    keep_sorted = positions < np.repeat(limits, counts)
    mask = np.empty(total, dtype=bool)
    mask[order] = keep_sorted
    return mask
