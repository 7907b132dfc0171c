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
    entities: Any, sizes: Any, key_ranks: Any, ratio: float = DEFAULT_RATIO
) -> Any:
    """Vectorized Block Filtering over flat assignment arrays.

    Inputs are parallel per-assignment arrays: *entities* (dense entity
    id of the assignment), *sizes* (|b| of the assignment's block) and
    *key_ranks* (the block key's rank in the tie-break order —
    lexicographic over key strings).  Returns a boolean mask keeping,
    per entity, its first ``max(1, ceil(ratio * count))`` assignments
    in ascending ``(|b|, key)`` order (the ITBI order), computed with
    one ``lexsort`` and prefix arithmetic instead of per-entity sorts.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError("filtering ratio must be in (0, 1]")
    total = len(entities)
    if not total:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((key_ranks, sizes, entities))
    grouped = entities[order]
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
