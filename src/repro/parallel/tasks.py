"""The unit of sharded blocking-graph work: one block span's segments.

:func:`compute_span_result` is a pure function of the packed arrays and
a span descriptor, so the shard workers, the parent's serial recovery
path and the serial fallback all compute the identical segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.er.edge_pruning import generate_span_segments


@dataclass(frozen=True)
class GraphResult:
    """One span's packed contributions, in that span's block visit order.

    ``keys``/``values`` are NumPy arrays (``values`` is ``None`` unless
    the ARCS reciprocals were asked for); ``touched_counts`` maps dense
    entity index → block membership increment, kept sparse so a result
    pickles in size proportional to the span, not the universe.
    """

    partition: int
    keys: Any
    values: Any
    touched_counts: Dict[int, int]


def compute_span_result(
    members: Any,
    indptr: Any,
    start: int,
    stop: int,
    n: int,
    in_focus: Optional[bytearray],
    need_arcs: bool,
    partition: int,
) -> GraphResult:
    """Blocks ``[start, stop)``'s packed segments as a :class:`GraphResult`."""
    keys, values, block_counts = generate_span_segments(
        members, indptr, start, stop, n, in_focus, need_arcs,
    )
    touched = {
        int(position): int(block_counts[position])
        for position in np.nonzero(block_counts)[0]
    }
    return GraphResult(partition, keys, values, touched)
