"""Task payloads and worker entry points of the parallel subsystem.

The payload protocol is built around Linux ``fork``: the orchestrator
deposits one :class:`MatchPayload` / :class:`GraphPayload` in this
module's ``_PAYLOAD`` slot, *then* creates the pool.  Forked workers
inherit the payload through copy-on-write memory, so the only objects
that ever cross a process boundary are the task descriptors (three
integers each) and the results (index lists / packed arrays) — all
cheaply picklable.  The threaded and serial backends read the very same
module global, so one worker function serves every backend.

Worker functions are module-level on purpose: ``multiprocessing``
pickles them *by reference*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.er.edge_pruning import (
    _np,
    generate_packed_contributions,
    generate_packed_segments,
    generate_span_segments,
)
from repro.er.matching import PendingPairs, ProfileMatcher, ProfileSignature

#: The invocation payload forked workers inherit (see module docstring).
_PAYLOAD: Optional[object] = None


def set_payload(payload: object) -> None:
    """Install the payload the next pool's workers will read."""
    global _PAYLOAD
    _PAYLOAD = payload


def clear_payload() -> None:
    global _PAYLOAD
    _PAYLOAD = None


def current_payload() -> object:
    if _PAYLOAD is None:
        raise RuntimeError(
            "no invocation payload installed; worker invoked outside a pool run"
        )
    return _PAYLOAD


# -- matching ---------------------------------------------------------------


class MatchPayload:
    """Everything one Comparison-Execution invocation shares with workers.

    ``pending`` is the undecided remainder the parent's batched cascade
    left; tasks are spans of it.  Every signature it touches was built
    by that cascade before the pool exists, so workers treat
    ``signatures`` as read-only — the one rule that makes the threaded
    backend safe without locking the signature cache.
    ``private_state`` tells workers whether their matcher is a private
    copy-on-write copy (process backend: cascade-counter deltas are
    collected and merged deterministically) or the live shared object
    (thread backend: counters are already accumulated in place).
    """

    __slots__ = ("pairs", "signatures", "matcher", "pending", "private_state")

    def __init__(
        self,
        pairs: Sequence[Tuple[Any, Any]],
        signatures: Mapping[Any, ProfileSignature],
        matcher: ProfileMatcher,
        pending: PendingPairs,
        private_state: bool,
    ):
        self.pairs = pairs
        self.signatures = signatures
        self.matcher = matcher
        self.pending = pending
        self.private_state = private_state


@dataclass(frozen=True)
class MatchTask:
    """One contiguous span of the pending remainder to resolve."""

    partition: int
    start: int
    stop: int


@dataclass(frozen=True)
class MatchResult:
    """Matched positions of one span, plus the worker's cascade deltas."""

    partition: int
    matched: List[int]
    cascade_delta: Optional[Dict[str, int]]


def run_match_task(task: MatchTask) -> MatchResult:
    """Worker entry: resolve one pending span via the shared payload."""
    payload: MatchPayload = current_payload()  # type: ignore[assignment]
    matcher = payload.matcher
    before = dict(matcher.cascade_stats) if payload.private_state else None
    matched = matcher.resolve_pending(
        payload.pairs, payload.signatures, payload.pending, task.start, task.stop
    )
    delta = None
    if before is not None:
        delta = {
            key: matcher.cascade_stats[key] - before[key]
            for key in matcher.cascade_stats
        }
    return MatchResult(task.partition, matched, delta)


# -- blocking-graph segment generation --------------------------------------


class GraphPayload:
    """Shared state of one partitioned blocking-graph build."""

    __slots__ = ("blocks", "index_of", "n", "in_focus", "need_arcs")

    def __init__(
        self,
        blocks: Sequence[Any],
        index_of: Dict[Any, int],
        n: int,
        in_focus: Optional[bytearray],
        need_arcs: bool,
    ):
        self.blocks = blocks
        self.index_of = index_of
        self.n = n
        self.in_focus = in_focus
        self.need_arcs = need_arcs


@dataclass(frozen=True)
class GraphTask:
    """One contiguous block span whose pair segments a worker generates."""

    partition: int
    start: int
    stop: int


@dataclass(frozen=True)
class GraphResult:
    """One span's packed contributions, in that span's block visit order.

    ``keys``/``values`` are NumPy arrays (or plain lists on the no-NumPy
    fallback); ``touched_counts`` maps dense entity index → block
    membership increment, kept sparse so a result pickles in size
    proportional to the span, not the universe.
    """

    partition: int
    keys: Any
    values: Any
    touched_counts: Dict[int, int]


class SpanPayload:
    """Shared state of one partitioned postings-span graph build.

    The columnar twin of :class:`GraphPayload`: instead of ``Block``
    objects plus a dense-index dict, workers get two contiguous arrays
    (universe-position members grouped by block, and the block index
    pointer) — copy-on-write friendly and free of per-entity lookups.
    """

    __slots__ = ("members", "indptr", "n", "in_focus", "need_arcs")

    def __init__(
        self,
        members: Any,
        indptr: Any,
        n: int,
        in_focus: Optional[bytearray],
        need_arcs: bool,
    ):
        self.members = members
        self.indptr = indptr
        self.n = n
        self.in_focus = in_focus
        self.need_arcs = need_arcs


@dataclass(frozen=True)
class SpanTask:
    """One contiguous postings-block span whose pair segments a worker
    generates."""

    partition: int
    start: int
    stop: int


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
    """One span's packed segments as a :class:`GraphResult`.

    Pure function of its arguments — the shared body of the pool's
    :func:`run_span_task`, the shard runtime's span handler and both
    parents' serial recovery paths, so every execution route computes
    the identical segments.
    """
    key_segments, value_segments, block_counts = generate_span_segments(
        members, indptr, start, stop, n, in_focus, need_arcs,
    )
    keys = (
        _np.concatenate(key_segments)
        if key_segments
        else _np.empty(0, dtype=_np.int64)
    )
    values = (
        _np.concatenate(value_segments)
        if need_arcs and value_segments
        else None
    )
    touched_positions = _np.nonzero(block_counts)[0]
    touched = {
        int(position): int(block_counts[position]) for position in touched_positions
    }
    return GraphResult(partition, keys, values, touched)


def run_span_task(task: SpanTask) -> GraphResult:
    """Worker entry: generate packed pair segments for one postings span."""
    payload: SpanPayload = current_payload()  # type: ignore[assignment]
    return compute_span_result(
        payload.members, payload.indptr, task.start, task.stop,
        payload.n, payload.in_focus, payload.need_arcs, task.partition,
    )


def run_graph_task(task: GraphTask) -> GraphResult:
    """Worker entry: generate packed pair segments for one block span."""
    payload: GraphPayload = current_payload()  # type: ignore[assignment]
    blocks = payload.blocks[task.start : task.stop]
    block_counts = [0] * payload.n
    if _np is not None:
        key_segments, value_segments = generate_packed_segments(
            blocks, payload.index_of, payload.n, payload.in_focus,
            payload.need_arcs, block_counts,
        )
        keys = (
            _np.concatenate(key_segments)
            if key_segments
            else _np.empty(0, dtype=_np.int64)
        )
        values = (
            _np.concatenate(value_segments)
            if payload.need_arcs and value_segments
            else None
        )
    else:  # pragma: no cover - the container bakes numpy in
        keys, values = generate_packed_contributions(
            blocks, payload.index_of, payload.n, payload.in_focus,
            payload.need_arcs, block_counts,
        )
        if not payload.need_arcs:
            values = None
    touched = {i: count for i, count in enumerate(block_counts) if count}
    return GraphResult(task.partition, keys, values, touched)
