"""The orchestrator: Comparison-Execution over resident shard workers.

:class:`ParallelComparisonExecutor` is the one object the rest of the
engine talks to on a multi-worker engine.  Per invocation it

1. for matching, lets the matcher's batched cascade decide what it can
   in this process and routes only a large undecided remainder to the
   :class:`~repro.parallel.shards.ShardRuntime`;
2. for a large postings-span graph build, asks the
   :class:`~repro.parallel.planner.PartitionPlanner` for balanced
   contiguous block spans, has the shards generate each span's
   segments, and recombines them through the
   :class:`~repro.parallel.merger.DeterministicMerger`, whose fixed
   canonical order makes the graph bit-identical to serial;
3. falls back to the serial computation in this process whenever the
   runtime cannot serve (:class:`~repro.parallel.shards.ShardUnavailable`):
   matching resolves here, and a graph build returns ``None`` so the
   caller runs its own serial span build.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.er.edge_pruning import BlockingGraph, WeightingScheme
from repro.er.matching import PendingPairs, ProfileMatcher
from repro.parallel.config import ExecutionConfig, fork_available
from repro.parallel.merger import DeterministicMerger
from repro.parallel.planner import PartitionPlanner
from repro.parallel.shards import ShardRuntime, ShardUnavailable

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.indices import TableIndex


class ParallelComparisonExecutor:
    """Shard-routed execution of the ER hot path.

    One executor serves one engine for its whole lifetime.  The shard
    runtime exists only when *shard_state_source* is given (the engine's
    registered index/matcher map — what a freshly forked worker keeps
    resident) and the platform can fork; without one, every invocation
    runs serially here.

    *epoch_source* maps a lower-cased table name to its current epoch;
    an engine passes its ``epoch_of``, which the shard runtime stamps on
    spawns and deltas.
    """

    def __init__(
        self,
        config: Optional[ExecutionConfig] = None,
        epoch_source: Optional[Callable[[str], int]] = None,
        shard_state_source: Optional[Callable[[], Dict[str, Any]]] = None,
    ):
        self.config = config or ExecutionConfig()
        self.workers = self.config.resolved_workers()
        self.planner = PartitionPlanner(self.workers)
        self._shards: Optional[ShardRuntime] = (
            ShardRuntime(
                self.workers,
                shard_state_source,
                epoch_source=epoch_source,
                task_timeout=self.config.task_timeout_s,
            )
            if shard_state_source is not None and self.workers > 1 and fork_available()
            else None
        )
        #: Instrumentation: how invocations were scheduled.
        self.stats = {
            "parallel_match_runs": 0,
            "serial_match_runs": 0,
            "parallel_graph_builds": 0,
        }

    # -- scheduling decisions -------------------------------------------
    def should_parallelize_pairs(self, undecided: int) -> bool:
        """Whether *undecided* cascade-remainder pairs go to the shards."""
        return (
            self._shards is not None
            and undecided > 0
            and undecided >= self.config.min_parallel_pairs
        )

    def wants_parallel_spans(self, total_comparisons: int) -> bool:
        """Whether a postings-span graph build should go to the shards."""
        return (
            self._shards is not None
            and total_comparisons >= self.config.min_parallel_comparisons
        )

    # -- matching --------------------------------------------------------
    def match_pairs(
        self,
        index: "TableIndex",
        matcher: ProfileMatcher,
        pairs: Sequence[Tuple[Any, Any]],
    ) -> List[int]:
        """Matched positions of *pairs*, identical to the serial cascade.

        The matcher screens the whole list array-at-a-time in this
        process; only what that leaves undecided — scalar Jaro-Winkler
        work — is ever routed to the shards, and only when there is
        enough of it (:meth:`should_parallelize_pairs`).  Every
        invocation is counted as one serial or one parallel match run.
        """
        signatures = index.signatures
        sharded = False

        def resolve(pending: PendingPairs) -> List[int]:
            nonlocal sharded
            if self.should_parallelize_pairs(len(pending)):
                try:
                    matched = self._shards.resolve_pending(
                        index.table.name.lower(), index, matcher, pairs, pending
                    )
                except ShardUnavailable:
                    pass
                else:
                    sharded = True
                    return matched
            return matcher.resolve_pending(pairs, signatures, pending)

        matched = matcher.match_pair_indices(pairs, signatures, resolve=resolve)
        self.stats["parallel_match_runs" if sharded else "serial_match_runs"] += 1
        return matched

    # -- blocking graph --------------------------------------------------
    def build_span_graph(
        self,
        members: Any,
        indptr: Any,
        sizes: Any,
        universe: List[Any],
        index_of: Dict[Any, int],
        scheme: WeightingScheme,
        in_focus: Optional[bytearray],
    ) -> Optional[BlockingGraph]:
        """Packed graph from postings spans, sharded across the workers.

        The planner cuts the blocks into contiguous spans balanced by
        cardinality (no ``Block`` objects exist), the shards run
        :func:`~repro.er.edge_pruning.generate_span_segments` on each
        span, and the deterministic merge reassembles canonical block
        order — bit-identical to the serial span build.  Returns
        ``None`` when the runtime cannot serve; the caller then builds
        the graph serially.
        """
        need_arcs = scheme is WeightingScheme.ARCS
        n = len(universe)
        try:
            results = self._shards.run_spans(
                members, indptr, n, in_focus, need_arcs,
                self.planner.partition_costs((sizes * (sizes - 1) // 2).tolist()),
            )
        except ShardUnavailable:
            return None
        self.stats["parallel_graph_builds"] += 1
        edge_keys, edge_stats, block_counts = DeterministicMerger.merge_span_segments(
            results, n, need_arcs
        )
        return BlockingGraph(
            scheme, len(indptr) - 1, universe, index_of, block_counts,
            edge_keys, edge_stats,
        )

    # -- shard runtime lifecycle -----------------------------------------
    @property
    def shard_runtime(self) -> Optional[ShardRuntime]:
        """The shard runtime, or ``None`` when every run is serial."""
        return self._shards

    def note_committed(self, table_name: str, epoch: int, index: Any, count: int) -> None:
        """Engine post-commit hook: ship the batch to resident shards."""
        if self._shards is not None:
            self._shards.publish_delta(table_name.lower(), index, epoch, count)

    def reset_shards(self) -> None:
        """Retire resident workers after a registration-shape change."""
        if self._shards is not None:
            self._shards.reset()

    def shard_status(self) -> Optional[Dict[str, Any]]:
        """The runtime's observability snapshot, or ``None`` without one."""
        return self._shards.status() if self._shards is not None else None

    def close(self) -> None:
        """Join and release every long-lived worker process (idempotent)."""
        if self._shards is not None:
            self._shards.close()
