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

It also owns the *candidate-plan cache*: the deterministic candidate-pair
list derived for a (table, frontier, meta-blocking) triple, reused when
the same frontier is re-resolved (sustained query traffic repeats
frontiers; without the Link Index every repeat would re-derive the
identical plan).  Cached plans describe a table *version*: each plan is
keyed on the table's epoch, so advancing the epoch retires stale plans
— which would silently miss pairs involving freshly ingested rows —
without enumerating them.  When the executor serves an engine, the
engine's per-table epoch counter (``QueryEREngine.epoch_of``, bumped on
``register`` and every insert) is that version, passed in as
``epoch_source``; a standalone executor falls back to a private counter
advanced by :meth:`invalidate_table`.  :meth:`invalidate` drops the
whole cache when benchmark runs demand cold state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.er.edge_pruning import BlockingGraph, WeightingScheme
from repro.er.matching import PendingPairs, ProfileMatcher
from repro.er.util import LRUCache
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
    runs serially here and the executor is just the candidate-plan cache.

    *epoch_source* maps a lower-cased table name to its current epoch
    and is consulted on every plan-cache access; an engine passes its
    ``epoch_of`` so the engine's counter is the single source of truth.
    Without one (standalone executors, as in unit tests) a private
    fallback counter is kept, advanced by :meth:`invalidate_table`.
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
        self._candidate_cache: Optional[LRUCache] = (
            LRUCache(self.config.candidate_cache_size)
            if self.config.candidate_cache_size > 0
            else None
        )
        self._epoch_source = epoch_source
        self._fallback_epochs: Dict[str, int] = {}
        self._shards: Optional[ShardRuntime] = (
            ShardRuntime(
                self.workers,
                shard_state_source,
                epoch_source=self.epoch_of,
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
            "candidate_cache_hits": 0,
            "candidate_cache_misses": 0,
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
        return BlockingGraph.from_arrays(
            scheme, len(indptr) - 1, universe, index_of, block_counts,
            edge_keys, edge_stats,
        )

    # -- candidate-plan cache -------------------------------------------
    def cached_candidates(
        self, table_name: str, frontier: Set[Any], fingerprint: Any
    ) -> Optional[List[Tuple[Any, Any]]]:
        """The cached candidate-pair plan of a frontier, if still valid."""
        if self._candidate_cache is None:
            return None
        key = self._plan_key(table_name, frontier, fingerprint)
        plan = self._candidate_cache.get(key)
        if plan is None:
            self.stats["candidate_cache_misses"] += 1
        else:
            self.stats["candidate_cache_hits"] += 1
        return plan

    def store_candidates(
        self,
        table_name: str,
        frontier: Set[Any],
        fingerprint: Any,
        pairs: List[Tuple[Any, Any]],
    ) -> None:
        if self._candidate_cache is None:
            return
        self._candidate_cache.put(
            self._plan_key(table_name, frontier, fingerprint), pairs
        )

    def epoch_of(self, table_name: str) -> int:
        """The epoch a plan for *table_name* would be keyed on right now."""
        key = table_name.lower()
        if self._epoch_source is not None:
            return self._epoch_source(key)
        return self._fallback_epochs.get(key, 0)

    def _plan_key(self, table_name: str, frontier: Set[Any], fingerprint: Any):
        key = table_name.lower()
        # The frozen frontier participates directly (no digests): a plan
        # must never be served for a merely hash-equal frontier.
        return (key, self.epoch_of(key), fingerprint, frozenset(frontier))

    def invalidate_table(self, table_name: str) -> None:
        """Revoke every cached plan describing *table_name*.

        With an engine-provided ``epoch_source`` this is a no-op: the
        engine's epoch counter advances on register/insert, which
        retires stale plans — ones that would miss pairs involving the
        new records — by construction.  Standalone executors advance the
        private fallback counter instead.
        """
        if self._epoch_source is not None:
            return
        key = table_name.lower()
        self._fallback_epochs[key] = self._fallback_epochs.get(key, 0) + 1

    def invalidate(self) -> None:
        """Drop all cached plans (cold-start contract)."""
        if self._candidate_cache is not None:
            self._candidate_cache.clear()

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
