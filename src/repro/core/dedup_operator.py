"""The Deduplicate operator (paper §6.1).

Encapsulates the strict ER pipeline — Query Blocking → Block-Join →
Meta-Blocking → Comparison-Execution — as a single relational operator:
input a set of evaluated entities QE ⊆ E, output its super-set DR_E
(QE ∪ duplicates, plus the linkset).

Two refinements beyond the pseudocode, both paper-faithful:

* Entities already *resolved* in the Link Index are skipped entirely;
  their duplicates come straight from LI (§6.1: LI "is crucial to the
  efficiency of our approach").
* When ``transitive`` is on (default), newly discovered duplicates are
  fed back as a new frontier until a fixpoint, so the clusters DR_E
  carries equal the Batch Approach's clusters — the DQ-Correctness
  guarantee of §5/§6.1 made operational.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Set, Tuple

from repro.core.indices import TableIndex
from repro.core.result import DedupResult
from repro.er.linkset import LinkSet, canonical_pair
from repro.er.packed_blocking import derive_candidates, packed_blocking_supported
from repro.resilience import DEGRADATION
from repro.er.util import safe_sorted
from repro.er.matching import ProfileMatcher
from repro.er.meta_blocking import MetaBlockingConfig, apply_meta_blocking
from repro.sql.physical import ExecutionContext

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.parallel.executor import ParallelComparisonExecutor


@dataclass
class DedupStats:
    """Instrumentation of one Deduplicate invocation."""

    frontier_size: int = 0
    skipped_resolved: int = 0
    qbi_blocks: int = 0
    eqbi_blocks: int = 0
    eqbi_comparisons_before: int = 0
    eqbi_comparisons_after: int = 0
    executed_comparisons: int = 0
    matches_found: int = 0
    rounds: int = 0
    candidate_pairs: List[Tuple[Any, Any]] = field(default_factory=list)


class DeduplicateOperator:
    """Finds, within E, the duplicates of a query-evaluated subset QE.

    Parameters
    ----------
    index:
        The per-table :class:`~repro.core.indices.TableIndex` (TBI/ITBI/LI).
    matcher:
        Schema-agnostic profile matcher used by Comparison-Execution.
    meta_blocking:
        Which meta-blocking stages run (Table 8's ALL / BP+BF / BP+EP).
    use_link_index:
        When False the LI is neither consulted nor amended (the paper's
        "Without LI" configuration, Fig 11).
    transitive:
        Feed newly found duplicates back as a new frontier (see module
        docstring).
    executor:
        Optional :class:`~repro.parallel.executor.ParallelComparisonExecutor`:
        packed blocking-graph construction and pair matching above its
        configured thresholds run on its resident shard workers, with
        results bit-identical to serial.  It also serves/stores cached
        candidate plans for repeated frontiers.
    """

    def __init__(
        self,
        index: TableIndex,
        matcher: Optional[ProfileMatcher] = None,
        meta_blocking: Optional[MetaBlockingConfig] = None,
        use_link_index: bool = True,
        transitive: bool = True,
        collect_candidates: bool = False,
        executor: Optional["ParallelComparisonExecutor"] = None,
    ):
        self.index = index
        self.matcher = matcher or ProfileMatcher(exclude=(index.table.schema.id_column,))
        self.meta_blocking = meta_blocking or MetaBlockingConfig.all()
        self.use_link_index = use_link_index
        self.transitive = transitive
        self.collect_candidates = collect_candidates
        self.executor = executor

    # -- public API ------------------------------------------------------
    def deduplicate(
        self,
        query_ids: Iterable[Any],
        context: Optional[ExecutionContext] = None,
        stats: Optional[DedupStats] = None,
    ) -> DedupResult:
        """Run the full operator pipeline for the evaluated set *query_ids*."""
        context = context or ExecutionContext()
        stats = stats or DedupStats()
        query_set: Set[Any] = set(query_ids)
        links = LinkSet()
        link_index = self.index.link_index

        # Entities a previous query resolved: read their links from LI.
        if self.use_link_index:
            resolved = link_index.resolved_subset(query_set)
            stats.skipped_resolved = len(resolved)
            for entity_id in resolved:
                for dup in link_index.cluster_of(entity_id):
                    if dup != entity_id:
                        links.add(entity_id, dup)
        else:
            resolved = set()

        frontier = query_set - resolved
        stats.frontier_size = len(frontier)
        compared: Set[Tuple[Any, Any]] = set()
        processed: Set[Any] = set(resolved)

        while frontier:
            stats.rounds += 1
            newly_found = self._resolve_frontier(frontier, links, compared, context, stats)
            processed.update(frontier)
            if self.use_link_index:
                link_index.mark_resolved(frontier)
            if not self.transitive:
                break
            # Newly discovered duplicates become the next frontier —
            # except those already processed or resolved in LI (whose
            # clusters we already pulled in).
            next_frontier = set()
            for entity_id in newly_found:
                if entity_id in processed:
                    continue
                if self.use_link_index and link_index.is_resolved(entity_id):
                    for dup in link_index.cluster_of(entity_id):
                        if dup != entity_id:
                            links.add(entity_id, dup)
                    processed.add(entity_id)
                    continue
                next_frontier.add(entity_id)
            frontier = next_frontier

        if self.use_link_index:
            link_index.add_links(links)

        duplicate_ids = (links.entities() | self._closure(links, query_set)) - query_set
        return DedupResult(self.index.table, query_set, duplicate_ids, links)

    # -- pipeline stages ------------------------------------------------------
    def _resolve_frontier(
        self,
        frontier: Set[Any],
        links: LinkSet,
        compared: Set[Tuple[Any, Any]],
        context: ExecutionContext,
        stats: DedupStats,
    ) -> Set[Any]:
        """One pipeline pass over *frontier*; returns newly linked ids."""
        pairs = self._candidate_pairs(frontier, compared, context, stats)

        # (iv) Comparison-Execution — QE-side pairs only, each pair once.
        # The whole list goes through the matcher's batched cascade
        # (cached profile signatures; decisions bit-identical to the raw
        # attribute path).  With an executor, it alone decides whether
        # the cascade's undecided remainder is worth its workers, and
        # counts the run either way.
        newly_found: Set[Any] = set()
        with context.timed("resolution"):
            if self.collect_candidates:
                stats.candidate_pairs.extend(pairs)
            context.comparisons += len(pairs)
            stats.executed_comparisons += len(pairs)
            if self.executor is not None:
                matched = self.executor.match_pairs(self.index, self.matcher, pairs)
            else:
                matched = self.matcher.match_pair_indices(pairs, self.index.signatures)
            for position in matched:
                left, right = pairs[position]
                links.add(left, right)
                stats.matches_found += 1
                newly_found.add(left)
                newly_found.add(right)
        return newly_found

    def _candidate_pairs(
        self,
        frontier: Set[Any],
        compared: Set[Tuple[Any, Any]],
        context: ExecutionContext,
        stats: DedupStats,
    ) -> List[Tuple[Any, Any]]:
        """The frontier's canonical candidate-pair list, not yet compared.

        Stages (i)–(iii) of the pipeline.  The pre-``compared`` plan —
        a pure function of (table version, frontier, meta-blocking
        configuration) — is served from the executor's candidate-plan
        cache when the same frontier repeats; the engine invalidates
        that cache on every append, so a plan can never miss pairs
        involving freshly ingested rows.  On a cache hit the block-join
        and meta-blocking stages are skipped entirely (their stats
        counters then record only the plan-building pass).
        """
        executor = self.executor
        table_name = self.index.table.name
        raw: Optional[List[Tuple[Any, Any]]] = None
        if executor is not None:
            raw = executor.cached_candidates(table_name, frontier, self.meta_blocking)
        if raw is None and packed_blocking_supported(self.meta_blocking):
            # Columnar fast path: stages (i)–(iii) derived from the CSR
            # token postings, no string-keyed BlockCollection at all.
            # Any packed failure (bad postings state, an injected
            # ``packed.derive`` fault) degrades to the dict pipeline
            # below — same pairs by the equivalence contract, so
            # correctness survives losing the fast path.  Stage stats
            # and timings are only applied on success; a failed derive
            # contributes its partial stage timings, which the profile
            # then attributes alongside the dict path's own.
            derived = None
            try:
                derived = derive_candidates(
                    self.index.postings,
                    frontier,
                    self.meta_blocking,
                    timed=context.timed,
                    executor=executor,
                )
            except Exception as error:
                DEGRADATION.record(
                    "blocking",
                    "packed_fallback",
                    f"packed pipeline failed ({error!r}); using dict pipeline",
                )
            if derived is not None:
                stats.qbi_blocks = max(stats.qbi_blocks, derived.qbi_blocks)
                stats.eqbi_blocks = max(stats.eqbi_blocks, derived.eqbi_blocks)
                stats.eqbi_comparisons_before += derived.comparisons_before
                stats.eqbi_comparisons_after += derived.comparisons_after
                raw = derived.pairs
                if executor is not None:
                    executor.store_candidates(
                        table_name, frontier, self.meta_blocking, raw
                    )
        if raw is None:
            # (i) Query Blocking — QBI over the frontier.
            with context.timed("block-join"):
                qbi = self.index.query_block_index(frontier)
                stats.qbi_blocks = max(stats.qbi_blocks, len(qbi))
                # (ii) Block-Join — enrich with co-occurring table entities.
                eqbi = self.index.block_join(qbi)
            stats.eqbi_blocks = max(stats.eqbi_blocks, len(eqbi))
            stats.eqbi_comparisons_before += eqbi.cardinality

            # (iii) Meta-Blocking — BP → BF → EP, with the Edge-Pruning
            # graph scoped to frontier-incident edges (the only comparisons
            # the next stage executes, §6.1(iv)).
            with context.timed("meta-blocking"):
                refined = apply_meta_blocking(eqbi, self.meta_blocking, focus=frontier)
            stats.eqbi_comparisons_after += refined.cardinality

            # Pair enumeration is Comparison-Execution work and is
            # timed as such (the pre-subsystem code enumerated pairs
            # inside the resolution loop).
            with context.timed("resolution"):
                raw = []
                seen: Set[Tuple[Any, Any]] = set()
                for block in refined:
                    members = safe_sorted(block.entities)
                    for i, left in enumerate(members):
                        for right in members[i + 1 :]:
                            if left not in frontier and right not in frontier:
                                continue  # only resolve the current selection
                            pair = canonical_pair(left, right)
                            if pair in seen:
                                continue  # comparisons in multiple blocks run once
                            seen.add(pair)
                            raw.append(pair)
            if executor is not None:
                executor.store_candidates(table_name, frontier, self.meta_blocking, raw)

        with context.timed("resolution"):
            if compared:
                pairs = [pair for pair in raw if pair not in compared]
            else:
                pairs = list(raw)  # never alias the cached plan
            compared.update(pairs)
        return pairs

    @staticmethod
    def _closure(links: LinkSet, query_set: Set[Any]) -> Set[Any]:
        """All entities reachable from QE through L_E."""
        reached: Set[Any] = set()
        for entity_id in query_set:
            reached |= links.cluster_of(entity_id)
        return reached
