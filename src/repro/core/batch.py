"""The Batch Approach (BA) baseline (paper §5).

BA deduplicates an *entire* collection offline — blocking over the whole
table, meta-blocking, exhaustive comparison execution — and only then
answers queries over the grouped result.  QueryER's problem statement is
defined against it: a Dedupe Query must return the same grouped entities
(DQ Correctness) in less time than full-ER-plus-query (DQ Performance).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.indices import TableIndex
from repro.core.result import DedupResult
from repro.er.linkset import LinkSet, canonical_pair
from repro.er.util import safe_sorted
from repro.er.matching import ProfileMatcher
from repro.er.meta_blocking import MetaBlockingConfig, apply_meta_blocking
from repro.sql.physical import ExecutionContext

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.parallel.executor import ParallelComparisonExecutor


def batch_deduplicate(
    index: TableIndex,
    matcher: Optional[ProfileMatcher] = None,
    meta_blocking: Optional[MetaBlockingConfig] = None,
    context: Optional[ExecutionContext] = None,
    executor: Optional["ParallelComparisonExecutor"] = None,
) -> DedupResult:
    """Full offline ER over the whole collection behind *index*.

    Executes every comparison surviving meta-blocking (each distinct pair
    once), counting them in *context* so BA's cost is measured with the
    same meter as QueryER's.  Returns a DR_E whose QE is the entire
    table.  With *executor*, the matcher's undecided remainder may shard
    onto its workers; the linkset stays bit-identical to a serial run.
    """
    context = context or ExecutionContext()
    matcher = matcher or ProfileMatcher(exclude=(index.table.schema.id_column,))
    meta_blocking = meta_blocking or MetaBlockingConfig.all()

    with context.timed("meta-blocking"):
        refined = apply_meta_blocking(index.tbi, meta_blocking)

    links = LinkSet()
    with context.timed("resolution"):
        # The deduplicated pair list, materialized once (the set that
        # de-duplicates it is as large): the matcher screens it in
        # bounded chunks, and an executor may spread what that leaves.
        compared = set()
        pairs = []
        for block in refined:
            members = safe_sorted(block.entities)
            for i, left in enumerate(members):
                for right in members[i + 1 :]:
                    pair = canonical_pair(left, right)
                    if pair in compared:
                        continue
                    compared.add(pair)
                    pairs.append(pair)
        context.comparisons += len(pairs)
        if executor is not None:
            matched = executor.match_pairs(index, matcher, pairs)
        else:
            matched = matcher.match_pair_indices(pairs, index.signatures)
        for position in matched:
            links.add(*pairs[position])

    return DedupResult(index.table, index.table.ids, links=links)
