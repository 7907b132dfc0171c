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
from repro.er.linkset import LinkSet
from repro.er.matching import ProfileMatcher
from repro.er.meta_blocking import MetaBlockingConfig
from repro.er.packed_blocking import derive_candidates
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

    Derives the candidate pairs exactly as the Deduplicate operator
    does, with the whole table as the frontier, then executes every
    surviving comparison once, counting them in *context* so BA's cost
    is measured with the same meter as QueryER's.  Returns a DR_E whose
    QE is the entire table.  With *executor*, the matcher's undecided
    remainder may shard onto its workers; the linkset stays
    bit-identical to a serial run.
    """
    context = context or ExecutionContext()
    matcher = matcher or ProfileMatcher(exclude=(index.table.schema.id_column,))
    meta_blocking = meta_blocking or MetaBlockingConfig.all()

    ids = index.table.ids
    pairs = derive_candidates(index.postings, ids, meta_blocking, timed=context.timed).pairs
    links = LinkSet()
    with context.timed("resolution"):
        context.comparisons += len(pairs)
        if executor is not None:
            matched = executor.match_pairs(index, matcher, pairs)
        else:
            matched = matcher.match_pair_indices(pairs, index.signatures)
        for position in matched:
            links.add(*pairs[position])

    return DedupResult(index.table, ids, links=links)
