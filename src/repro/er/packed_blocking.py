"""Candidate derivation: QBI → Block-Join → BP → BF → EP on arrays.

The Deduplicate operator's stages (i)–(iii) (paper §6.1) and the Batch
Approach's blocking both derive their candidate-pair list here,
straight from a table's :class:`~repro.er.blocking.TokenPostings`: the
QBI is a token-id array gathered from the forward CSR, Block-Join is the
observation that an EQBI block *is* the table block (QE ⊆ E, and TBI
and QBI share the blocking function), Block Purging and Block Filtering
run vectorized on cardinality arrays, and Edge Pruning consumes
postings spans directly through
:func:`~repro.er.edge_pruning.generate_span_segments`.  The BP/BF stage,
:func:`purge_and_filter`, is also what the planner's §7.2.1 comparison
estimate runs.

Blocks are visited in ascending token-id order, members in ascending
entity-id order within a block.  That order is the summation spec: a
pair's ARCS weight adds its blocks' reciprocals left to right in block
order, and the average weight adds the edges left to right in
ascending ``(left, right)`` order, so every weight — and therefore the
pruning threshold and the retained pair set — is one exact float.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, List, Optional, Set, Tuple

import numpy as np

from repro.er.block_filtering import retained_assignment_mask
from repro.er.block_purging import purge_threshold_from_sizes
from repro.er.blocking import TokenPostings
from repro.er.edge_pruning import (
    BlockingGraph,
    WeightingScheme,
    generate_span_segments,
    reduce_span_segments,
)
from repro.er.util import safe_sorted
from repro.resilience import inject


def _no_timing(stage: str) -> ContextManager:
    return nullcontext()


@dataclass
class PackedCandidates:
    """One derivation's output: the pair list plus stage stats.

    The stats are what the operator's :class:`DedupStats` records for
    the frontier: QBI and EQBI block counts, and ||EQBI|| before and
    after meta-blocking.
    """

    pairs: List[Tuple[Any, Any]]
    qbi_blocks: int
    eqbi_blocks: int
    comparisons_before: int
    comparisons_after: int


def purge_and_filter(
    postings: TokenPostings,
    tokens: Any,
    sizes: Any,
    smoothing: Optional[float],
    filter_ratio: Optional[float],
) -> Tuple[Any, Any, Any]:
    """Block Purging and Block Filtering over the table blocks of *tokens*.

    *sizes* are the blocks' full posting lengths.  Singleton blocks go
    first, then blocks above the purge threshold of the rest (skipped
    when *smoothing* is None), then each entity keeps its first
    ``ceil(filter_ratio · n)`` blocks in ascending ``(|b|, key)`` order
    and blocks reduced below two members are dropped (skipped when
    *filter_ratio* is None).  The one BP/BF implementation: candidate
    derivation and the planner's comparison estimate both call it.

    Returns the surviving blocks as a CSR ``(sizes, indptr, members)``:
    block ``i`` keeps the dense postings ids
    ``members[indptr[i]:indptr[i + 1]]``, ``sizes[i]`` of them.
    """
    keep = sizes >= 2
    tokens = tokens[keep]
    sizes = sizes[keep]

    # Block Purging — vectorized cumulative-stat threshold.
    if smoothing is not None and len(tokens):
        threshold = purge_threshold_from_sizes(sizes, smoothing)
        kept = sizes * (sizes - 1) // 2 <= threshold
        tokens = tokens[kept]
        sizes = sizes[kept]

    # Materialize the surviving assignments as one CSR gather.
    indptr, members = postings.members_of(tokens)

    # Block Filtering — per-entity top-k retention over flat assignment
    # arrays, ties broken by (|b|, key string).
    if filter_ratio is not None and len(tokens):
        counts = np.diff(indptr)
        block_of = np.repeat(np.arange(len(tokens), dtype=np.int64), counts)
        token_of = postings.vocabulary.token_of
        key_strings = np.array([token_of(t) for t in tokens.tolist()])
        ranks = np.empty(len(tokens), dtype=np.int64)
        ranks[np.argsort(key_strings)] = np.arange(len(tokens), dtype=np.int64)
        mask = retained_assignment_mask(
            members, np.repeat(sizes, counts), ranks[block_of], filter_ratio
        )
        members = members[mask]
        block_of = block_of[mask]
        new_counts = np.bincount(block_of, minlength=len(tokens)).astype(np.int64)
        # Blocks reduced below two entities are dropped.
        survives = new_counts >= 2
        members = members[survives[block_of]]
        sizes = new_counts[survives]
        indptr = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(sizes, dtype=np.int64))
        )
    return sizes, indptr, members


def derive_candidates(
    postings: TokenPostings,
    frontier: Set[Any],
    config: Any,
    timed: Optional[Callable[[str], ContextManager]] = None,
    executor: Optional[Any] = None,
) -> PackedCandidates:
    """Candidate pairs of *frontier* under *config*, fully array-derived.

    *timed* is the caller's ``ExecutionContext.timed`` hook; stages are
    attributed as ``block-join`` (QBI + Block-Join), ``meta-blocking``
    (BP/BF/EP) and ``resolution`` (pair materialization).  *executor* is
    the optional parallel handle: large graph builds shard their
    postings spans across its resident shard workers.  A failure here
    (an injected ``packed.derive`` fault included) propagates: there is
    no other derivation to fall back to.
    """
    timed = timed or _no_timing
    inject("packed.derive")

    # (i) Query Blocking + (ii) Block-Join.  The EQBI block of a QBI key
    # is the key's full table posting (frontier entities already carry
    # the key), so the join is one forward-CSR gather plus a unique.
    with timed("block-join"):
        dense_frontier = postings.dense_frontier(frontier)
        tokens = postings.tokens_of_entities(dense_frontier)
        sizes = postings.sizes_of(tokens)
        qbi_blocks = eqbi_blocks = len(tokens)
        comparisons_before = int((sizes * (sizes - 1) // 2).sum())

    with timed("meta-blocking"):
        # (iii)a Block Purging + (iii)b Block Filtering.
        sizes, indptr, members = purge_and_filter(
            postings,
            tokens,
            sizes,
            config.smoothing_factor if config.purging else None,
            config.filter_ratio if config.filtering else None,
        )
        block_count = len(sizes)
        if not block_count:
            return PackedCandidates([], qbi_blocks, eqbi_blocks, comparisons_before, 0)

        # Dense postings ids → the graph's canonical universe (sorted
        # actual entity ids).
        unique_dense = np.unique(members)
        dense_ids = postings.entity_ids_of(unique_dense)
        universe = safe_sorted(dense_ids)
        index_of = {entity: i for i, entity in enumerate(universe)}
        n = len(universe)
        positions = np.fromiter(
            (index_of[e] for e in dense_ids), dtype=np.int64, count=len(dense_ids)
        )
        to_universe = np.zeros(postings.entity_count, dtype=np.int64)
        to_universe[unique_dense] = positions
        members_u = to_universe[members]
        in_focus = bytearray(n)
        for entity in frontier:
            i = index_of.get(entity)
            if i is not None:
                in_focus[i] = 1

        # (iii)c Edge Pruning — the packed graph fed by postings spans.
        if config.pruning:
            graph = _span_graph(
                members_u, indptr, sizes, universe, index_of, config.weighting,
                in_focus, block_count, executor,
            )
            retained_keys = graph.retained_key_array(graph.average_weight())
            comparisons_after = len(retained_keys)
        else:
            comparisons_after = int((sizes * (sizes - 1) // 2).sum())
            retained_keys = _enumerate_pair_keys(members_u, indptr, n, in_focus)

    with timed("resolution"):
        pairs = _unpack_pairs(retained_keys, universe, n)
    return PackedCandidates(
        pairs, qbi_blocks, eqbi_blocks, comparisons_before, comparisons_after
    )


def _span_graph(
    members_u: Any,
    indptr: Any,
    sizes: Any,
    universe: List[Any],
    index_of: dict,
    scheme: Any,
    in_focus: bytearray,
    block_count: int,
    executor: Optional[Any],
) -> BlockingGraph:
    """Blocking graph over postings spans: sharded when the executor
    wants and can serve the build, serial here otherwise."""
    total_comparisons = int((sizes * (sizes - 1) // 2).sum())
    if executor is not None and executor.wants_parallel_spans(total_comparisons):
        graph = executor.build_span_graph(
            members_u, indptr, sizes, universe, index_of, scheme, in_focus
        )
        if graph is not None:
            return graph
    need_arcs = scheme is WeightingScheme.ARCS
    keys, values, block_counts = generate_span_segments(
        members_u, indptr, 0, block_count, len(universe), in_focus, need_arcs
    )
    edge_keys, edge_stats = reduce_span_segments(keys, values, need_arcs)
    return BlockingGraph(
        scheme, block_count, universe, index_of, block_counts.tolist(),
        edge_keys, edge_stats,
    )


def _enumerate_pair_keys(
    members_u: Any,
    indptr: Any,
    n: int,
    in_focus: bytearray,
) -> Any:
    """Frontier-incident packed pair keys when Edge Pruning is disabled.

    Deduplicated in ascending-key order.
    """
    keys, _, _ = generate_span_segments(
        members_u, indptr, 0, len(indptr) - 1, n, in_focus, need_arcs=False
    )
    return np.unique(keys)


def _unpack_pairs(keys: Any, universe: List[Any], n: int) -> List[Tuple[Any, Any]]:
    """Packed keys → canonical ``(left, right)`` id pairs, vectorized."""
    if not len(keys):
        return []
    keys = np.asarray(keys, dtype=np.int64)
    ids = np.empty(len(universe), dtype=object)
    ids[:] = universe
    left = ids[keys // n].tolist()
    right = ids[keys % n].tolist()
    return list(zip(left, right))
