"""The dict-pipeline reference: naive candidate derivation and matching.

The engine derives candidate pairs one way — columnar, from a table's
CSR token postings (:func:`repro.er.packed_blocking.derive_candidates`)
— and matches them through the batched cascade
(:meth:`~repro.er.matching.ProfileMatcher.match_pair_indices`).  This
module spells the same specification the obvious way, over string-keyed
:class:`BlockCollection` objects and Python dicts, so every equivalence
suite has one oracle to diff against:

* the dict TBI (:func:`reference_tbi`), re-tokenized from the table's
  rows with its blocking function — never read from the postings it is
  diffed against (:func:`postings_blocks` reads those back as key →
  member-id sets);
* Query Blocking and Block-Join over that TBI;
* Block Purging, Block Filtering and Edge Pruning over block
  collections, the blocking graph accumulated pair by pair in dicts
  (:class:`ReferenceGraph`), and Block Filtering's former three-key
  ``lexsort`` over assignment arrays (:func:`lexsort_assignment_mask`);
* the Block-object graph: a block collection laid out as one CSR span
  and fed to the engine's own pair generator and graph
  (:func:`block_object_graph`);
* the Deduplicate operator's stages (i)–(iii) (:func:`candidate_pairs`)
  and the Batch Approach (:func:`batch_links`), plus an operator, a
  matcher and an engine wired to them (:class:`ReferenceOperator`,
  :class:`ScalarMatcher`, :func:`reference_engine`).

Summation spec.  Edge Pruning visits blocks in ascending token-id order
(*order* maps a block key to its token id; without one, collection
order), and entities in ascending id order within a block.  A pair's
ARCS weight is the left-to-right sum of its blocks' reciprocals in that
visit order; the average weight is the left-to-right sum of the edge
weights in ascending ``(left, right)`` order.  The engine sums in
exactly those orders, so its weights compare to these under ``==``.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

import numpy as np
from reference.signature_oracle import ReferenceMatcher, match_loop

from repro.core.dedup_operator import DeduplicateOperator
from repro.core.engine import QueryEREngine
from repro.er.block_filtering import DEFAULT_RATIO
from repro.er.block_purging import SMOOTHING_FACTOR
from repro.er.edge_pruning import (
    BlockingGraph,
    WeightingScheme,
    generate_span_segments,
    reduce_span_segments,
)
from repro.er.linkset import LinkSet, canonical_pair
from repro.er.meta_blocking import MetaBlockingConfig
from repro.er.packed_blocking import PackedCandidates
from repro.er.util import safe_sorted

Pair = Tuple[Any, Any]


# -- blocks and the dict TBI ----------------------------------------------------
class Block:
    """A blocking key plus the set of entity ids sharing it.

    ``size`` is the paper's |b| (number of entities) and ``cardinality``
    its ||b|| (number of pairwise comparisons |b|·(|b|−1)/2).
    """

    __slots__ = ("key", "entities")

    def __init__(self, key: str, entities: Iterable[Any] = ()):
        self.key = key
        self.entities: Set[Any] = set(entities)

    @property
    def size(self) -> int:
        return len(self.entities)

    @property
    def cardinality(self) -> int:
        n = len(self.entities)
        return n * (n - 1) // 2

    def add(self, entity_id: Any) -> None:
        self.entities.add(entity_id)

    def copy(self) -> "Block":
        """An independent copy sharing no mutable state with this block.

        ``set.copy()`` is a straight memcpy-style clone — measurably
        cheaper than re-hashing every element through ``set(iterable)``,
        which is what ``Block(key, entities)`` would do.
        """
        clone = Block.__new__(Block)
        clone.key = self.key
        clone.entities = self.entities.copy()
        return clone

    def __contains__(self, entity_id: Any) -> bool:
        return entity_id in self.entities

    def __len__(self) -> int:
        return len(self.entities)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.entities)

    def __repr__(self) -> str:
        return f"Block({self.key!r}, size={self.size})"


class BlockCollection:
    """An ordered mapping of blocking key → :class:`Block`.

    This is the in-memory structure behind the paper's ``TBI``, ``QBI``
    and ``EQBI`` indices.  ``|B|`` is :func:`len`; ``||B||`` is
    :attr:`cardinality`.
    """

    def __init__(self, blocks: Optional[Mapping[str, Block]] = None):
        self._blocks: Dict[str, Block] = dict(blocks) if blocks else {}

    # -- construction -------------------------------------------------
    def add(self, key: str, entity_id: Any) -> None:
        """Insert *entity_id* into the block keyed by *key*."""
        block = self._blocks.get(key)
        if block is None:
            block = Block(key)
            self._blocks[key] = block
        block.add(entity_id)

    def put(self, block: Block) -> None:
        """Insert (or replace) a whole block."""
        self._blocks[block.key] = block

    def discard(self, key: str, entity_id: Any) -> None:
        """Remove *entity_id* from the block keyed by *key*, if present.

        An emptied block is deleted outright — a built TBI never holds
        zero-entity blocks, so the undo of an :meth:`add` sequence (the
        DML rollback path) restores the collection element-for-element.
        """
        block = self._blocks.get(key)
        if block is None:
            return
        block.entities.discard(entity_id)
        if not block.entities:
            del self._blocks[key]

    # -- access --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks.values())

    def __contains__(self, key: str) -> bool:
        return key in self._blocks

    def get(self, key: str) -> Optional[Block]:
        return self._blocks.get(key)

    def keys(self) -> List[str]:
        return list(self._blocks)

    @property
    def cardinality(self) -> int:
        """Total comparisons ||B|| = Σ ||b||."""
        return sum(b.cardinality for b in self._blocks.values())

    @property
    def total_assignments(self) -> int:
        """Σ |b| — entity-to-block assignments (block index footprint)."""
        return sum(b.size for b in self._blocks.values())

    def entity_ids(self) -> Set[Any]:
        """All entity ids appearing in any block."""
        ids: Set[Any] = set()
        for block in self._blocks.values():
            ids.update(block.entities)
        return ids

    def non_singleton(self) -> "BlockCollection":
        """Copy keeping only blocks with ≥ 2 entities (comparisons > 0)."""
        return BlockCollection(
            {k: Block(k, b.entities) for k, b in self._blocks.items() if b.size >= 2}
        )

    def copy(self) -> "BlockCollection":
        return BlockCollection({k: Block(k, b.entities) for k, b in self._blocks.items()})

    def inverted(self) -> Dict[Any, List[str]]:
        """Entity id → blocking keys, keys sorted ascending by block size.

        This is the paper's Inverse Table Block Index (ITBI) ordering:
        "sorted in ascending order by their block size" (§3), which Block
        Filtering exploits directly.
        """
        index: Dict[Any, List[str]] = {}
        for block in self._blocks.values():
            for entity_id in block.entities:
                index.setdefault(entity_id, []).append(block.key)
        for entity_id, keys in index.items():
            keys.sort(key=lambda k: (self._blocks[k].size, k))
        return index

    def comparison_pairs(self) -> Set[Tuple[Any, Any]]:
        """Distinct unordered entity pairs co-occurring in some block."""
        pairs: Set[Tuple[Any, Any]] = set()
        for block in self._blocks.values():
            members = safe_sorted(block.entities)
            for i, left in enumerate(members):
                for right in members[i + 1 :]:
                    pairs.add((left, right))
        return pairs

    def __repr__(self) -> str:
        return f"BlockCollection(|B|={len(self)}, ||B||={self.cardinality})"


def build_blocks(blocking, entities: Iterable[Tuple[Any, Mapping[str, Any]]]) -> BlockCollection:
    """The blocks of ``(entity_id, attributes)`` pairs under *blocking*'s keys."""
    collection = BlockCollection()
    for entity_id, attributes in entities:
        for key in sorted(blocking.keys_for(attributes)):
            collection.add(key, entity_id)
    return collection


def reference_tbi(index) -> BlockCollection:
    """The table's TBI, re-tokenized from its rows with ``index.blocking``."""
    return build_blocks(index.blocking, index.entities.items())


def block_sets(collection: BlockCollection) -> Dict[str, FrozenSet[Any]]:
    """Key → member ids of every block of *collection*."""
    return {block.key: frozenset(block.entities) for block in collection}


def postings_blocks(index) -> Dict[str, FrozenSet[Any]]:
    """Key → member ids of every non-empty posting, read from the postings.

    Checks on the way that each posting holds as many distinct members
    as its recorded size.
    """
    postings = index.postings
    vocabulary = index.vocabulary
    tokens = np.arange(len(vocabulary), dtype=np.int64)
    tokens = tokens[postings.sizes_of(tokens) > 0]
    indptr, members = postings.members_of(tokens)
    ids = postings.entity_ids_of(members)
    blocks = {}
    for i, token in enumerate(tokens.tolist()):
        block = frozenset(ids[indptr[i] : indptr[i + 1]])
        assert len(block) == indptr[i + 1] - indptr[i]
        blocks[vocabulary.token_of(token)] = block
    return blocks


# -- (i) Query Blocking and (ii) Block-Join ------------------------------------
def query_block_index(index, entity_ids: Iterable[Any]) -> BlockCollection:
    """The QBI of *entity_ids* (the table's blocking function; unknown ids skipped)."""
    known = [e for e in entity_ids if e in index.table]
    return build_blocks(index.blocking, ((e, index.entities.attributes(e)) for e in known))


def block_join(index, qbi: BlockCollection) -> BlockCollection:
    """The EQBI: every QBI block enriched with its table block's members."""
    tbi = reference_tbi(index)
    eqbi = BlockCollection()
    for block in qbi:
        table_block = tbi.get(block.key)
        if table_block is not None:
            eqbi.put(Block(block.key, block.entities | table_block.entities))
    return eqbi


# -- (iii)a Block Purging -----------------------------------------------------
def purge_threshold(collection: BlockCollection, smoothing: float = SMOOTHING_FACTOR) -> int:
    """Maximum kept block cardinality ||b|| (comparisons-based purging).

    Levels are the distinct cardinalities with cumulative BC(c) = Σ|b|
    and CC(c) = Σ||b|| over blocks with ||b|| ≤ c; walking them
    descending, stop at the first level i where
    ``BC(c_i)·CC(c_{i+1}) < SF·CC(c_i)·BC(c_{i+1})`` and keep up to
    c_{i+1}.  ``0`` for no blocks, the smallest level when the walk
    never stops.
    """
    by_cardinality: Dict[int, Tuple[int, int]] = {}
    for block in collection:
        if block.cardinality > 0:
            size, comparisons = by_cardinality.get(block.cardinality, (0, 0))
            by_cardinality[block.cardinality] = (
                size + block.size,
                comparisons + block.cardinality,
            )
    levels = []
    total_size = total_comparisons = 0
    for cardinality in sorted(by_cardinality):
        size, comparisons = by_cardinality[cardinality]
        total_size += size
        total_comparisons += comparisons
        levels.append((cardinality, total_size, total_comparisons))
    if not levels:
        return 0
    threshold = levels[0][0]
    previous = None
    for cardinality, cum_size, cum_comparisons in reversed(levels):
        if previous is not None:
            next_cardinality, next_size, next_comparisons = previous
            if cum_size * next_comparisons < smoothing * cum_comparisons * next_size:
                return next_cardinality
        previous = (cardinality, cum_size, cum_comparisons)
    return threshold


def block_purging(
    collection: BlockCollection, smoothing: float = SMOOTHING_FACTOR
) -> BlockCollection:
    """Copies of the blocks with ``0 < ||b|| <= purge_threshold``."""
    threshold = purge_threshold(collection, smoothing=smoothing)
    kept = BlockCollection()
    for block in collection:
        if 0 < block.cardinality <= threshold:
            kept.put(block.copy())
    return kept


# -- (iii)b Block Filtering ---------------------------------------------------
def retained_keys(
    collection: BlockCollection, ratio: float = DEFAULT_RATIO
) -> Dict[Any, List[str]]:
    """Each entity's first ``max(1, ceil(ratio·n))`` keys by ``(|b|, key)``."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError("filtering ratio must be in (0, 1]")
    kept: Dict[Any, List[str]] = {}
    for entity_id, keys in collection.inverted().items():
        kept[entity_id] = keys[: max(1, math.ceil(ratio * len(keys)))]
    return kept


def lexsort_assignment_mask(
    entities: Any, sizes: Any, key_ranks: Any, ratio: float = DEFAULT_RATIO
) -> Any:
    """Block Filtering over flat assignment arrays, by a three-key ``lexsort``.

    The array form the engine used before it ranked blocks once:
    parallel per-assignment arrays of dense entity ids, block sizes |b|
    and key ranks (lexicographic over the key strings).  Keeps, per
    entity, its first ``max(1, ceil(ratio * count))`` assignments in
    ascending ``(|b|, key)`` order.  The oracle for
    :func:`repro.er.block_filtering.retained_assignment_mask`.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError("filtering ratio must be in (0, 1]")
    total = len(entities)
    if not total:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((key_ranks, sizes, entities))
    grouped = entities[order]
    boundaries = np.nonzero(np.diff(grouped))[0] + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
    stops = np.concatenate((boundaries, np.array([total], dtype=np.int64)))
    counts = stops - starts
    limits = np.maximum(1, np.ceil(ratio * counts)).astype(np.int64)
    positions = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    keep_sorted = positions < np.repeat(limits, counts)
    mask = np.empty(total, dtype=bool)
    mask[order] = keep_sorted
    return mask


def block_filtering(collection: BlockCollection, ratio: float = DEFAULT_RATIO) -> BlockCollection:
    """The collection restructured to the retained keys, singletons dropped."""
    filtered = BlockCollection()
    for entity_id, keys in retained_keys(collection, ratio=ratio).items():
        for key in keys:
            filtered.add(key, entity_id)
    return filtered.non_singleton()


# -- (iii)c Edge Pruning ------------------------------------------------------
class ReferenceGraph:
    """The blocking graph accumulated pair by pair in dicts."""

    def __init__(
        self,
        collection: BlockCollection,
        scheme: WeightingScheme = WeightingScheme.ARCS,
        focus: Optional[Set[Any]] = None,
        order: Optional[Callable[[str], Any]] = None,
    ):
        self.scheme = scheme
        self.block_count = max(len(collection), 1)
        blocks = list(collection)
        if order is not None:
            blocks.sort(key=lambda block: order(block.key))
        rank = {entity: i for i, entity in enumerate(safe_sorted(collection.entity_ids()))}
        self._rank = rank
        self.entity_blocks: Dict[Any, int] = {}
        self.shared_blocks: Dict[Pair, int] = {}
        self.shared_arcs: Dict[Pair, float] = {}
        for block in blocks:
            members = sorted(block.entities, key=rank.__getitem__)
            reciprocal = 1.0 / block.cardinality if block.cardinality else 0.0
            for entity in members:
                self.entity_blocks[entity] = self.entity_blocks.get(entity, 0) + 1
            for i, left in enumerate(members):
                for right in members[i + 1 :]:
                    if focus is not None and left not in focus and right not in focus:
                        continue
                    pair = (left, right)
                    self.shared_blocks[pair] = self.shared_blocks.get(pair, 0) + 1
                    self.shared_arcs[pair] = self.shared_arcs.get(pair, 0.0) + reciprocal

    def __len__(self) -> int:
        return len(self.shared_blocks)

    def nodes(self) -> Set[Any]:
        return set(self.entity_blocks)

    def weight(self, a: Any, b: Any) -> float:
        pair = (a, b) if self._rank.get(a, -1) < self._rank.get(b, -1) else (b, a)
        common = self.shared_blocks.get(pair, 0)
        if not common:
            return 0.0
        if self.scheme is WeightingScheme.ARCS:
            return self.shared_arcs[pair]
        if self.scheme is WeightingScheme.CBS:
            return float(common)
        blocks_a = self.entity_blocks[pair[0]]
        blocks_b = self.entity_blocks[pair[1]]
        if self.scheme is WeightingScheme.ECBS:
            boost_a = math.log(self.block_count / blocks_a)
            boost_b = math.log(self.block_count / blocks_b)
            if boost_a <= 0.0 or boost_b <= 0.0:
                return float(common)
            return common * boost_a * boost_b
        union = blocks_a + blocks_b - common
        return common / union if union else 0.0

    def edges(self) -> Iterator[Tuple[Any, Any, float]]:
        """``(a, b, weight)`` in ascending ``(left, right)`` order."""
        rank = self._rank
        for a, b in sorted(self.shared_blocks, key=lambda p: (rank[p[0]], rank[p[1]])):
            yield a, b, self.weight(a, b)

    def average_weight(self) -> float:
        if not self.shared_blocks:
            return 0.0
        total = 0.0
        for _, _, weight in self.edges():
            total += weight
        return total / len(self.shared_blocks)



def retained_pairs(graph: Any, threshold: float) -> Set[Pair]:
    """The pairs of *graph* — a :class:`ReferenceGraph` or the engine's
    :class:`~repro.er.edge_pruning.BlockingGraph` — whose weight is at
    or above *threshold*."""
    return {(a, b) for a, b, weight in graph.edges() if weight >= threshold}


def edge_pruning(
    collection: BlockCollection,
    scheme: WeightingScheme = WeightingScheme.ARCS,
    focus: Optional[Set[Any]] = None,
    order: Optional[Callable[[str], Any]] = None,
) -> Set[Pair]:
    """Weighted Edge Pruning: the pairs at or above the average weight."""
    graph = ReferenceGraph(collection, scheme=scheme, focus=focus, order=order)
    return retained_pairs(graph, graph.average_weight())


def pairs_to_blocks(pairs: Iterable[Pair]) -> BlockCollection:
    """One 2-entity block per retained pair."""
    collection = BlockCollection()
    for number, (a, b) in enumerate(sorted(pairs, key=repr)):
        collection.put(Block(f"pair:{number}", (a, b)))
    return collection


def apply_meta_blocking(
    collection: BlockCollection,
    config: Optional[MetaBlockingConfig] = None,
    focus: Optional[Set[Any]] = None,
    order: Optional[Callable[[str], Any]] = None,
) -> BlockCollection:
    """BP → BF → EP over *collection*; EP's survivors come back as pair blocks."""
    config = config or MetaBlockingConfig.all()
    current = collection.non_singleton()
    if config.purging:
        current = block_purging(current, smoothing=config.smoothing_factor)
    if config.filtering:
        current = block_filtering(current, ratio=config.filter_ratio)
    if config.pruning:
        current = pairs_to_blocks(
            edge_pruning(current, scheme=config.weighting, focus=focus, order=order)
        )
    return current


# -- the Block-object graph ---------------------------------------------------
def prepare_packed_universe(
    collection: BlockCollection, focus: Optional[Set[Any]]
) -> Tuple[List[Any], Dict[Any, int], Optional[bytearray]]:
    """Sorted entity universe, its dense index and the focus mask."""
    universe = safe_sorted(collection.entity_ids())
    index_of = {entity: i for i, entity in enumerate(universe)}
    if focus is None:
        return universe, index_of, None
    in_focus = bytearray(len(universe))
    for entity in focus:
        if entity in index_of:
            in_focus[index_of[entity]] = 1
    return universe, index_of, in_focus


def collection_span(blocks: Iterable[Block], index_of: Dict[Any, int]) -> Tuple[Any, Any]:
    """``(members, indptr)``: *blocks* as one CSR span, in visit order."""
    blocks = list(blocks)
    indptr = np.zeros(len(blocks) + 1, dtype=np.int64)
    np.cumsum(np.array([block.size for block in blocks], dtype=np.int64), out=indptr[1:])
    members = np.array(
        [index_of[e] for block in blocks for e in block.entities], dtype=np.int64
    )
    return members, indptr


def block_object_graph(
    collection: BlockCollection,
    scheme: WeightingScheme = WeightingScheme.ARCS,
    focus: Optional[Set[Any]] = None,
) -> BlockingGraph:
    """The engine's graph over a block collection, blocks in collection order."""
    universe, index_of, in_focus = prepare_packed_universe(collection, focus)
    members, indptr = collection_span(collection, index_of)
    need_arcs = scheme is WeightingScheme.ARCS
    keys, values, block_counts = generate_span_segments(
        members, indptr, len(universe), in_focus, need_arcs
    )
    edge_keys, edge_stats = reduce_span_segments(keys, values, need_arcs)
    return BlockingGraph(
        scheme, len(collection), universe, block_counts, edge_keys, edge_stats
    )


# -- the Deduplicate operator's stages (i)–(iii) and the Batch Approach --------
def token_order(index) -> Callable[[str], int]:
    """Block key → token id in the table's vocabulary (every TBI key is interned)."""
    return index.vocabulary.id_of


def _enumerate_pairs(refined: BlockCollection, frontier: Optional[Set[Any]]) -> List[Pair]:
    pairs: List[Pair] = []
    seen: Set[Pair] = set()
    for block in refined:
        members = safe_sorted(block.entities)
        for i, left in enumerate(members):
            for right in members[i + 1 :]:
                if frontier is not None and left not in frontier and right not in frontier:
                    continue
                pair = canonical_pair(left, right)
                if pair not in seen:
                    seen.add(pair)
                    pairs.append(pair)
    return pairs


def refined_eqbi(index, frontier: Set[Any], config: MetaBlockingConfig) -> BlockCollection:
    """The frontier's EQBI after Block Purging and Block Filtering."""
    eqbi = block_join(index, query_block_index(index, frontier))
    return apply_meta_blocking(eqbi, replace(config, pruning=False))


def reference_graph(index, frontier: Set[Any], config: MetaBlockingConfig) -> ReferenceGraph:
    """The Edge-Pruning graph the frontier's derivation weighs."""
    return ReferenceGraph(
        refined_eqbi(index, frontier, config),
        scheme=config.weighting,
        focus=set(frontier),
        order=token_order(index),
    )


def candidate_pairs(
    index, frontier: Iterable[Any], config: Optional[MetaBlockingConfig] = None
) -> PackedCandidates:
    """QBI → Block-Join → BP → BF → EP → frontier-incident pairs."""
    config = config or MetaBlockingConfig.all()
    frontier = set(frontier)
    qbi = query_block_index(index, frontier)
    eqbi = block_join(index, qbi)
    refined = apply_meta_blocking(eqbi, config, focus=frontier, order=token_order(index))
    return PackedCandidates(
        _enumerate_pairs(refined, frontier),
        len(qbi),
        len(eqbi),
        eqbi.cardinality,
        refined.cardinality,
    )


def batch_pairs(index, config: Optional[MetaBlockingConfig] = None) -> List[Pair]:
    """The Batch Approach's candidates: meta-blocking over the whole TBI."""
    refined = apply_meta_blocking(reference_tbi(index), config, order=token_order(index))
    return _enumerate_pairs(refined, None)


# -- matching -----------------------------------------------------------------
class ScalarMatcher(ReferenceMatcher):
    """A matcher whose batched entry point is the oracle's scalar loop."""

    def match_pair_indices(self, pairs, signatures):
        return match_loop(self, pairs, signatures)


def scalar_matcher(index, threshold: float = 0.75) -> ScalarMatcher:
    return ScalarMatcher(threshold=threshold, exclude=(index.table.schema.id_column,))


def batch_links(
    index, config: Optional[MetaBlockingConfig] = None, threshold: float = 0.75
) -> LinkSet:
    """The Batch Approach's links: dict blocking and the scalar matcher."""
    pairs = batch_pairs(index, config)
    links = LinkSet()
    for position in scalar_matcher(index, threshold).match_pair_indices(
        pairs, index.signatures
    ):
        links.add(*pairs[position])
    return links


# -- operator and engine ------------------------------------------------------
class ReferenceOperator(DeduplicateOperator):
    """The Deduplicate operator over :func:`candidate_pairs`."""

    def _candidate_pairs(self, frontier, compared, context, stats):
        derived = candidate_pairs(self.index, frontier, self.meta_blocking)
        stats.qbi_blocks = max(stats.qbi_blocks, derived.qbi_blocks)
        stats.eqbi_blocks = max(stats.eqbi_blocks, derived.eqbi_blocks)
        stats.eqbi_comparisons_before += derived.comparisons_before
        stats.eqbi_comparisons_after += derived.comparisons_after
        pairs = [pair for pair in derived.pairs if pair not in compared]
        compared.update(pairs)
        return pairs


def reference_operator(index, config=None, threshold: float = 0.75, **kwargs):
    """A :class:`ReferenceOperator` with a :class:`ScalarMatcher`."""
    return ReferenceOperator(
        index,
        matcher=scalar_matcher(index, threshold),
        meta_blocking=config or MetaBlockingConfig.all(),
        **kwargs,
    )


class _ReferenceEngine(QueryEREngine):
    def dedup_operator(self, index):
        return reference_operator(
            index,
            self.meta_blocking,
            self.match_threshold,
            use_link_index=self.use_link_index,
        )


def reference_engine(**kwargs) -> QueryEREngine:
    """An engine whose every DEDUP runs the reference operator."""
    return _ReferenceEngine(**kwargs)
