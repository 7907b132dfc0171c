"""QueryER's per-table in-memory indices (paper §3, §6.1).

* **Table Block Index (TBI)** — block key → record ids over the whole
  collection; built once at registration.
* **Inverse Table Block Index (ITBI)** — record id → its block keys,
  sorted ascending by block size (what Block Filtering needs).
* **Query Block Index (QBI)** — the same structure built on-the-fly for
  the entities a query evaluates; produced by
  :meth:`TableIndex.query_block_index`.
* **Link Index (LI)** — record id → resolved duplicates, amended with
  every query's findings; the engine of progressive cleaning (Fig 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.entity import EntityCollection
from repro.er.blocking import Block, BlockCollection, TokenBlocking, TokenPostings
from repro.er.linkset import LinkSet
from repro.er.matching import ProfileSignature, build_signature
from repro.er.tokenizer import TokenVocabulary
from repro.resilience import inject
from repro.storage.table import Table


@dataclass(frozen=True)
class IndexDelta:
    """What one incremental TBI/ITBI amendment changed.

    ``touched_keys`` are the blocking keys that gained at least one new
    record; ``affected_ids`` are the *pre-existing* entities co-occurring
    in a touched block — exactly the candidates the Link-Index
    invalidation policy must consider.
    """

    new_ids: Tuple[Any, ...]
    touched_keys: FrozenSet[str]
    affected_ids: FrozenSet[Any]


class LinkIndex:
    """LI: per-entity resolved link-sets, amended query after query.

    Distinguishes *resolved* entities (their duplicates were computed —
    possibly none were found) from merely *linked* ones, so the
    Deduplicate operator can skip re-resolving entities that a previous
    query already paid for (§6.1: "we only need to compute the link-sets
    of those entities in QE that are not already in LI").
    """

    def __init__(self) -> None:
        self._links = LinkSet()
        self._resolved: Set[Any] = set()

    @property
    def links(self) -> LinkSet:
        return self._links

    def is_resolved(self, entity_id: Any) -> bool:
        return entity_id in self._resolved

    def resolved_subset(self, entity_ids: Iterable[Any]) -> Set[Any]:
        """The subset of *entity_ids* already resolved."""
        return {e for e in entity_ids if e in self._resolved}

    def mark_resolved(self, entity_ids: Iterable[Any]) -> None:
        self._resolved.update(entity_ids)

    def unresolve(self, entity_ids: Iterable[Any]) -> int:
        """Drop *entity_ids* from the resolved set, returning how many were.

        Their recorded links stay — links are facts (the matcher is
        deterministic over immutable attribute values) — but the entities
        will be re-resolved by the next query that evaluates them, which
        is how ingestion keeps progressive cleaning sound after appends.
        """
        before = len(self._resolved)
        self._resolved.difference_update(entity_ids)
        return before - len(self._resolved)

    def add_links(self, links: Iterable[tuple]) -> None:
        for a, b in links:
            self._links.add(a, b)

    def duplicates_of(self, entity_id: Any) -> Set[Any]:
        return self._links.duplicates_of(entity_id)

    def cluster_of(self, entity_id: Any) -> Set[Any]:
        return self._links.cluster_of(entity_id)

    def clear(self) -> None:
        """Forget everything (used to measure the no-LI configuration)."""
        self._links = LinkSet()
        self._resolved = set()

    @property
    def resolved_count(self) -> int:
        return len(self._resolved)

    def __len__(self) -> int:
        return len(self._links)

    def __repr__(self) -> str:
        return f"LinkIndex({len(self._resolved)} resolved, {len(self._links)} links)"


class SignatureView:
    """Read-only mapping view: entity id → its (lazily built) signature.

    What :meth:`ProfileMatcher.match_pair_indices` takes as its
    ``signatures`` — no dict of signatures is materialized per call.
    """

    __slots__ = ("_signature_of",)

    def __init__(self, index: "TableIndex"):
        self._signature_of = index.signature_of

    def __getitem__(self, entity_id: Any) -> ProfileSignature:
        return self._signature_of(entity_id)


class TableIndex:
    """TBI + ITBI + LI bundle for one registered entity collection.

    All three are built (or initialized empty, for LI) once-off when the
    table is registered and live in memory (§3).  The same
    :class:`~repro.er.blocking.TokenBlocking` instance serves the TBI and
    every QBI so their keys stay join-compatible.
    """

    def __init__(self, table: Table, blocking: Optional[TokenBlocking] = None):
        self.table = table
        self.entities = EntityCollection(table)
        self.blocking = blocking or TokenBlocking(exclude_attributes=(table.schema.id_column,))
        self.tbi: BlockCollection = self.blocking.build(self.entities.items())
        self.itbi: Dict[Any, List[str]] = self.tbi.inverted()
        self.link_index = LinkIndex()
        # Comparison-Execution fast-path state: one token vocabulary per
        # table, and per-entity profile signatures memoized on first use
        # (rows are immutable, so a signature never goes stale; appends
        # only add ids that simply are not cached yet).
        self.vocabulary = TokenVocabulary()
        self._signatures: Dict[Any, ProfileSignature] = {}
        self._signature_exclude = frozenset({table.schema.id_column.lower()})
        # Columnar blocking fast-path state: the CSR token postings are
        # the TBI/ITBI's array twin, built lazily from the dict indices
        # on first packed query and amended delta-wise on appends.
        self._postings: Optional[TokenPostings] = None

    # -- (de)hydration ----------------------------------------------------
    def to_arrays(self) -> Dict[str, Any]:
        """Dehydrate the blocking state as a forward CSR over token ids.

        Returns ``itbi_indptr`` / ``itbi_tokens`` — each row's blocking
        keys (in table row order) interned into the table's
        :class:`~repro.er.tokenizer.TokenVocabulary`.  Interning is
        append-only and idempotent, so reading the arrays may grow the
        vocabulary (keys of tables that never materialized postings)
        but never perturbs existing ids.  Together with the vocabulary's
        token list this is everything :meth:`from_arrays` needs to
        rebuild the TBI, ITBI and postings without re-tokenizing a
        single attribute value.
        """
        intern = self.vocabulary.intern
        indptr: List[int] = [0]
        tokens: List[int] = []
        for row in self.table:
            for key in self.itbi.get(row.id, ()):
                tokens.append(intern(key))
            indptr.append(len(tokens))
        return {"itbi_indptr": indptr, "itbi_tokens": tokens}

    def signature_ids(self) -> Tuple[Any, ...]:
        """Ids of the entities whose profile signatures are cached."""
        return tuple(self._signatures)

    @classmethod
    def from_arrays(
        cls,
        table: Table,
        vocabulary: TokenVocabulary,
        itbi_indptr: Any,
        itbi_tokens: Any,
        blocking: Optional[TokenBlocking] = None,
        link_pairs: Iterable[Tuple[Any, Any]] = (),
        resolved: Iterable[Any] = (),
        signature_ids: Iterable[Any] = (),
    ) -> "TableIndex":
        """Rehydrate a :class:`TableIndex` from persisted arrays.

        The inverse of :meth:`to_arrays`: the TBI falls out of inverting
        the per-row key lists, ITBI ordering is re-derived from the
        restored block sizes ((|b|, key) is a pure function of the TBI,
        exactly what the DML undo path relies on), postings rebuild
        lazily from the re-sorted ITBI, and recorded signatures are
        rebuilt against the restored vocabulary — every token they
        intern is already present, so their ids are bit-identical to the
        saved engine's.  No attribute value is ever re-tokenized.
        """
        index = cls.__new__(cls)
        index.table = table
        index.entities = EntityCollection(table)
        index.blocking = blocking or TokenBlocking(
            exclude_attributes=(table.schema.id_column,)
        )
        index.vocabulary = vocabulary
        index.tbi = BlockCollection()
        index.itbi = {}
        token_of = vocabulary.token_of
        for position, row in enumerate(table):
            start, stop = int(itbi_indptr[position]), int(itbi_indptr[position + 1])
            keys = [token_of(int(t)) for t in itbi_tokens[start:stop]]
            for key in keys:
                index.tbi.add(key, row.id)
            # Token-less rows get no ITBI entry, matching inverted().
            if keys:
                index.itbi[row.id] = keys

        def size_order(key: str):
            return (index.tbi.get(key).size, key)

        for keys in index.itbi.values():
            keys.sort(key=size_order)
        index.link_index = LinkIndex()
        index.link_index.add_links(link_pairs)
        index.link_index.mark_resolved(resolved)
        index._signatures = {}
        index._signature_exclude = frozenset({table.schema.id_column.lower()})
        # Postings stay lazy: the persisted CSR freezes each row's key
        # order as of its segment's write, but packed Block Filtering
        # needs ascending-by-*current*-block-size order.  Building from
        # the freshly re-sorted ITBI on first use (the exact lazy path a
        # fresh registration takes) guarantees that — at counting-sort
        # cost, with zero re-tokenization.
        index._postings = None
        for entity_id in signature_ids:
            index.signature_of(entity_id)
        return index

    # -- columnar postings ------------------------------------------------
    @property
    def postings(self) -> TokenPostings:
        """The table's CSR :class:`~repro.er.blocking.TokenPostings`.

        Built lazily from the ITBI (entities in table order, so dense
        ids are registration-ordered), then kept in lockstep with the
        dict TBI by :meth:`add_records` — the packed blocking pipeline
        and the dict pipeline always see the same assignments.
        """
        if self._postings is None:
            itbi = self.itbi
            self._postings = TokenPostings.build(
                ((row.id, itbi.get(row.id, ())) for row in self.table),
                self.vocabulary,
            )
        return self._postings

    @property
    def postings_built(self) -> bool:
        """Whether the postings have been materialized yet."""
        return self._postings is not None

    # -- profile signatures ----------------------------------------------
    def signature_of(self, entity_id: Any) -> ProfileSignature:
        """The entity's cached :class:`ProfileSignature` (built lazily).

        Laziness keeps registration cost unchanged; a signature is paid
        for exactly once, the first time Comparison-Execution touches the
        entity, and the incremental maintainer pre-builds them for
        ingested batches.
        """
        signature = self._signatures.get(entity_id)
        if signature is None:
            signature = build_signature(
                entity_id,
                self.entities.attributes(entity_id),
                self.vocabulary,
                self._signature_exclude,
            )
            self._signatures[entity_id] = signature
        return signature

    @property
    def signatures(self) -> SignatureView:
        """Mapping view over :meth:`signature_of` (see :class:`SignatureView`)."""
        return SignatureView(self)

    @property
    def signature_count(self) -> int:
        """How many entities currently hold a cached signature."""
        return len(self._signatures)

    # -- incremental maintenance ----------------------------------------------
    def add_records(
        self,
        entity_ids: Iterable[Any],
        keys_of: Optional[Dict[Any, Set[str]]] = None,
    ) -> "IndexDelta":
        """Amend the TBI/ITBI with rows already appended to the table.

        *keys_of*, when given, supplies precomputed blocking keys per
        entity id instead of re-running ``blocking.keys_for`` — the
        shard delta-application path (:mod:`repro.parallel.shards`)
        ships the parent's already-computed keys so a worker applies a
        batch without re-tokenizing; the mapping must equal what
        ``keys_for`` would return, which the hand-off codec guarantees
        by construction (it reads the parent's ITBI).

        No rebuild: each new record's tokens are inserted into the TBI,
        the record gets its own ITBI entry, and — because ITBI key lists
        are ordered ascending by block size (§3) and the touched blocks
        just grew — only the key lists of entities co-occurring in a
        touched block are re-sorted.  The resulting TBI/ITBI are
        element-for-element identical to a from-scratch rebuild over the
        grown table (asserted by the incremental-maintenance tests).

        **Atomic.**  A failure mid-batch (tokenization error, injected
        ``dml.index_delta`` fault) undoes every partial mutation — TBI
        entries, ITBI entries and re-sorts, postings, signatures —
        before re-raising, so the index is either fully amended or
        exactly as it was.  Tokens the batch interned into the
        vocabulary may remain; interning is append-only and an
        unreferenced token is unobservable through any query path.
        """
        new_ids = list(entity_ids)
        new_keys: Dict[Any, Set[str]] = {}
        applied: List[Any] = []
        itbi_added: List[Any] = []
        resorted: Set[Any] = set()
        signatures_added: List[Any] = []
        postings_touched = False
        touched: Set[str] = set()
        affected: Set[Any] = set()

        def size_order(key: str):
            return (self.tbi.get(key).size, key)

        try:
            for entity_id in new_ids:
                inject("dml.index_delta")  # the mid-batch crash the rollback suite drives
                if keys_of is not None and entity_id in keys_of:
                    keys = set(keys_of[entity_id])
                else:
                    keys = self.blocking.keys_for(self.entities.attributes(entity_id))
                new_keys[entity_id] = keys
                for key in keys:
                    self.tbi.add(key, entity_id)
                applied.append(entity_id)
                touched |= keys

            for key in touched:
                affected |= self.tbi.get(key).entities
            affected -= set(new_ids)

            for entity_id in new_ids:
                # Token-less records (all-NULL attributes) get no ITBI entry,
                # matching BlockCollection.inverted() on a rebuild.
                if new_keys[entity_id]:
                    self.itbi[entity_id] = sorted(new_keys[entity_id], key=size_order)
                    itbi_added.append(entity_id)
            for entity_id in affected:
                keys_of = self.itbi.get(entity_id)
                if keys_of:
                    keys_of.sort(key=size_order)
                    resorted.add(entity_id)
            # Postings delta: extend the forward CSR and pending inverted
            # postings with exactly the batch's assignments — no rebuild
            # (unbuilt postings will simply include the rows when first
            # materialized from the grown ITBI).
            if self._postings is not None:
                postings_touched = True
                for entity_id in new_ids:
                    self._postings.add_entity(entity_id, new_keys[entity_id])
            # Pre-build the batch's profile signatures so the vocabulary grows
            # incrementally with the delta and the first post-append query
            # pays no signature cost for the new rows.
            for entity_id in new_ids:
                if entity_id not in self._signatures:
                    signatures_added.append(entity_id)
                self.signature_of(entity_id)
        except BaseException:
            self._undo_delta(
                applied, new_keys, itbi_added, resorted, signatures_added,
                postings_touched,
            )
            raise
        return IndexDelta(tuple(new_ids), frozenset(touched), frozenset(affected))

    def _undo_delta(
        self,
        applied: List[Any],
        new_keys: Dict[Any, Set[str]],
        itbi_added: List[Any],
        resorted: Set[Any],
        signatures_added: List[Any],
        postings_touched: bool,
    ) -> None:
        """Surgically revert a partial :meth:`add_records` application.

        TBI entries come out block-by-block (emptied blocks disappear
        with them), the batch's ITBI entries are dropped, and every
        pre-existing key list that was re-sorted against the grown block
        sizes is re-sorted against the restored ones — ``(|b|, key)``
        order is a pure function of the TBI, so restoring the TBI
        restores the order.  Touched postings are discarded wholesale:
        they are a derived cache, rebuilt lazily from the (now restored)
        dict indices, which is cheaper to prove correct than a partial
        CSR rewind across a possible mid-batch compaction.
        """
        for entity_id in itbi_added:
            self.itbi.pop(entity_id, None)
        for entity_id in applied:
            for key in new_keys.get(entity_id, ()):
                self.tbi.discard(key, entity_id)

        def size_order(key: str):
            block = self.tbi.get(key)
            return (block.size if block is not None else 0, key)

        for entity_id in resorted:
            keys_of = self.itbi.get(entity_id)
            if keys_of:
                keys_of.sort(key=size_order)
        for entity_id in signatures_added:
            self._signatures.pop(entity_id, None)
        if postings_touched:
            self._postings = None

    def remove_records(self, delta: "IndexDelta") -> None:
        """Revert a fully-applied :meth:`add_records` delta (rollback path).

        Used by the :class:`~repro.incremental.IndexMaintainer` when a
        step *after* index amendment fails and the whole insert must
        unwind.  The batch's per-entity keys are recovered from its own
        ITBI entries (exactly what :meth:`add_records` stored).
        """
        keys_by_id = {
            entity_id: set(self.itbi.get(entity_id, ()))
            for entity_id in delta.new_ids
        }
        self._undo_delta(
            list(delta.new_ids),
            keys_by_id,
            list(delta.new_ids),
            set(delta.affected_ids),
            list(delta.new_ids),
            self._postings is not None,
        )

    # -- QBI ----------------------------------------------------------------
    def query_block_index(self, entity_ids: Iterable[Any]) -> BlockCollection:
        """Build the QBI for the given evaluated entities (§6.1(i)).

        Uses the ITBI (each entity's keys are already known) rather than
        re-tokenizing, which is equivalent because TBI and QBI share the
        blocking function.
        """
        qbi = BlockCollection()
        for entity_id in entity_ids:
            for key in self.itbi.get(entity_id, ()):
                qbi.add(key, entity_id)
        return qbi

    # -- Block-Join -----------------------------------------------------------
    def block_join(self, qbi: BlockCollection) -> BlockCollection:
        """Hash-join QBI keys with TBI keys to form the enriched EQBI.

        Each QBI block is enriched with every table entity sharing the
        blocking key (§6.1(ii)); the result approximately covers all
        "dirty" subsets relevant to the query.
        """
        eqbi = BlockCollection()
        for block in qbi:
            table_block = self.tbi.get(block.key)
            if table_block is None:
                continue
            eqbi.put(Block(block.key, block.entities | table_block.entities))
        return eqbi

    # -- stats -----------------------------------------------------------------
    @property
    def block_count(self) -> int:
        """|TBI| as reported in the paper's Table 7."""
        return len(self.tbi)

    def blocks_of(self, entity_id: Any) -> List[str]:
        """ITBI lookup: the entity's block keys, ascending by block size."""
        return list(self.itbi.get(entity_id, ()))

    def __repr__(self) -> str:
        return (
            f"TableIndex({self.table.name!r}, |E|={len(self.table)}, "
            f"|TBI|={len(self.tbi)}, LI={self.link_index!r})"
        )
