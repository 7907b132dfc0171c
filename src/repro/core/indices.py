"""QueryER's per-table in-memory indices (paper §3, §6.1).

* **Table Block Index (TBI)** and **Inverse Table Block Index (ITBI)** —
  block key → record ids and record id → block keys over the whole
  collection, held together as the table's CSR
  :class:`~repro.er.blocking.TokenPostings` (the inverted and the
  forward side); built once at registration and amended in place by
  ``INSERT`` batches.
* **Query Block Index (QBI)** — the blocks of the entities a query
  evaluates, gathered on the fly from the postings by
  :func:`~repro.er.packed_blocking.derive_candidates`.
* **Signature columns** — per-row token ids, value shapes and character
  elements, what Comparison-Execution screens pairs with
  (:class:`~repro.er.matching.SignatureColumns`); built at
  registration, appended per ``INSERT`` batch.
* **Link Index (LI)** — record id → resolved duplicate cluster, amended
  with every query's findings; the engine of progressive cleaning
  (Fig 11).  Its :class:`~repro.er.linkset.LinkSet` keeps a union-find
  member index, so a cluster read is a lookup, and a Deduplicate reads
  the clusters of resolved entities in place instead of copying them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.entity import EntityCollection
from repro.er.blocking import TokenBlocking, TokenPostings
from repro.er.linkset import LinkSet
from repro.er.matching import SignatureColumns, SignatureRow
from repro.er.tokenizer import MIN_TOKEN_LENGTH, TokenVocabulary
from repro.resilience import inject
from repro.storage.table import Table


@dataclass(frozen=True)
class IndexDelta:
    """What one incremental postings amendment changed.

    ``touched_keys`` are the blocking keys that gained at least one new
    record; ``affected_ids`` are the *pre-existing* entities co-occurring
    in a touched block — exactly the candidates Link-Index
    invalidation must consider.
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

    A Deduplicate reads a resolved entity's cluster in place and, when
    it commits, has :meth:`add_links` record that entity's *star* — a
    pair from it to every other member of the cluster it read.  Clusters
    only grow, so a star recorded at the cluster's present size is
    already in the pairs: ``_star_sizes`` (entity → cluster size at its
    last star, never persisted) lets a re-issue skip it.
    """

    def __init__(self) -> None:
        self._links = LinkSet()
        self._resolved: Set[Any] = set()
        self._star_sizes: Dict[Any, int] = {}

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

    def add_links(self, links: Iterable[tuple], stars: Iterable[Any] = ()) -> None:
        """Record the pairs of *links*, after the star of each of *stars*
        over its cluster as it stands before those pairs; a star whose
        cluster has not grown since it was last recorded is skipped."""
        pairs = self._links
        sizes = self._star_sizes
        for entity_id in stars:
            component = pairs.component(entity_id)
            if component is not None and sizes.get(entity_id) != len(component[1]):
                sizes[entity_id] = len(component[1])
                pairs.add_all(entity_id, component[1])
        pairs.update(links)

    def cluster_of(self, entity_id: Any) -> Set[Any]:
        return self._links.cluster_of(entity_id)

    def clear(self) -> None:
        """Forget everything (used to measure the no-LI configuration)."""
        self._links = LinkSet()
        self._resolved = set()
        self._star_sizes = {}

    @property
    def resolved_count(self) -> int:
        return len(self._resolved)

    def __len__(self) -> int:
        return len(self._links)

    def __repr__(self) -> str:
        return f"LinkIndex({len(self._resolved)} resolved, {len(self._links)} links)"


def _size_ordered(key_sets: List[Set[str]], sizes: Counter) -> List[List[str]]:
    """Each key set sorted by ``(block size, key)``, sizes counted on top of *sizes*.

    The interning rule: postings intern a row's keys in list order, so
    this total order makes every token id a function of the rows alone —
    not of the hash seed that orders a ``set``.
    """
    for keys in key_sets:
        sizes.update(keys)
    return [sorted(keys, key=lambda key: (sizes[key], key)) for keys in key_sets]


class TableIndex:
    """Token postings (TBI + ITBI), signature columns and LI of one table.

    The postings and the Comparison-Execution
    :class:`~repro.er.matching.SignatureColumns` are built (and the LI
    initialized empty) once-off when the table is registered and live
    in memory (§3); ``INSERT`` batches amend both in place.  The same
    :class:`~repro.er.blocking.TokenBlocking` instance serves the TBI and
    every QBI so their keys stay join-compatible.

    Two invariants the persistence codec relies on:

    * an entity's dense postings id is its table row position, and its
      row of the signature columns;
    * token ids are a function of the rows alone.  Registration interns
      each row's keys in ascending ``(table block size, key)`` order,
      rows in table order, and an ``INSERT`` batch interns its rows' new
      keys by the same rule over the block sizes after the batch.  Token
      ids fix Edge Pruning's summation order and are persisted, so they
      depend neither on the hash seed nor on which queries ran first.
    """

    def __init__(self, table: Table, blocking: Optional[TokenBlocking] = None):
        self.table = table
        self.entities = EntityCollection(table)
        self.blocking = blocking or TokenBlocking(exclude_attributes=(table.schema.id_column,))
        self.link_index = LinkIndex()
        self.vocabulary = TokenVocabulary()
        keys_for = self.blocking.keys_for
        key_sets = [keys_for(attributes) for _, attributes in self.entities.items()]
        self.postings = TokenPostings.build(
            zip(table.ids, _size_ordered(key_sets, Counter())), self.vocabulary
        )
        self.signatures = self._signature_columns()

    # -- (de)hydration ----------------------------------------------------
    def to_arrays(self, start: int = 0) -> Dict[str, Any]:
        """The blocking keys of table rows ``[start:]`` as a forward CSR.

        Returns ``itbi_indptr`` (rebased to start at 0) and
        ``itbi_tokens``, token ids of the table's
        :class:`~repro.er.tokenizer.TokenVocabulary` — a slice of the
        postings, so reading it interns nothing.  Together with the
        vocabulary's token list this is everything :meth:`from_arrays`
        needs to rebuild the postings without re-tokenizing a single
        attribute value.
        """
        csr = self.postings.to_arrays(start)
        table = self.table
        if csr["entity_ids"] != [table[position].id for position in range(start, len(table))]:
            raise RuntimeError(
                f"postings of {table.name!r} are out of step with its rows"
            )
        return {"itbi_indptr": csr["indptr"], "itbi_tokens": csr["tokens"]}

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
    ) -> "TableIndex":
        """Rehydrate a :class:`TableIndex` from persisted arrays.

        The inverse of :meth:`to_arrays`: row ``i`` of the CSR becomes
        dense postings id ``i`` and the inverted side is one counting
        sort away.  The signature columns are rebuilt in bulk; under
        the default blocking their token ids are read off the restored
        CSR, equal to the saved engine's.
        """
        index = cls.__new__(cls)
        index.table = table
        index.entities = EntityCollection(table)
        index.blocking = blocking or TokenBlocking(
            exclude_attributes=(table.schema.id_column,)
        )
        index.vocabulary = vocabulary
        index.postings = TokenPostings.from_arrays(
            table.ids, itbi_indptr, itbi_tokens, vocabulary
        )
        index.link_index = LinkIndex()
        index.link_index.add_links(link_pairs)
        index.link_index.mark_resolved(resolved)
        index.signatures = index._signature_columns()
        return index

    # -- profile signatures ----------------------------------------------
    def _signature_columns(self) -> SignatureColumns:
        """The table's :class:`SignatureColumns`, built over every row.

        The matcher compares every non-id attribute, tokenized at the
        default minimum length.  When the blocking function produces
        exactly those tokens — the default :class:`TokenBlocking` — each
        row's token ids are its postings row, read without interning;
        any other blocking function leaves the columns a private
        vocabulary of their own.
        """
        table = self.table
        id_column = table.schema.id_column
        exclude = frozenset({id_column.lower()})
        blocking = self.blocking
        keys_are_tokens = (
            type(blocking) is TokenBlocking
            and blocking.min_token_length == MIN_TOKEN_LENGTH
            and blocking.numeric_min_length is None
            and frozenset(name.lower() for name in blocking.exclude_attributes) == exclude
        )
        id_position = table.schema.id_position

        def values_of(row: int) -> Tuple[Any, ...]:
            values = self.table[row].values
            return values[:id_position] + values[id_position + 1 :]

        columns = SignatureColumns(
            [name for name in table.schema.names if name != id_column],
            exclude,
            self.postings.dense_ids,
            values_of,
            vocabulary=self.vocabulary if keys_are_tokens else None,
        )
        self._append_signatures(columns, 0)
        return columns

    def _append_signatures(self, columns: SignatureColumns, start: int) -> None:
        """Append postings rows ``[start:]`` — table rows too — to *columns*."""
        table = self.table
        stop = self.postings.entity_count
        values = table.column_values(start, stop)
        id_position = table.schema.id_position
        values = [column for position, column in enumerate(values) if position != id_position]
        tokens = None
        if columns.vocabulary is self.vocabulary:
            csr = self.postings.to_arrays(start)
            tokens = (csr["indptr"], csr["tokens"])
        columns.append(stop - start, values, tokens)

    def signature_of(self, entity_id: Any) -> SignatureRow:
        """The entity's row of :attr:`signatures`."""
        return self.signatures[entity_id]

    # -- incremental maintenance ----------------------------------------------
    def add_records(
        self,
        entity_ids: Iterable[Any],
    ) -> "IndexDelta":
        """Amend the postings with rows already appended to the table.

        No rebuild: each new record is appended to the postings, its new
        keys interned in ascending ``(block size after the batch, key)``
        order.  The postings then hold the same blocks as a registration
        of the grown table (asserted by the incremental-maintenance
        tests).

        The batch's rows are appended to the signature columns too, in
        bulk.

        **Atomic.**  A failure mid-batch (tokenization error, injected
        ``dml.index_delta`` fault) truncates the postings and the
        signature columns back to the pre-batch entity count before
        re-raising.  Tokens the batch interned stay in the vocabulary,
        with empty postings; interning is append-only.
        """
        new_ids = list(entity_ids)
        postings = self.postings
        vocabulary = self.vocabulary
        before = postings.entity_count
        try:
            key_sets = [
                self.blocking.keys_for(self.entities.attributes(entity_id))
                for entity_id in new_ids
            ]
            touched = set().union(*key_sets)
            known = [key for key in touched if key in vocabulary]
            sizes = postings.sizes_of([vocabulary.id_of(key) for key in known])
            ordered = _size_ordered(key_sets, Counter(dict(zip(known, sizes.tolist()))))
            for entity_id, keys in zip(new_ids, ordered):
                inject("dml.index_delta")  # the mid-batch crash the rollback suite drives
                postings.add_entity(entity_id, keys)
            _, members = postings.members_of([vocabulary.id_of(key) for key in touched])
            affected = set(postings.entity_ids_of(np.unique(members))).difference(new_ids)
            self._append_signatures(self.signatures, before)
        except BaseException:
            self._truncate(before)
            raise
        return IndexDelta(tuple(new_ids), frozenset(touched), frozenset(affected))

    def remove_records(self, delta: "IndexDelta") -> None:
        """Revert a fully-applied :meth:`add_records` delta (rollback path).

        Used by the :class:`~repro.incremental.IndexMaintainer` when a
        step *after* index amendment fails and the whole insert must
        unwind.  The batch must be the postings' tail.
        """
        count = self.postings.entity_count
        start = count - len(delta.new_ids)
        tail = self.postings.entity_ids_of(np.arange(max(start, 0), count))
        if tail != list(delta.new_ids):
            raise ValueError("delta to remove is not the last batch added")
        self._truncate(start)

    def _truncate(self, entity_count: int) -> None:
        """Cut the postings and signature columns back to *entity_count* rows."""
        self.signatures.truncate(entity_count)
        self.postings.truncate(entity_count)

    # -- stats -----------------------------------------------------------------
    @property
    def block_count(self) -> int:
        """|TBI| as reported in the paper's Table 7."""
        return self.postings.block_count

    def __repr__(self) -> str:
        return (
            f"TableIndex({self.table.name!r}, |E|={len(self.table)}, "
            f"|TBI|={self.block_count}, LI={self.link_index!r})"
        )
