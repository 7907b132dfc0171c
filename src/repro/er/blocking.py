"""Schema-agnostic Token Blocking and the table's CSR token postings.

A *block* groups entities sharing a blocking key (a token); ER then
compares only entities that co-occur in at least one block (paper §4).
:class:`TokenPostings` holds a table's blocks as arrays — it is the
table's TBI and ITBI.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.er.tokenizer import MIN_TOKEN_LENGTH, TokenVocabulary, tokenize_entity
from repro.er.util import GrowableArray, gather_ranges


def _object_ids(ids: List[Any]) -> GrowableArray:
    """*ids* as a growable 1-d object array (a tuple stays one element)."""
    return GrowableArray(np.fromiter(ids, dtype=object, count=len(ids)), dtype=object)


class TokenPostings:
    """A table's blocking index: the TBI and ITBI as CSR arrays.

    Two contiguous-array indices over the same entity-to-block
    assignments:

    * **forward** (the ITBI) — entity → token ids: ``_ent_indptr`` /
      ``_ent_tokens``.  Block Filtering orders each entity's blocks by
      ascending size per query, vectorized, so no order is maintained;
    * **inverted** (the TBI) — token id → entity dense ids: a compacted
      base CSR (``_tok_indptr`` / ``_tok_members``) plus a small
      per-token pending delta that ``INSERT INTO`` batches append to.

    Token ids come from the table's shared
    :class:`~repro.er.tokenizer.TokenVocabulary`; entities get dense ids
    in append order.  Appends never rebuild: the forward CSR is
    append-only and inverted deltas are folded into the base only when
    the pending volume reaches the base volume (amortized O(1) per
    posting).  A rollback cuts the forward CSR back
    (:meth:`truncate`).

    The table's entity-id order is kept beside them as arrays
    (:meth:`id_order`): each dense id's rank in ascending entity-id
    order and the ids by rank.  Candidate derivation reads its universe
    order off them.  They are derived state: built on first use after
    :meth:`build`, :meth:`from_arrays` or :meth:`truncate`, and
    extended by a merge of the appended ids on the first use after an
    append, never inside :meth:`add_entity`.
    """

    def __init__(self, vocabulary: TokenVocabulary):
        self.vocabulary = vocabulary
        # Entity id per dense id (an object array).
        self._ids = GrowableArray(dtype=object)
        self._entity_index: Dict[Any, int] = {}
        self._ent_indptr = GrowableArray([0])
        self._ent_tokens = GrowableArray()
        # Inverted base CSR (rebuilt only by compaction) + pending delta.
        self._tok_indptr = np.zeros(1, dtype=np.int64)
        self._tok_members = np.empty(0, dtype=np.int64)
        self._pending: Dict[int, List[int]] = {}
        self._pending_count = 0
        # Total posting length per token id (base + pending), maintained
        # incrementally — the purge/filter stages read it in bulk.
        self._sizes = GrowableArray()
        self._reset_id_order()

    # -- construction ---------------------------------------------------
    @classmethod
    def build(
        cls,
        items: Iterable[Tuple[Any, Iterable[str]]],
        vocabulary: TokenVocabulary,
    ) -> "TokenPostings":
        """Bulk-build postings from ``(entity_id, distinct keys)`` pairs.

        The forward CSR is assembled in one pass (interning each key),
        then the inverted CSR falls out of a single stable counting
        sort — no per-block Python sets, no per-entity key sorts.
        """
        postings = cls(vocabulary)
        intern = vocabulary.intern
        ids: List[Any] = []
        index = postings._entity_index
        indptr: List[int] = [0]
        tokens: List[int] = []
        for entity_id, keys in items:
            index[entity_id] = len(ids)
            ids.append(entity_id)
            for key in keys:
                tokens.append(intern(key))
            indptr.append(len(tokens))
        postings._ids = _object_ids(ids)
        postings._ent_indptr = GrowableArray(indptr)
        postings._ent_tokens = GrowableArray(tokens)
        postings.compact()
        return postings

    @classmethod
    def from_arrays(
        cls,
        entity_ids: Iterable[Any],
        indptr: Any,
        tokens: Any,
        vocabulary: TokenVocabulary,
    ) -> "TokenPostings":
        """Rehydrate postings from a persisted forward CSR (no tokenizing).

        ``indptr``/``tokens`` are the arrays :meth:`to_arrays` produced
        (entities in dense-id order, token ids interned in
        *vocabulary*).  The inverted CSR is rebuilt with the same
        counting sort :meth:`build` uses, so the result is
        indistinguishable from a bulk build over the original keys.
        """
        postings = cls(vocabulary)
        ids = list(entity_ids)
        postings._ids = _object_ids(ids)
        postings._entity_index = {e: i for i, e in enumerate(ids)}
        postings._ent_indptr = GrowableArray(indptr)
        postings._ent_tokens = GrowableArray(tokens)
        if len(postings._ent_indptr) != len(ids) + 1:
            raise ValueError(
                f"indptr has {len(postings._ent_indptr)} entries for "
                f"{len(ids)} entities"
            )
        postings.compact()
        return postings

    def to_arrays(self, start: int = 0) -> Dict[str, Any]:
        """Dehydrate the forward CSR of dense ids ``[start:]``.

        Returns the slice's ``entity_ids``, its ``indptr`` rebased to
        start at 0 and its ``tokens``.  The inverted side is derived
        state (one counting sort away), so only forward arrays need
        persisting; :meth:`from_arrays` over the concatenated slices
        restores both.
        """
        indptr = self._ent_indptr.view()[start:]
        return {
            "entity_ids": self._ids.view()[start:].tolist(),
            "indptr": indptr - indptr[0],
            "tokens": self._ent_tokens.view()[indptr[0] : indptr[-1]].copy(),
        }

    def add_entity(self, entity_id: Any, keys: Iterable[str]) -> int:
        """Append one entity's postings (an ``INSERT`` delta step).

        Cost is proportional to the entity's key count: the forward CSR
        extends in place and inverted updates land in the pending delta.
        Returns the entity's dense id.
        """
        if entity_id in self._entity_index:
            raise ValueError(f"entity {entity_id!r} already has postings")
        dense = len(self._ids)
        self._entity_index[entity_id] = dense
        self._ids.append(entity_id)
        token_ids = [self.vocabulary.intern(key) for key in keys]
        self._ent_tokens.extend(token_ids)
        self._ent_indptr.append(len(self._ent_tokens))
        self._sizes.pad_to(len(self.vocabulary))
        sizes = self._sizes.view()
        pending = self._pending
        for token_id in token_ids:
            sizes[token_id] += 1
            bucket = pending.get(token_id)
            if bucket is None:
                pending[token_id] = [dense]
            else:
                bucket.append(dense)
        self._pending_count += len(token_ids)
        return dense

    def truncate(self, entity_count: int) -> None:
        """Drop every entity from dense id *entity_count* on (rollback).

        The forward CSR is cut back and :meth:`compact` recounts the
        sizes and rebuilds the inverted CSR — O(assignments), which only
        a rolled-back ``INSERT`` pays.  Tokens the dropped entities
        interned stay in the vocabulary, with empty postings.  The id
        order is rebuilt on its next use.
        """
        if not 0 <= entity_count <= self.entity_count:
            raise ValueError(
                f"cannot truncate {self.entity_count} entities to {entity_count}"
            )
        for entity_id in self._ids.view()[entity_count:].tolist():
            del self._entity_index[entity_id]
        self._ids.view()[entity_count:] = None  # release the dropped ids
        self._ids.truncate(entity_count)
        self._ent_indptr.truncate(entity_count + 1)
        self._ent_tokens.truncate(int(self._ent_indptr.view()[-1]))
        self._reset_id_order()
        self.compact()

    def compact(self) -> None:
        """Fold pending deltas into the inverted base CSR.

        One stable sort of the forward arrays' token ids, which also
        recounts every posting size: O(assignments), fully vectorized.
        Triggered automatically only when the pending volume has caught
        up with the base volume, so append-heavy workloads pay amortized
        O(1) per posting.
        """
        tokens = self._ent_tokens.view()
        indptr = self._ent_indptr.view()
        counts = np.diff(indptr)
        entities = np.repeat(np.arange(len(self._ids), dtype=np.int64), counts)
        token_counts = np.bincount(tokens, minlength=len(self.vocabulary))
        self._sizes = GrowableArray(token_counts)
        self._tok_indptr = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(token_counts, dtype=np.int64))
        )
        order = np.argsort(tokens, kind="stable")
        self._tok_members = entities[order]
        self._pending = {}
        self._pending_count = 0

    def _maybe_compact(self) -> None:
        if self._pending_count and self._pending_count >= max(
            256, len(self._tok_members)
        ):
            self.compact()

    # -- entity mapping -------------------------------------------------
    @property
    def entity_count(self) -> int:
        return len(self._ids)

    @property
    def assignment_count(self) -> int:
        """Σ |b| — total entity-to-block assignments."""
        return len(self._ent_tokens)

    @property
    def block_count(self) -> int:
        """|TBI| — how many tokens have a non-empty posting."""
        return int(np.count_nonzero(self._sizes.view()))

    @property
    def dense_ids(self) -> Mapping[Any, int]:
        """Entity id → dense id, live (read-only to callers)."""
        return self._entity_index

    def entity_ids_of(self, dense: Any) -> List[Any]:
        return self._ids.view()[dense].tolist()

    def dense_frontier(self, entity_ids: Iterable[Any]) -> Any:
        """Sorted dense ids of the known subset of *entity_ids*."""
        index = self._entity_index
        dense = [index[e] for e in entity_ids if e in index]
        dense.sort()
        return np.array(dense, dtype=np.int64)

    def id_order(self) -> Tuple[Any, Any]:
        """``(rank, ids)``: the table's entities in ascending id order.

        ``rank[d]`` is dense id *d*'s position in that order and
        ``ids[r]`` the entity id at position *r* (an object array).  Ids
        appended since the last call are merged in: sorted among
        themselves, then placed with one ``searchsorted`` over the
        ordered ids.  Ids of mixed types, which do not compare, are
        ordered by ``repr`` over the whole table instead.
        """
        count = self.entity_count
        if self._ranked != count:
            ids = self._ids.view()
            if not self._repr_order:
                try:
                    self._merge_ids(ids, count)
                except TypeError:
                    self._repr_order = True
            if self._repr_order:
                keys = list(map(repr, ids.tolist()))
                self._by_rank = np.array(
                    sorted(range(count), key=keys.__getitem__), dtype=np.int64
                )
                self._sorted_ids = ids[self._by_rank]
            self._ranked = count
            self._rank = np.empty(count, dtype=np.int64)
            self._rank[self._by_rank] = np.arange(count, dtype=np.int64)
        return self._rank, self._sorted_ids

    def _merge_ids(self, ids: Any, count: int) -> None:
        """Merge dense ids ``[self._ranked, count)`` into the ordered arrays."""
        start = self._ranked
        new = ids[start:count]
        order = np.array(sorted(range(len(new)), key=new.tolist().__getitem__), dtype=np.int64)
        new = new[order]
        at = np.searchsorted(self._sorted_ids, new)
        self._by_rank = np.insert(self._by_rank, at, start + order)
        self._sorted_ids = np.insert(self._sorted_ids, at, new)

    def _reset_id_order(self) -> None:
        self._ranked = 0
        self._repr_order = False
        self._by_rank = np.empty(0, dtype=np.int64)
        self._rank = np.empty(0, dtype=np.int64)
        self._sorted_ids = np.empty(0, dtype=object)

    # -- forward postings -----------------------------------------------
    def tokens_of_entities(self, dense: Any) -> Any:
        """Distinct token ids over the given dense entities (sorted)."""
        if not len(dense):
            return np.empty(0, dtype=np.int64)
        indptr = self._ent_indptr.view()
        starts = indptr[dense]
        counts = indptr[dense + 1] - starts
        gathered = gather_ranges(self._ent_tokens.view(), starts, counts)
        return np.unique(gathered)

    # -- inverted postings ----------------------------------------------
    def sizes_of(self, token_ids: Any) -> Any:
        """Posting length |b| per token id (vectorized)."""
        self._sizes.pad_to(len(self.vocabulary))
        return self._sizes.view()[token_ids]

    def members_of(self, token_ids: Any) -> Tuple[Any, Any]:
        """CSR (indptr, members) of the given tokens' full postings.

        Base segments gather vectorized; pending deltas (only present
        between an append and the next compaction) fill in per token.
        """
        self._maybe_compact()
        token_ids = np.asarray(token_ids, dtype=np.int64)
        base_n = len(self._tok_indptr) - 1
        if base_n:
            clipped = np.minimum(token_ids, base_n - 1)
            in_base = token_ids < base_n
            starts = np.where(in_base, self._tok_indptr[clipped], 0)
            base_counts = np.where(
                in_base, self._tok_indptr[clipped + 1] - starts, 0
            )
        else:
            starts = np.zeros(len(token_ids), dtype=np.int64)
            base_counts = np.zeros(len(token_ids), dtype=np.int64)
        totals = self.sizes_of(token_ids)
        out_indptr = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(totals, dtype=np.int64))
        )
        members = np.empty(int(out_indptr[-1]), dtype=np.int64)
        base_total = int(base_counts.sum())
        if base_total:
            out_positions = (
                np.arange(base_total, dtype=np.int64)
                - np.repeat(np.cumsum(base_counts) - base_counts, base_counts)
                + np.repeat(out_indptr[:-1], base_counts)
            )
            src = gather_ranges(self._tok_members, starts, base_counts)
            members[out_positions] = src
        if self._pending:
            pending = self._pending
            extra = totals - base_counts
            for i in np.nonzero(extra)[0].tolist():
                bucket = pending[int(token_ids[i])]
                position = int(out_indptr[i]) + int(base_counts[i])
                members[position : position + len(bucket)] = bucket
        return out_indptr, members

    def __repr__(self) -> str:
        return (
            f"TokenPostings({self.entity_count} entities, "
            f"{self.assignment_count} assignments, "
            f"{self._pending_count} pending)"
        )


class TokenBlocking:
    """Schema-agnostic Token Blocking (paper §6.1(i)).

    The same blocking function must construct both the table-level TBI and
    the per-query QBI so their keys are join-compatible; instantiating one
    ``TokenBlocking`` per table and reusing it guarantees that.
    """

    def __init__(
        self,
        exclude_attributes: Iterable[str] = (),
        min_token_length: int = MIN_TOKEN_LENGTH,
        numeric_min_length: Optional[int] = None,
    ):
        self.exclude_attributes = tuple(exclude_attributes)
        self.min_token_length = min_token_length
        self.numeric_min_length = numeric_min_length

    def keys_for(self, attributes: Mapping[str, Any]) -> Set[str]:
        """Blocking keys of a single entity."""
        return tokenize_entity(
            attributes,
            exclude=self.exclude_attributes,
            min_length=self.min_token_length,
            numeric_min_length=self.numeric_min_length,
        )


class NGramBlocking(TokenBlocking):
    """Character n-gram blocking (paper §10: "different blocking methods").

    Every token additionally contributes its character n-grams as
    blocking keys, so typo-corrupted tokens ("smith"/"smiht") still land
    in shared blocks at the cost of more, larger blocks — the classic
    recall/efficiency trade the comparative ablation measures.
    """

    def __init__(
        self,
        n: int = 3,
        exclude_attributes: Iterable[str] = (),
        min_token_length: int = MIN_TOKEN_LENGTH,
        numeric_min_length: Optional[int] = None,
    ):
        super().__init__(
            exclude_attributes=exclude_attributes,
            min_token_length=min_token_length,
            numeric_min_length=numeric_min_length,
        )
        if n < 2:
            raise ValueError("n-gram size must be at least 2")
        self.n = n

    def keys_for(self, attributes: Mapping[str, Any]) -> Set[str]:
        tokens = super().keys_for(attributes)
        keys: Set[str] = set()
        for token in tokens:
            if len(token) <= self.n:
                keys.add(token)
                continue
            for start in range(len(token) - self.n + 1):
                keys.add(token[start : start + self.n])
        return keys
