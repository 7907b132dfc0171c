"""Schema-agnostic entity matching (Comparison-Execution's inner loop).

Paper §6.1(iv): "we compare the values of all corresponding attributes
between entity pairs" with a string similarity (Jaro-Winkler by default);
no per-attribute configuration is required.  The profile similarity is
the *maximum* of two schema-agnostic signals:

* mean Jaro-Winkler over attributes non-null on both sides, and
* token-set Jaccard over the whole profiles,

so both aligned typo-level variation and cross-attribute value shuffling
(e.g. a venue name appearing under ``title`` on one source and
``description`` on another) are caught.  A pair matches when that
similarity reaches the threshold.

:meth:`ProfileMatcher.match_pair_indices` decides it over a table's
:class:`SignatureColumns` (built by :class:`~repro.core.indices.TableIndex`
at registration and amended per ``INSERT`` batch) with a
cheap-to-expensive cascade:

1. interned-token Jaccard — can *accept* on its own, since the profile
   similarity is a max;
2. per-attribute Jaro-Winkler upper bounds from character counts,
   lengths and prefixes — can *reject* on its own when even the bounded
   mean cannot reach the threshold;
3. the exact aligned mean, attribute by attribute, stopping as soon as
   the partial mean already proves the decision either way.

The cascade is exact, not approximate: every accept is backed by a
monotonicity argument (adding non-negative attribute scores never
lowers a partial mean below the threshold it already reached), every
reject by a sound upper bound kept ``BOUND_SLACK`` clear of the
threshold so float rounding cannot flip a borderline pair, and undecided
pairs complete the exact computation.

Stages 1 and 2 run as popcount kernels over per-chunk bitsets gathered
from the columns — a token intersection is ``popcount(tokens_a &
tokens_b)``, a slot's character intersection ``popcount(elements_a &
elements_b)`` — feeding ``similarity.jaro_winkler_char_bound_batch``;
only the undecided remainder reaches the scalar stage 3, with the
batch's per-attribute bounds.  The scalar form of the cascade and the
profile similarity it decides live in the test suite's reference
oracle (``tests/reference/signature_oracle.py``), which the batch is
tested against decision for decision and counter for counter.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.er.similarity import jaro_winkler_char_bound_batch, jaro_winkler_fast
from repro.er.tokenizer import TokenVocabulary, normalize_value, tokenize_value
from repro.er.util import GrowableArray, LRUCache, gather_ranges

#: Default match-decision threshold on the mean attribute similarity.
DEFAULT_THRESHOLD = 0.75

#: Entry bound of the matcher's pair-score memo: large enough that one
#: query's working set fits comfortably, bounded so a year of queries
#: cannot grow it further.
_MEMO_CAPACITY = 1 << 18

#: Slack used when an upper bound argues a pair *cannot* reach the
#: threshold: rejection requires ``bound < threshold - BOUND_SLACK`` so
#: float rounding in the bound arithmetic can never flip a borderline
#: decision away from the exact path.
BOUND_SLACK = 1e-9

#: Leading characters the Winkler prefix bonus can see (``max_prefix``).
_PREFIX_LENGTH = 4

#: Bits of a Unicode code point (the largest is 0x10FFFF).
_CODE_POINT_BITS = 21

#: Candidate pairs whose unique rows share one set of bitsets: bounds
#: the bitset matrices (rows x words) however long the candidate list
#: is.
_SCREEN_CHUNK = 1 << 16

#: Code points per block of a signature-column build: bounds its
#: temporaries (a few int64 arrays per code point) on a big registration.
_BUILD_BLOCK = 1 << 15

#: Pairs per NumPy pass within a chunk: the gathered temporaries
#: (pairs x words) stay cache-sized and are reused slice to slice.
_SCREEN_ROWS = 1 << 11

class SignatureColumns:
    """A table's profile signatures as columns over its row positions.

    Everything stages 1–2 of the cascade read, built in bulk by
    :meth:`append` — over the whole table at registration (or load),
    over its rows per ``INSERT`` batch — and cut back by
    :meth:`truncate`:

    * **tokens** — a CSR of each row's sorted, de-duplicated token ids:
      the whole-profile token set the slow path's Jaccard compares, in
      :attr:`vocabulary`'s id space;
    * **shapes** — ``(rows, 1 + 4, slots)`` int32: per attribute slot
      the normalized value's length, then its first four code points;
      ``-1`` where the slot holds no comparable value (and past the end
      of a shorter value);
    * **elements** — each row's character *elements* as a bitset: a
      slot whose normalized value holds character ``c`` ``n`` times
      owns the elements ``(slot, c, 1) … (slot, c, n)``, so a slot's
      multiset intersection ``Σ_c min(count_a(c), count_b(c))`` is the
      number of elements two rows share there — a popcount.  Elements
      are interned per table onto bit positions, append-only like token
      ids; each 64-bit word holds the elements of one slot only.  A row
      stores the words it sets as a CSR of ``(word, bits)``.

    Attribute slots number the table's non-id columns in schema order.
    Normalized strings are not stored: stage 3 normalizes the raw
    values of each pair it scores, which gives the same strings, so the
    same floats.  ``columns[entity_id]`` is the entity's
    :class:`SignatureRow`.
    """

    def __init__(
        self,
        names: Sequence[str],
        exclude: FrozenSet[str],
        positions: Mapping[Any, int],
        values_of: Callable[[int], Sequence[Any]],
        vocabulary: Optional[TokenVocabulary] = None,
    ):
        """*positions* maps an entity id to its row, *values_of* a row
        to its raw value per slot.  With *vocabulary*, every
        :meth:`append` supplies the rows' token ids in it; without, rows
        are tokenized here into a private vocabulary."""
        self.names = tuple(names)
        self.exclude = frozenset(exclude)
        self.compared = tuple(name.lower() not in self.exclude for name in self.names)
        self.vocabulary = TokenVocabulary() if vocabulary is None else vocabulary
        self._tokenize = vocabulary is None
        self._positions = positions
        self._values_of = values_of
        self._token_indptr = GrowableArray([0])
        self._tokens = GrowableArray()
        self._shapes = GrowableArray(
            np.empty((0, 1 + _PREFIX_LENGTH, len(self.names))), np.int32
        )
        self._word_indptr = GrowableArray([0])
        self._words = GrowableArray((), np.int32)
        self._bits = GrowableArray((), np.uint64)
        # Interned elements: the packed ``slot | code point | k - 1`` →
        # bit position ``word << 6 | bit``; each word's slot.  The slot
        # takes the top bits a table of this width needs, ``k - 1`` the
        # rest of an int64.
        self._copy_bits = 63 - _CODE_POINT_BITS - max(1, (len(self.names) - 1).bit_length())
        self._element_position: Dict[int, int] = {}
        self._word_slot = GrowableArray()
        self._open_word: Dict[int, Tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self._shapes)

    def __getitem__(self, entity_id: Any) -> "SignatureRow":
        return SignatureRow(self, self._positions[entity_id])

    def rows_of(self, entity_ids: Iterable[Any], count: int) -> Any:
        """The rows of *count* entity ids, as an int64 array."""
        return np.fromiter(
            map(self._positions.__getitem__, entity_ids), dtype=np.int64, count=count
        )

    # -- building ----------------------------------------------------------
    def append(
        self,
        count: int,
        values: Sequence[Sequence[Any]],
        tokens: Optional[Tuple[Any, Any]] = None,
    ) -> None:
        """Append *count* rows, ``values[slot][i]`` the raw value of row ``i``.

        *tokens* is ``(indptr, ids)``, the rows' token ids in
        :attr:`vocabulary` — each row's distinct ids, in any order — and
        is required exactly when the columns were given a vocabulary.
        """
        if self._tokenize:
            rows = [set() for _ in range(count)]
            for column, compared in zip(values, self.compared):
                if compared:
                    for row, value in zip(rows, column):
                        row.update(tokenize_value(value))
            intern_all = self.vocabulary.intern_all
            rows = [intern_all(sorted(row)) for row in rows]
            sizes = np.fromiter(map(len, rows), dtype=np.int64, count=count)
            ids = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(sizes.sum()))
        else:
            indptr, ids = tokens
            sizes = np.diff(indptr)
            # Sort within rows: offsetting row i by i * (max id + 1)
            # keeps the rows apart.
            row_base = np.arange(count, dtype=np.int64) * (int(ids.max(initial=0)) + 1)
            keys = np.repeat(row_base, sizes)
            keys += ids
            keys.sort()
            ids = keys
            ids -= np.repeat(row_base, sizes)
        self._token_indptr.extend(len(self._tokens) + np.cumsum(sizes))
        self._tokens.extend(ids)
        del ids

        shapes = self._shapes.grow(count)
        shapes.fill(-1)
        parts = [
            self._value_words(texts, owners, shapes)
            for texts, owners in self._value_blocks(values)
        ]
        if parts:
            rows, words, bits = (np.concatenate(column) for column in zip(*parts))
        else:
            rows = words = bits = np.empty(0, dtype=np.int64)
        # Row-major: each row's words, slot by slot.
        order = np.argsort(rows, kind="stable")
        self._word_indptr.extend(
            len(self._words) + np.cumsum(np.bincount(rows, minlength=count))
        )
        self._words.extend(words[order])
        self._bits.extend(bits[order])

    def _value_blocks(self, values: Sequence[Sequence[Any]]):
        """The batch's comparable values, normalized, slot by slot, in
        blocks of at most :data:`_BUILD_BLOCK` code points (a longer
        value makes a block of its own): ``(texts, owners)``, each
        value's owner ``row * slots + slot``.  Blocks bound the build's
        temporaries whatever the batch size."""
        slots = len(self.names)
        texts: List[str] = []
        owners: List[int] = []
        size = 0
        for slot, (column, compared) in enumerate(zip(values, self.compared)):
            if not compared:
                continue
            present = [value is not None for value in column]
            slot_texts = list(map(normalize_value, compress(column, present)))
            slot_owners = [row * slots + slot for row in compress(range(len(column)), present)]
            slot_size = sum(map(len, slot_texts))
            if size + slot_size <= _BUILD_BLOCK:
                texts += slot_texts
                owners += slot_owners
                size += slot_size
                continue
            for text, owner in zip(slot_texts, slot_owners):
                if size + len(text) > _BUILD_BLOCK and texts:
                    yield texts, np.array(owners, dtype=np.int64)
                    texts, owners, size = [], [], 0
                texts.append(text)
                owners.append(owner)
                size += len(text)
        if texts:
            yield texts, np.array(owners, dtype=np.int64)

    def _value_words(self, texts: List[str], owners: Any, shapes: Any):
        """Fill *shapes* for the *texts* values; their element words as
        ``(rows, words, bits)``, one entry per word a value sets."""
        slots = len(self.names)
        value_row, value_slot = np.divmod(owners, slots)
        lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
        codes = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype="<u4")
        # shapes[row, place, slot] lives at row * 5 * slots + place * slots + slot.
        flat = shapes.reshape(-1)
        at = owners + value_row * (_PREFIX_LENGTH * slots)
        flat[at] = lengths
        starts = np.cumsum(lengths) - lengths
        for place in range(1, 1 + _PREFIX_LENGTH):
            longer = lengths >= place
            flat[at[longer] + place * slots] = codes[starts[longer] + place - 1]

        # Sort each value's code points: the k-th copy of a character is
        # its offset from the first of its run.
        keys = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        keys <<= _CODE_POINT_BITS
        keys |= codes
        del codes
        keys.sort()
        copy = np.arange(len(keys), dtype=np.int64)
        copy[1:][keys[1:] == keys[:-1]] = 0
        np.maximum.accumulate(copy, out=copy)
        np.subtract(np.arange(len(keys), dtype=np.int64), copy, out=copy)
        value_of = keys >> _CODE_POINT_BITS
        keys &= (1 << _CODE_POINT_BITS) - 1
        # One int64 per element (slot, code point, k - 1).
        copy_bits = self._copy_bits
        if lengths.max(initial=0) > 1 << copy_bits:
            raise ValueError("a value too long for the signature columns of so wide a table")
        keys <<= copy_bits
        keys |= copy
        keys |= value_slot[value_of] << (_CODE_POINT_BITS + copy_bits)
        del copy
        distinct = np.sort(keys)
        distinct = distinct[np.flatnonzero(np.diff(distinct, prepend=-1))]
        positions = self._intern(distinct)[np.searchsorted(distinct, keys)]
        del keys
        # OR each (value, word) cell's bits with one sorted reduceat; a
        # value's words ascend unless a later batch interned some of them.
        width = len(self._word_slot)
        cells = value_of * width + (positions >> 6)
        if np.any(cells[1:] < cells[:-1]):
            order = np.argsort(cells, kind="stable")
            cells, positions = cells[order], positions[order]
        cells, bits = _fold_bits(cells, positions)
        value, word = np.divmod(cells, width)
        return value_row[value].astype(np.int32), word.astype(np.int32), bits

    def _intern(self, keys: Any) -> Any:
        """Bit positions of the packed ``slot | code point | k - 1`` *keys*.

        An element seen first gets the next bit of its slot's open word,
        or opens a new word; positions are ``word << 6 | bit``.
        """
        keys = keys.tolist()
        lookup = self._element_position
        positions = list(map(lookup.get, keys))
        for i, position in enumerate(positions):
            if position is None:
                slot = keys[i] >> (_CODE_POINT_BITS + self._copy_bits)
                word, used = self._open_word.get(slot, (0, 64))
                if used == 64:  # the slot's words are full: open one
                    word, used = len(self._word_slot), 0
                    self._word_slot.append(slot)
                positions[i] = lookup[keys[i]] = word << 6 | used
                self._open_word[slot] = (word, used + 1)
        return np.array(positions, dtype=np.int64)

    def truncate(self, count: int) -> None:
        """Drop every row from position *count* on (rollback).  Interned
        tokens and elements stay, unused."""
        if count >= len(self):
            return
        self._shapes.truncate(count)
        self._token_indptr.truncate(count + 1)
        self._tokens.truncate(int(self._token_indptr.view()[-1]))
        self._word_indptr.truncate(count + 1)
        self._words.truncate(int(self._word_indptr.view()[-1]))
        self._bits.truncate(int(self._word_indptr.view()[-1]))

    # -- reading -----------------------------------------------------------
    def token_ids_of(self, row: int) -> Tuple[int, ...]:
        """Row *row*'s sorted token ids."""
        indptr = self._token_indptr.view()
        return tuple(self._tokens.view()[indptr[row] : indptr[row + 1]].tolist())

    def shape_of(self, row: int) -> Any:
        """Row *row*'s ``(1 + 4, slots)`` lengths and leading code points."""
        return self._shapes.view()[row]

    def elements_of(self, row: int) -> List[Tuple[int, int, int]]:
        """Row *row*'s elements as sorted ``(slot, code point, k)`` triples."""
        element_at = {
            position: key for key, position in self._element_position.items()
        }
        indptr = self._word_indptr.view()
        span = slice(indptr[row], indptr[row + 1])
        elements = []
        copy_bits = self._copy_bits
        for word, bits in zip(self._words.view()[span].tolist(), self._bits.view()[span].tolist()):
            for bit in range(64):
                if bits >> bit & 1:
                    key = element_at[word << 6 | bit]
                    elements.append(
                        (
                            key >> (_CODE_POINT_BITS + copy_bits),
                            key >> copy_bits & ((1 << _CODE_POINT_BITS) - 1),
                            (key & ((1 << copy_bits) - 1)) + 1,
                        )
                    )
        return sorted(elements)

    def attributes_of(self, row: int) -> Dict[str, Any]:
        """Row *row*'s attribute mapping, slot by slot."""
        return dict(zip(self.names, self._values_of(row)))

    def normalized_of(self, row: int) -> Tuple[Optional[str], ...]:
        """Row *row*'s normalized value per slot, ``None`` where the slot
        holds no comparable value."""
        return tuple(
            normalize_value(value) if compared and value is not None else None
            for value, compared in zip(self._values_of(row), self.compared)
        )

    def __repr__(self) -> str:
        return (
            f"SignatureColumns({len(self)} rows, {len(self.names)} slots, "
            f"{len(self._tokens)} tokens, {len(self._element_position)} elements)"
        )


class SignatureRow:
    """One row of :class:`SignatureColumns`: the handle
    ``columns[entity_id]`` returns, naming the columns and the row."""

    __slots__ = ("columns", "row")

    def __init__(self, columns: SignatureColumns, row: int):
        self.columns = columns
        self.row = row

    def __repr__(self) -> str:
        return f"SignatureRow(row {self.row} of {self.columns!r})"


class PendingPairs:
    """What a screened candidate list leaves for the scalar stage 3.

    Row ``i`` describes the pair at ``positions[i]`` of the candidate
    list: its two table rows, its per-slot Jaro-Winkler upper bounds
    (0.0 in slots not comparable for the pair) and their in-order sum.
    """

    __slots__ = ("positions", "rows", "total_bounds", "bounds")

    def __init__(self, positions, rows, total_bounds, bounds):
        self.positions = positions
        self.rows = rows
        self.total_bounds = total_bounds
        self.bounds = bounds

    def __len__(self) -> int:
        return len(self.positions)

    @classmethod
    def concat(cls, parts: "Sequence[PendingPairs]", slots: int) -> "PendingPairs":
        if not parts:
            return cls(
                np.empty(0, dtype=np.int64),
                np.empty((0, 2), dtype=np.int64),
                np.empty(0),
                np.empty((0, slots)),
            )
        return cls(
            np.concatenate([part.positions for part in parts]),
            np.concatenate([part.rows for part in parts]),
            np.concatenate([part.total_bounds for part in parts]),
            np.concatenate([part.bounds for part in parts]),
        )


def _fold_bits(cells: Any, positions: Any) -> "Tuple[Any, Any]":
    """Per run of equal *cells* — each cell's entries contiguous — the
    cell and the OR of its entries' bits ``1 << (position & 63)``: one
    sorted ``bitwise_or.reduceat``."""
    starts = np.flatnonzero(np.diff(cells, prepend=-1))
    bits = np.left_shift(np.uint64(1), (positions & 63).astype(np.uint64))
    return cells[starts], np.bitwise_or.reduceat(bits, starts)


def _bitsets(owner: Any, positions: Any, count: int, words: int) -> Any:
    """``(count, words)`` uint64 bitsets, row ``owner[i]`` holding bit
    ``positions[i]``; *owner* ascends, and *positions* within a row."""
    cells, bits = _fold_bits(owner * words + (positions >> 6), positions)
    out = np.zeros(count * words, dtype=np.uint64)
    out[cells] = bits
    return out.reshape(count, words)


def _gather_rows(indptr: Any, rows: Any, *values: Any) -> "Tuple[Any, ...]":
    """CSR rows *rows* of each of *values*, with each entry's owner (its
    index in *rows*) and the rows' sizes: ``(sizes, owner, *gathered)``."""
    starts = indptr[rows]
    sizes = indptr[rows + 1] - starts
    owner = np.repeat(np.arange(len(rows), dtype=np.int64), sizes)
    return (sizes, owner) + tuple(gather_ranges(column, starts, sizes) for column in values)


class _ChunkBitsets:
    """Stages 1–2 over one chunk's rows, as popcount kernels.

    Each row gets a token bitset — one bit per token at least two of
    the chunk's rows hold (a token only one row holds is in no pair's
    intersection), set with a sorted ``bitwise_or.reduceat`` — and its
    element words, the ones at least two rows set, columns grouped by
    slot.  A slot's character intersection is then the popcount of the
    two rows' ``&`` summed over that slot's columns, one ``reduceat``.
    :meth:`token_jaccard` and :meth:`attribute_bounds` cost NumPy work
    per pair only, *left* / *right* naming each pair's two chunk rows.
    """

    def __init__(self, columns: SignatureColumns, rows: Any):
        count = len(rows)
        self.sizes, owner, tokens = _gather_rows(
            columns._token_indptr.view(), rows, columns._tokens.view()
        )
        shared = np.bincount(tokens) >= 2
        bit_of = np.cumsum(shared) - 1
        keep = shared[tokens]
        self.tokens = _bitsets(
            owner[keep], bit_of[tokens[keep]], count, (int(shared.sum()) + 63) >> 6
        )

        _, owner, words, bits = _gather_rows(
            columns._word_indptr.view(), rows, columns._words.view(), columns._bits.view()
        )
        shared = np.bincount(words) >= 2
        present = np.flatnonzero(shared)
        slot = columns._word_slot.view()[present]
        order = np.argsort(slot, kind="stable")
        present, slot = present[order], slot[order]
        column_of = np.zeros(len(shared), dtype=np.int64)
        column_of[present] = np.arange(len(present))
        keep = shared[words]
        self.elements = np.zeros((count, len(present)), dtype=np.uint64)
        self.elements[owner[keep], column_of[words[keep]]] = bits[keep]
        self.word_starts = np.flatnonzero(np.diff(slot, prepend=-1))
        self.occupied = slot[self.word_starts]
        self.shapes = columns._shapes.view()[rows]

    def token_jaccard(self, left, right):
        """Whole-profile token Jaccard per pair; token-less sides score 0
        (not the two-empty-sets 1), as in the scalar cascade."""
        common = np.bitwise_count(self.tokens[left] & self.tokens[right])
        intersection = common.sum(axis=1, dtype=np.int64)
        size_left, size_right = self.sizes[left], self.sizes[right]
        union = size_left + size_right - intersection
        sims = intersection / np.maximum(union, 1)
        sims[(size_left == 0) | (size_right == 0)] = 0.0
        return sims

    def attribute_bounds(self, left, right):
        """``(bounds, comparable)``, both pairs x slots: each slot's
        Jaro-Winkler upper bound (0.0 where not comparable) and whether
        both sides hold a value there."""
        shape_a, shape_b = self.shapes[left], self.shapes[right]
        len_a, len_b = shape_a[:, 0], shape_b[:, 0]
        matches = np.zeros(len_a.shape, dtype=np.int32)
        if len(self.occupied):
            common = np.bitwise_count(self.elements[left] & self.elements[right])
            matches[:, self.occupied] = np.add.reduceat(
                common, self.word_starts, axis=1, dtype=np.int32
            )
        prefix = np.zeros(len_a.shape, dtype=np.int8)
        same = True
        for place in range(1, 1 + _PREFIX_LENGTH):
            head_a = shape_a[:, place]
            same = same & (head_a == shape_b[:, place]) & (head_a >= 0)
            prefix += same
        bounds = jaro_winkler_char_bound_batch(matches, len_a, len_b, prefix)
        comparable = (len_a >= 0) & (len_b >= 0)
        bounds[~comparable] = 0.0
        return bounds, comparable


class ProfileMatcher:
    """Decides which candidate pairs of one table are duplicates.

    Parameters
    ----------
    threshold:
        Minimum profile similarity for a pair to match.
    exclude:
        Attribute names ignored during comparison (the identifier column
        must not vote — its values differ between duplicates by design);
        they must be the exclusions the table's signature columns were
        built under.
    """

    def __init__(self, threshold: float = DEFAULT_THRESHOLD, exclude: Iterable[str] = ()):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be within [0, 1]")
        self.threshold = threshold
        self.exclude = frozenset(name.lower() for name in exclude)
        # (value, value) → Jaro-Winkler memo of stage 3: categorical
        # attributes make the same string pair recur across comparisons.
        self._pair_cache = LRUCache(_MEMO_CAPACITY)
        self.cascade_stats = {
            "pairs": 0,
            "jaccard_accepts": 0,
            "bound_rejects": 0,
            "exact_fallbacks": 0,
            "early_exits": 0,
        }

    def _exact_decision(
        self,
        values: "List[Tuple[str, str]]",
        bounds: "List[float]",
        total_bound: float,
    ) -> bool:
        """Stage 3: exact aligned mean with early exit.

        *values* are the comparable attributes' normalized strings in
        accumulation order, *bounds* their stage-2 upper bounds and
        *total_bound* the bounds' in-order sum.  Scores are
        non-negative, so a partial mean at/above the threshold stays
        there (accept); a partial sum plus the remaining bounds that
        cannot reach it never will (reject).  The token signal failed
        the threshold at stage 1, so the aligned mean alone decides.
        """
        stats = self.cascade_stats
        threshold = self.threshold
        reject_below = threshold - BOUND_SLACK
        cache = self._pair_cache
        counted = len(values)
        total = 0.0
        remaining = total_bound
        for i in range(counted):
            lv, rv = values[i]
            remaining -= bounds[i]
            if lv == rv:
                score = 1.0
            else:
                score = cache.get((lv, rv))
                if score is None:
                    score = jaro_winkler_fast(lv, rv)
                    cache.put((lv, rv), score)
                    cache.put((rv, lv), score)
            total += score
            if (total + remaining) / counted < reject_below:
                stats["early_exits"] += 1
                return False
            if total / counted >= threshold:
                stats["early_exits"] += 1
                return True
        return total / counted >= threshold

    def match_pair_indices(
        self,
        pairs: "Sequence[Tuple[Any, Any]]",
        signatures: "Mapping[Any, SignatureRow]",
    ) -> "List[int]":
        """Positions in *pairs* whose signatures match.

        The one entry point of Comparison-Execution.  Stages 1 and 2 of
        the cascade run array-at-a-time over the pairs (in chunks of
        :data:`_SCREEN_CHUNK` pairs); the undecided remainder goes to
        :meth:`resolve_pending`, the scalar stage 3.

        *signatures* is a table's :class:`SignatureColumns`, or any
        mapping from the pairs' entity ids to rows of one such columns
        object.  Columns built under other exclusions than the matcher's
        raise :class:`ValueError`.
        """
        stop = len(pairs)
        if not stop:
            return []
        if isinstance(signatures, SignatureColumns):
            columns = signatures
        else:
            columns = signatures[pairs[0][0]].columns
        if columns.exclude != self.exclude:
            raise ValueError(
                f"signature columns exclude {sorted(columns.exclude)}, "
                f"the matcher {sorted(self.exclude)}"
            )
        matched: List[int] = []
        remainders: List[PendingPairs] = []
        for low in range(0, stop, _SCREEN_CHUNK):
            accepted, pending = self._screen(
                pairs, low, min(stop, low + _SCREEN_CHUNK), signatures, columns
            )
            matched.extend(accepted)
            if pending is not None:
                remainders.append(pending)
        pending = PendingPairs.concat(remainders, len(columns.names))
        resolved = self.resolve_pending(columns, pending)
        if resolved:
            matched.extend(resolved)
            matched.sort()
        return matched

    def _screen(
        self,
        pairs: "Sequence[Tuple[Any, Any]]",
        low: int,
        high: int,
        signatures: "Mapping[Any, SignatureRow]",
        columns: SignatureColumns,
    ) -> "Tuple[List[int], Optional[PendingPairs]]":
        """Stages 1–2 over ``pairs[low:high]``: accepted positions, remainder."""
        chunk = pairs[low:high]
        entities = chain.from_iterable(chunk)
        if signatures is columns:
            table_rows = columns.rows_of(entities, 2 * len(chunk))
        else:
            row_of = {}
            for entity in dict.fromkeys(entities):
                handle = signatures[entity]
                if handle.columns is not columns:
                    raise ValueError("the pairs' signatures are rows of different columns")
                row_of[entity] = handle.row
            table_rows = np.fromiter(
                map(row_of.__getitem__, chain.from_iterable(chunk)),
                dtype=np.int64,
                count=2 * len(chunk),
            )
        # The chunk's rows, ascending, and each pair side's index among them.
        seen = np.zeros(len(columns), dtype=bool)
        seen[table_rows] = True
        rows = np.flatnonzero(seen)
        sides = (np.cumsum(seen) - 1)[table_rows]
        kernels = _ChunkBitsets(columns, rows)
        threshold = self.threshold
        accepted = []
        undecided = []
        undecided_totals = []
        undecided_bounds = []
        for lower in range(0, len(chunk), _SCREEN_ROWS):
            upper = min(lower + _SCREEN_ROWS, len(chunk))
            left, right = sides[2 * lower : 2 * upper : 2], sides[2 * lower + 1 : 2 * upper : 2]
            # Stage 1 accepts on the token signal alone.
            accept = kernels.token_jaccard(left, right) >= threshold
            # Stage 2 sums the per-slot bounds slot by slot — the scalar
            # accumulation order, which a pairwise ``sum(axis=1)`` would
            # not keep.  No comparable attribute: the aligned signal is
            # exactly 0.0 and the token signal already failed — provably
            # no match, counted with the bound rejects.
            bounds, comparable = kernels.attribute_bounds(left, right)
            totals = np.zeros(len(left))
            for slot in range(bounds.shape[1]):
                totals += bounds[:, slot]
            counted = comparable.sum(axis=1)
            reject = (counted == 0) | (
                totals / np.maximum(counted, 1) < threshold - BOUND_SLACK
            )
            open_rows = np.flatnonzero(~(accept | reject))
            accepted.append(lower + np.flatnonzero(accept))
            undecided.append(lower + open_rows)
            undecided_totals.append(totals[open_rows])
            undecided_bounds.append(bounds[open_rows])
        accepted = np.concatenate(accepted)
        undecided = np.concatenate(undecided)
        stats = self.cascade_stats
        stats["pairs"] += len(chunk)
        stats["jaccard_accepts"] += len(accepted)
        stats["bound_rejects"] += len(chunk) - len(accepted) - len(undecided)
        stats["exact_fallbacks"] += len(undecided)
        matched = (low + accepted).tolist()
        if not len(undecided):
            return matched, None
        return matched, PendingPairs(
            low + undecided,
            table_rows.reshape(-1, 2)[undecided],
            np.concatenate(undecided_totals),
            np.concatenate(undecided_bounds),
        )

    def resolve_pending(self, columns: SignatureColumns, pending: PendingPairs) -> "List[int]":
        """Stage 3 over *pending*, pairs of rows of *columns*: the
        matching positions.

        Each decision is a pure function of the two rows and the
        remainder's row.  Each row's values are normalized here, once
        per call.
        """
        matched: List[int] = []
        normalized: Dict[int, Tuple[Optional[str], ...]] = {}

        def normalized_of(row: int) -> Tuple[Optional[str], ...]:
            norms = normalized.get(row)
            if norms is None:
                norms = normalized[row] = columns.normalized_of(row)
            return norms

        rows = zip(
            pending.positions.tolist(),
            pending.rows[:, 0].tolist(),
            pending.rows[:, 1].tolist(),
            pending.total_bounds.tolist(),
            pending.bounds.tolist(),
        )
        for position, left, right, total_bound, slot_bounds in rows:
            values = []
            bounds = []
            sides = zip(normalized_of(left), normalized_of(right), slot_bounds)
            for lv, rv, bound in sides:
                if lv is not None and rv is not None:
                    values.append((lv, rv))
                    bounds.append(bound)
            if self._exact_decision(values, bounds, total_bound):
                matched.append(position)
        return matched

    def reset_cascade_stats(self) -> None:
        """Zero the cascade counters (benchmarks read them per run)."""
        for key in self.cascade_stats:
            self.cascade_stats[key] = 0

    def clear_cache(self) -> None:
        """Drop the pair-similarity memo.

        Benchmarks call this (via ``QueryEREngine.clear_caches``) between
        measurements so no run inherits a warm similarity cache.
        """
        self._pair_cache.clear()
