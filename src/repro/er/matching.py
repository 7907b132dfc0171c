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

The matcher additionally understands precomputed
:class:`ProfileSignature` objects (built per table by
:class:`~repro.core.indices.TableIndex`) and runs a cheap-to-expensive
cascade over them:

1. interned-token Jaccard (one merge over two sorted int arrays) — can
   *accept* on its own, since the profile similarity is a max;
2. per-attribute Jaro-Winkler upper bounds from precomputed character
   counts, lengths and prefixes — can *reject* on its own when even the
   bounded mean cannot reach the threshold;
3. the exact aligned mean, attribute by attribute, stopping as soon as
   the partial mean already proves the decision either way.

The cascade is exact, not approximate: every accept is backed by a
monotonicity argument (adding non-negative attribute scores never
lowers a partial mean below the threshold it already reached), every
reject by a sound upper bound kept ``BOUND_SLACK`` clear of the
threshold so float rounding cannot flip a borderline pair, and undecided
pairs complete the identical slow-path computation.

:meth:`ProfileMatcher.match_pair_indices` is the batched entry point
every product path goes through: stages 1 and 2 run array-at-a-time
over the whole candidate list (``similarity.jaccard_sorted_ids_batch``,
``similarity.jaro_winkler_char_bound_batch`` over columns each signature
carries), and only the undecided remainder reaches the scalar stage 3 —
with the batch's per-attribute bounds, which equal the scalar bounds bit
for bit.  :meth:`ProfileMatcher.match_signatures` is the single-pair
form of the same cascade and the reference the batch is tested against.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
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

from repro.er.similarity import (
    jaccard,
    jaccard_sorted_ids,
    jaccard_sorted_ids_batch,
    jaro_winkler,
    jaro_winkler_char_bound,
    jaro_winkler_char_bound_batch,
    jaro_winkler_fast,
)
from repro.er.tokenizer import (
    TokenVocabulary,
    normalize_value,
    tokenize_entity,
    tokenize_value,
)
from repro.er.util import LRUCache

#: Default match-decision threshold on the mean attribute similarity.
DEFAULT_THRESHOLD = 0.75

#: Default entry bound of the matcher's pair-score memo.
#: Sized for sustained traffic: large enough that one query's working set
#: fits comfortably, bounded so a year of queries cannot grow it further.
DEFAULT_CACHE_CAPACITY = 1 << 18

#: Slack used when an upper bound argues a pair *cannot* reach the
#: threshold: rejection requires ``bound < threshold - BOUND_SLACK`` so
#: float rounding in the bound arithmetic can never flip a borderline
#: decision away from the exact path.
BOUND_SLACK = 1e-9

#: Leading characters the Winkler prefix bonus can see (``max_prefix``).
_PREFIX_LENGTH = 4

#: Bits of a Unicode code point (the largest is 0x10FFFF).
_CODE_POINT_BITS = 21

#: Candidate pairs whose unique entities are stacked together: bounds
#: the stacked count matrix (entities x characters) however long the
#: candidate list is.
_SCREEN_CHUNK = 1 << 16

#: Pairs per NumPy pass within a chunk: the gathered temporaries
#: (pairs x characters) stay cache-sized and are reused slice to slice.
_SCREEN_ROWS = 1 << 11

SimilarityFn = Callable[[str, str], float]


class ProfileSignature:
    """Precomputed per-entity comparison state for the fast cascade.

    * ``token_ids`` — sorted array of interned whole-profile token ids
      (the exact token set :meth:`ProfileMatcher._token_similarity` would
      derive, one integer per distinct token).
    * ``norms`` — attribute name → lowercase string of each non-null,
      non-excluded value (what the aligned signal compares), in the
      attribute mapping's iteration order so partial sums accumulate in
      the same order as the slow path's.
    * ``attributes`` — the original attribute mapping, kept so
      incompatible matchers can fall back to the raw slow path.  Its key
      order numbers the attribute *slots* of the two column arrays.
    * ``exclude`` — the lowered attribute names excluded when the
      signature was built; a matcher only trusts a signature whose
      exclusions equal its own.
    * ``shape_columns`` — ``(1 + 4, slots)`` int32: row 0 the
      normalized values' lengths, rows 1–4 their first four code
      points; ``-1`` where the slot holds no comparable value (and past
      the end of a shorter value).
    * ``char_columns`` — ``(2, n)``: one column per (slot, distinct
      character), row 0 the key ``slot << 21 | code point``, row 1 the
      character's count in that slot's value.  Code points are their own
      alphabet, so a character first seen in a later ``INSERT`` needs no
      shared state to grow.
    * ``char_counts`` — attribute name → character→count map of the
      normalized value, what the scalar cascade's upper bound reads;
      derived from ``norms`` on first use, so the batched path never
      holds it.

    The two column arrays are what the batched cascade stacks; they are
    built once here, so a batch pays per unique entity only for the
    stacking.
    """

    __slots__ = (
        "entity_id",
        "attributes",
        "norms",
        "token_ids",
        "exclude",
        "shape_columns",
        "char_columns",
        "_char_counts",
    )

    def __init__(
        self,
        entity_id: Any,
        attributes: Mapping[str, Any],
        norms: Mapping[str, str],
        token_ids: Tuple[int, ...],
        exclude: FrozenSet[str],
    ):
        self.entity_id = entity_id
        self.attributes = attributes
        self.norms = norms
        self.token_ids = token_ids
        self.exclude = exclude
        self._char_counts: Optional[Dict[str, Counter]] = None
        lengths = [-1] * len(attributes)
        heads = [[-1] * len(attributes) for _ in range(_PREFIX_LENGTH)]
        keys: List[int] = []
        counts: List[int] = []
        for slot, name in enumerate(attributes):
            norm = norms.get(name)
            if norm is None:
                continue
            lengths[slot] = len(norm)
            for place, char in enumerate(norm[:_PREFIX_LENGTH]):
                heads[place][slot] = ord(char)
            base = slot << _CODE_POINT_BITS
            for char, count in Counter(norm).items():
                keys.append(base | ord(char))
                counts.append(count)
        self.shape_columns = np.array([lengths] + heads, dtype=np.int32)
        # int32 holds the keys of the first 1024 slots; wider tables widen.
        self.char_columns = np.array(
            [keys, counts],
            dtype=np.int32 if len(attributes) <= 1 << (31 - _CODE_POINT_BITS) else np.int64,
        )

    @property
    def char_counts(self) -> Mapping[str, Mapping[str, int]]:
        if self._char_counts is None:
            self._char_counts = {name: Counter(norm) for name, norm in self.norms.items()}
        return self._char_counts

    def __repr__(self) -> str:
        return (
            f"ProfileSignature({self.entity_id!r}, "
            f"{len(self.norms)} attrs, {len(self.token_ids)} tokens)"
        )


def build_signature(
    entity_id: Any,
    attributes: Mapping[str, Any],
    vocabulary: TokenVocabulary,
    exclude: FrozenSet[str] = frozenset(),
) -> ProfileSignature:
    """Intern *attributes* into a :class:`ProfileSignature`.

    Uses the matcher's tokenization (``tokenize_value`` at its default
    minimum length) so the signature's Jaccard is bit-identical to the
    slow path's, regardless of what blocking function the table uses.
    """
    norms: Dict[str, str] = {}
    tokens = []
    for name, value in attributes.items():
        if value is None or name.lower() in exclude:
            continue
        norms[name] = normalize_value(value)
        tokens.extend(tokenize_value(value))
    return ProfileSignature(
        entity_id, attributes, norms, vocabulary.intern_all(tokens), exclude
    )


class PendingPairs:
    """What a screened candidate list leaves for the scalar stage 3.

    Row ``i`` describes the pair at ``positions[i]`` of the candidate
    list: its per-slot Jaro-Winkler upper bounds (0.0 in slots not
    comparable for the pair) and their in-order sum.
    Plain arrays, so a remainder can be sliced into worker spans or
    pickled to a resident shard.
    """

    __slots__ = ("positions", "total_bounds", "bounds")

    def __init__(self, positions, total_bounds, bounds):
        self.positions = positions
        self.total_bounds = total_bounds
        self.bounds = bounds

    def __len__(self) -> int:
        return len(self.positions)

    def take(self, rows) -> "PendingPairs":
        """The sub-remainder at *rows*, in that order."""
        return PendingPairs(
            self.positions[rows],
            self.total_bounds[rows],
            self.bounds[rows],
        )

    @classmethod
    def concat(cls, parts: "Sequence[PendingPairs]", slots: int) -> "PendingPairs":
        if not parts:
            return cls(np.empty(0, dtype=np.int64), np.empty(0), np.empty((0, slots)))
        return cls(
            np.concatenate([part.positions for part in parts]),
            np.concatenate([part.total_bounds for part in parts]),
            np.concatenate([part.bounds for part in parts]),
        )


class _StackedColumns:
    """Signature columns of a chunk's unique entities, one row each.

    Stacking is the per-entity cost of a batch; :meth:`token_jaccard`
    and :meth:`attribute_bounds` then cost NumPy work per pair only,
    *left* / *right* naming each pair's two rows.
    """

    def __init__(self, profiles: "Sequence[ProfileSignature]", slots: int):
        count = len(profiles)
        # Stage 1: a CSR of the signatures' sorted token ids.
        self.sizes = np.array([len(p.token_ids) for p in profiles], dtype=np.int64)
        self.indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(self.sizes, out=self.indptr[1:])
        self.tokens = np.fromiter(
            chain.from_iterable(p.token_ids for p in profiles),
            dtype=np.int64,
            count=int(self.indptr[-1]),
        )
        # Stage 2: lengths and heads per (entity, slot), and one count
        # column per (slot, character) that occurs, grouped by slot, so
        # a slot's character intersection is one segment sum of the
        # element-wise minimum of two rows.
        shapes = np.concatenate([p.shape_columns for p in profiles]).reshape(
            count, 1 + _PREFIX_LENGTH, slots
        )
        self.lengths = shapes[:, 0]
        self.heads = [shapes[:, 1 + place] for place in range(_PREFIX_LENGTH)]
        chars = np.concatenate([p.char_columns for p in profiles], axis=1)
        owner = np.repeat(np.arange(count), [p.char_columns.shape[1] for p in profiles])
        keys, column = np.unique(chars[0], return_inverse=True)
        self.counts = np.zeros(
            (count, len(keys)),
            dtype=np.int16 if chars[1].max(initial=0) < 1 << 15 else np.int32,
        )
        self.counts[owner, column] = chars[1]
        self.occupied, self.starts = np.unique(keys >> _CODE_POINT_BITS, return_index=True)

    def token_jaccard(self, left, right):
        """Whole-profile token Jaccard per pair; token-less sides score 0
        (not the two-empty-sets 1), as in the scalar cascade."""
        sims = jaccard_sorted_ids_batch(self.indptr, self.tokens, left, right)
        sims[(self.sizes[left] == 0) | (self.sizes[right] == 0)] = 0.0
        return sims

    def attribute_bounds(self, left, right):
        """``(bounds, comparable)``, both pairs x slots: each slot's
        Jaro-Winkler upper bound (0.0 where not comparable) and whether
        both sides hold a value there."""
        len_a, len_b = self.lengths[left], self.lengths[right]
        matches = np.zeros(len_a.shape, dtype=np.int32)
        if len(self.starts):
            common = self.counts[left]
            np.minimum(common, self.counts[right], out=common)
            # A common-character count never exceeds a length: int32 holds it.
            matches[:, self.occupied] = np.add.reduceat(
                common, self.starts, axis=1, dtype=np.int32
            )
        prefix = np.zeros(len_a.shape, dtype=np.int8)
        same = True
        for head in self.heads:
            head_a = head[left]
            same = same & (head_a == head[right]) & (head_a >= 0)
            prefix += same
        bounds = jaro_winkler_char_bound_batch(matches, len_a, len_b, prefix)
        comparable = (len_a >= 0) & (len_b >= 0)
        bounds[~comparable] = 0.0
        return bounds, comparable


class ProfileMatcher:
    """Compares two entity profiles attribute-by-attribute.

    Parameters
    ----------
    similarity:
        Pairwise string similarity in [0, 1]; Jaro-Winkler by default.
    threshold:
        Minimum mean similarity for :meth:`matches` to return True.
    exclude:
        Attribute names ignored during comparison (the identifier column
        must not vote — its values differ between duplicates by design).
    cache_capacity:
        Entry bound of the (value, value) → similarity memo, an LRU
        cache so sustained query traffic cannot grow it without limit.
    fast_path:
        Enable the signature cascade in :meth:`match_signatures`.  With
        False every signature comparison takes the exact slow path —
        used by the equivalence tests and the perf-regression baseline.
    """

    def __init__(
        self,
        similarity: SimilarityFn = jaro_winkler,
        threshold: float = DEFAULT_THRESHOLD,
        exclude: Iterable[str] = (),
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        fast_path: bool = True,
    ):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be within [0, 1]")
        self.similarity = similarity
        self.threshold = threshold
        self.exclude = frozenset(name.lower() for name in exclude)
        # (value, value) → similarity memo: categorical attributes make
        # the same string pair recur across thousands of comparisons.
        self._pair_cache = LRUCache(cache_capacity)
        # The cascade's upper bound is only valid for the default
        # Jaro-Winkler (its prefix parameters are baked into the bound).
        self.fast_path = fast_path and similarity is jaro_winkler
        # Undecided cascade pairs use the long-string-optimized (but
        # bit-identical) Jaro-Winkler; the slow path keeps the original
        # so disabling the fast path reproduces pre-fast-path behavior.
        self._exact_similarity = (
            jaro_winkler_fast if similarity is jaro_winkler else similarity
        )
        self.cascade_stats = {
            "pairs": 0,
            "jaccard_accepts": 0,
            "bound_rejects": 0,
            "exact_fallbacks": 0,
            "early_exits": 0,
            "incompatible": 0,
        }

    def profile_similarity(
        self, left: Mapping[str, Any], right: Mapping[str, Any]
    ) -> float:
        """max(aligned-attribute mean, whole-profile token Jaccard).

        An attribute is comparable when present and non-null on both
        sides; with no comparable attribute the aligned signal is 0 (we
        refuse to call two entirely-unknown entities duplicates on that
        signal alone).
        """
        return max(
            self._aligned_similarity(left, right),
            self._token_similarity(left, right),
        )

    def _aligned_similarity(
        self, left: Mapping[str, Any], right: Mapping[str, Any]
    ) -> float:
        # Only attributes present in *both* mappings can be comparable,
        # so iterating the left mapping covers every candidate; its
        # (insertion-ordered) iteration also fixes the float accumulation
        # order the signature cascade reproduces exactly.
        cache = self._pair_cache
        similarity = self.similarity
        right_get = right.get
        total = 0.0
        counted = 0
        for name, lv in left.items():
            if name.lower() in self.exclude:
                continue
            if lv is None:
                continue
            rv = right_get(name)
            if rv is None:
                continue
            score = cache.get((lv, rv))
            if score is None:
                score = similarity(normalize_value(lv), normalize_value(rv))
                # Store both orientations: similarity is symmetric and
                # skipping the ordering step is cheaper than one repr().
                cache[(lv, rv)] = score
                cache[(rv, lv)] = score
            total += score
            counted += 1
        if counted == 0:
            return 0.0
        return total / counted

    def _token_similarity(
        self, left: Mapping[str, Any], right: Mapping[str, Any]
    ) -> float:
        left_tokens = tokenize_entity(left, self.exclude)
        right_tokens = tokenize_entity(right, self.exclude)
        if not left_tokens or not right_tokens:
            return 0.0
        return jaccard(left_tokens, right_tokens)

    # -- signature fast path ------------------------------------------------
    def match_signatures(self, left: ProfileSignature, right: ProfileSignature) -> bool:
        """Match decision over precomputed signatures, via the cascade.

        Decision-identical to ``matches(left.attributes,
        right.attributes)``: the cascade only short-circuits on proofs
        (see module docstring) and otherwise completes the same exact
        computation.  Signatures built under different exclusions than
        this matcher's — or a matcher with a non-default similarity —
        fall back entirely.
        """
        if (
            not self.fast_path
            or left.exclude != self.exclude
            or right.exclude != self.exclude
        ):
            self.cascade_stats["incompatible"] += 1
            return self.matches(left.attributes, right.attributes)
        stats = self.cascade_stats
        stats["pairs"] += 1
        ids_a = left.token_ids
        ids_b = right.token_ids
        # The slow path scores token-less sides 0, not the two-empty-sets
        # Jaccard of 1 — replicate exactly.
        token_sim = jaccard_sorted_ids(ids_a, ids_b) if ids_a and ids_b else 0.0
        threshold = self.threshold
        if token_sim >= threshold:
            stats["jaccard_accepts"] += 1
            return True

        # Stage 2: per-attribute upper bounds over the comparable
        # attributes, visited in the same order the exact path uses.
        right_norms = right.norms
        right_counts = right.char_counts
        left_counts = left.char_counts
        values = []
        bounds = []
        total_bound = 0.0
        for name, lv in left.norms.items():
            rv = right_norms.get(name)
            if rv is None:
                continue
            if lv == rv:
                bound = 1.0
            else:
                bound = jaro_winkler_char_bound(
                    lv, rv, left_counts[name], right_counts[name]
                )
            values.append((lv, rv))
            bounds.append(bound)
            total_bound += bound
        counted = len(values)
        if counted == 0:
            # The aligned signal is exactly 0.0 and the token signal
            # already failed the threshold (a zero threshold accepts at
            # the Jaccard step above) — provably no match.
            stats["bound_rejects"] += 1
            return False
        reject_below = threshold - BOUND_SLACK
        if total_bound / counted < reject_below:
            stats["bound_rejects"] += 1
            return False

        stats["exact_fallbacks"] += 1
        return self._exact_decision(values, bounds, total_bound)

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
        similarity = self._exact_similarity
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
                    score = similarity(lv, rv)
                    cache[(lv, rv)] = score
                    cache[(rv, lv)] = score
            total += score
            if (total + remaining) / counted < reject_below:
                stats["early_exits"] += 1
                return False
            if total / counted >= threshold:
                stats["early_exits"] += 1
                return True
        return total / counted >= threshold

    # -- batched cascade -------------------------------------------------
    def match_pair_indices(
        self,
        pairs: "Sequence[Tuple[Any, Any]]",
        signatures: Mapping[Any, ProfileSignature],
        start: int = 0,
        stop: Optional[int] = None,
        resolve: "Optional[Callable[[PendingPairs], List[int]]]" = None,
    ) -> "List[int]":
        """Positions in ``pairs[start:stop]`` whose signatures match.

        The one entry point of Comparison-Execution.  Stages 1 and 2 of
        the cascade run array-at-a-time over the span (in chunks of
        :data:`_SCREEN_CHUNK` pairs); the undecided remainder goes to
        *resolve* — by default :meth:`resolve_pending`, the scalar stage
        3, here and now; the parallel executor passes a function that
        may spread a large remainder over its workers instead.  Every
        decision and every ``cascade_stats`` counter equals what a loop
        of :meth:`match_signatures` over the span would produce.

        *signatures* only needs ``__getitem__``.  Pairs the batch cannot
        take — a matcher without the fast path, a signature built under
        other exclusions or another attribute layout than the span's
        first — go through :meth:`match_signatures` one by one.
        """
        stop = len(pairs) if stop is None else stop
        if stop <= start:
            return []
        if not self.fast_path:
            return self._match_each(pairs, range(start, stop), signatures)
        names = tuple(signatures[pairs[start][0]].attributes)
        matched: List[int] = []
        remainders: List[PendingPairs] = []
        for low in range(start, stop, _SCREEN_CHUNK):
            accepted, pending = self._screen(
                pairs, low, min(stop, low + _SCREEN_CHUNK), signatures, names
            )
            matched.extend(accepted)
            if pending is not None:
                remainders.append(pending)
        pending = PendingPairs.concat(remainders, len(names))
        if resolve is None:
            resolved = self.resolve_pending(pairs, signatures, pending)
        else:
            resolved = resolve(pending)
        if resolved:
            matched.extend(resolved)
            matched.sort()
        return matched

    def _match_each(
        self,
        pairs: "Sequence[Tuple[Any, Any]]",
        positions: Iterable[int],
        signatures: Mapping[Any, ProfileSignature],
    ) -> "List[int]":
        """The scalar cascade, pair by pair, over *positions*."""
        matched: List[int] = []
        for position in positions:
            left, right = pairs[position]
            if self.match_signatures(signatures[left], signatures[right]):
                matched.append(position)
        return matched

    def _screen(
        self,
        pairs: "Sequence[Tuple[Any, Any]]",
        low: int,
        high: int,
        signatures: Mapping[Any, ProfileSignature],
        names: Tuple[str, ...],
    ) -> "Tuple[List[int], Optional[PendingPairs]]":
        """Stages 1–2 over ``pairs[low:high]``: accepted positions, remainder."""
        chunk = pairs[low:high]
        positions = np.arange(low, high)
        entities = list(dict.fromkeys(chain.from_iterable(chunk)))
        profiles = [signatures[entity] for entity in entities]
        exclude = self.exclude
        usable = [
            profile.exclude == exclude and tuple(profile.attributes) == names
            for profile in profiles
        ]
        matched: List[int] = []
        if not all(usable):
            # Rare: mixed layouts or exclusions.  Those pairs take the
            # scalar cascade; the rest are screened as their own chunk.
            unusable = {entity for entity, ok in zip(entities, usable) if not ok}
            keep = [
                offset
                for offset, (left, right) in enumerate(chunk)
                if left not in unusable and right not in unusable
            ]
            kept = set(keep)
            matched = self._match_each(
                pairs, (low + o for o in range(len(chunk)) if o not in kept), signatures
            )
            chunk = [chunk[offset] for offset in keep]
            positions = positions[keep]
            entities = list(dict.fromkeys(chain.from_iterable(chunk)))
            profiles = [signatures[entity] for entity in entities]
        if not chunk:
            return matched, None
        row_of = {entity: row for row, entity in enumerate(entities)}
        rows = np.fromiter(
            map(row_of.__getitem__, chain.from_iterable(chunk)),
            dtype=np.intp,
            count=2 * len(chunk),
        )
        columns = _StackedColumns(profiles, len(names))
        threshold = self.threshold
        accepted = []
        undecided = []
        undecided_totals = []
        undecided_bounds = []
        for lower in range(0, len(chunk), _SCREEN_ROWS):
            upper = min(lower + _SCREEN_ROWS, len(chunk))
            left, right = rows[2 * lower : 2 * upper : 2], rows[2 * lower + 1 : 2 * upper : 2]
            # Stage 1 accepts on the token signal alone.
            accept = columns.token_jaccard(left, right) >= threshold
            # Stage 2 sums the per-slot bounds slot by slot — the scalar
            # accumulation order, which a pairwise ``sum(axis=1)`` would
            # not keep.  No comparable attribute: the aligned signal is
            # exactly 0.0 and the token signal already failed — provably
            # no match, counted with the bound rejects as in the scalar.
            bounds, comparable = columns.attribute_bounds(left, right)
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
        accepted = positions[np.concatenate(accepted)]
        undecided = positions[np.concatenate(undecided)]
        stats = self.cascade_stats
        stats["pairs"] += len(chunk)
        stats["jaccard_accepts"] += len(accepted)
        stats["bound_rejects"] += len(chunk) - len(accepted) - len(undecided)
        stats["exact_fallbacks"] += len(undecided)
        matched.extend(accepted.tolist())
        if not len(undecided):
            return matched, None
        return matched, PendingPairs(
            undecided, np.concatenate(undecided_totals), np.concatenate(undecided_bounds)
        )

    def resolve_pending(
        self,
        pairs: "Sequence[Tuple[Any, Any]]",
        signatures: Mapping[Any, ProfileSignature],
        pending: PendingPairs,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> "List[int]":
        """Stage 3 over ``pending[start:stop]``: the matching positions.

        Each decision is a pure function of the two signatures and the
        remainder's row, so any partition of a remainder resolves to
        the same matches as one serial pass.
        """
        matched: List[int] = []
        slot_of: Dict[str, int] = {}
        rows = zip(
            pending.positions[start:stop].tolist(),
            pending.total_bounds[start:stop].tolist(),
            pending.bounds[start:stop].tolist(),
        )
        for position, total_bound, slot_bounds in rows:
            left, right = pairs[position]
            left, right = signatures[left], signatures[right]
            if not slot_of:
                slot_of = {name: slot for slot, name in enumerate(left.attributes)}
            right_norms = right.norms
            values = []
            bounds = []
            for name, lv in left.norms.items():
                rv = right_norms.get(name)
                if rv is not None:
                    values.append((lv, rv))
                    bounds.append(slot_bounds[slot_of[name]])
            if self._exact_decision(values, bounds, total_bound):
                matched.append(position)
        return matched

    def partition_view(self) -> "ProfileMatcher":
        """A shallow copy for one parallel invocation's workers.

        The view *shares* the pair-score memo (lock-guarded, so the
        threaded pool may hit them concurrently; forked workers see them
        copy-on-write) but owns zeroed cascade counters, letting the
        deterministic merger fold per-partition counter deltas back into
        this matcher without double counting.

        Counter exactness is backend-dependent by design: forked workers
        mutate private copies and their deltas merge exactly, while the
        threaded pool increments this one view's counters without a lock
        — ``+= 1`` read-modify-writes may interleave, so thread-backend
        cascade statistics are best-effort instrumentation (match
        decisions are never affected).  Locking every increment would
        tax the cascade's hot loop for serial callers too.
        """
        view = ProfileMatcher.__new__(ProfileMatcher)
        view.__dict__.update(self.__dict__)
        view.cascade_stats = {key: 0 for key in self.cascade_stats}
        return view

    def reset_cascade_stats(self) -> None:
        """Zero the cascade counters (the perf harness reads them)."""
        for key in self.cascade_stats:
            self.cascade_stats[key] = 0

    def clear_cache(self) -> None:
        """Drop the pair-similarity memo.

        Benchmarks call this (via ``QueryEREngine.clear_caches``) between
        measurements so no run inherits a warm similarity cache.
        """
        self._pair_cache.clear()

    def matches(self, left: Mapping[str, Any], right: Mapping[str, Any]) -> bool:
        """Whether the two profiles are duplicates under the threshold."""
        return self.profile_similarity(left, right) >= self.threshold
