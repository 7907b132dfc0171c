"""The scalar oracle of Comparison-Execution.

The engine keeps every table's signatures as columns
(:class:`repro.er.matching.SignatureColumns`) and decides candidate
pairs with one batched cascade,
:meth:`~repro.er.matching.ProfileMatcher.match_pair_indices`: popcount
kernels for stages 1–2, then the scalar stage 3.  This module keeps
what that cascade is tested against:

* the profile-similarity spec (:meth:`ReferenceMatcher.profile_similarity`,
  :meth:`ReferenceMatcher.matches`) over plain attribute mappings;
* the single-pair cascade (:meth:`ReferenceMatcher.match_signatures`)
  over one entity's signature spelled the obvious way — a sorted
  token-id tuple, a dict of normalized values and a character
  ``Counter`` per value (:class:`ProfileSignature`, built without the
  columns by :func:`build_signature`, or read back from a row of them
  by :func:`profile_of`);
* the scalar similarity functions the kernels are diffed against:
  :func:`jaro_winkler`, :func:`jaccard`, :func:`jaccard_sorted_ids`,
  the character-count bound :func:`jaro_winkler_char_bound` and the
  length-only :func:`jaro_winkler_bound` it tightens.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, FrozenSet, Iterable, Mapping, Set, Tuple

from repro.er.matching import BOUND_SLACK, ProfileMatcher, SignatureRow
from repro.er.similarity import jaro
from repro.er.tokenizer import (
    TokenVocabulary,
    normalize_value,
    tokenize_entity,
    tokenize_value,
)


class ProfileSignature:
    """What :meth:`ReferenceMatcher.match_signatures` reads, for one entity.

    ``token_ids`` — sorted interned ids of the whole-profile tokens;
    ``norms`` — attribute → normalized value of each non-null,
    non-excluded attribute, in attribute order; ``char_counts`` — their
    character counts; ``attributes`` — the raw mapping; ``exclude`` —
    the lowered attribute names left out.
    """

    def __init__(
        self,
        entity_id: Any,
        attributes: Mapping[str, Any],
        norms: Dict[str, str],
        token_ids: Tuple[int, ...],
        exclude: FrozenSet[str],
    ):
        self.entity_id = entity_id
        self.attributes = attributes
        self.norms = norms
        self.token_ids = token_ids
        self.exclude = exclude
        self.char_counts = {name: Counter(norm) for name, norm in norms.items()}


def build_signature(
    entity_id: Any,
    attributes: Mapping[str, Any],
    vocabulary: TokenVocabulary,
    exclude: FrozenSet[str] = frozenset(),
) -> ProfileSignature:
    """Intern *attributes* into a :class:`ProfileSignature`."""
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


def profile_of(signature: Any) -> ProfileSignature:
    """*signature* as a :class:`ProfileSignature`: a
    :class:`~repro.er.matching.SignatureRow` is read back from its
    columns, anything else is returned as it is."""
    if not isinstance(signature, SignatureRow):
        return signature
    columns, row = signature.columns, signature.row
    norms = {
        name: norm
        for name, norm in zip(columns.names, columns.normalized_of(row))
        if norm is not None
    }
    return ProfileSignature(
        None, columns.attributes_of(row), norms, columns.token_ids_of(row), columns.exclude
    )


class ReferenceMatcher(ProfileMatcher):
    """The profile-similarity spec and the scalar cascade that decides it.

    A :class:`~repro.er.matching.ProfileMatcher` (same threshold,
    exclusions, counters and stage 3) plus the single-pair forms the
    batched :meth:`~repro.er.matching.ProfileMatcher.match_pair_indices`
    must equal decision for decision and counter for counter.
    """

    def profile_similarity(self, left: Mapping[str, Any], right: Mapping[str, Any]) -> float:
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

    def matches(self, left: Mapping[str, Any], right: Mapping[str, Any]) -> bool:
        """Whether the two profiles are duplicates under the threshold."""
        return self.profile_similarity(left, right) >= self.threshold

    def _aligned_similarity(self, left: Mapping[str, Any], right: Mapping[str, Any]) -> float:
        # Only attributes present in *both* mappings can be comparable,
        # so iterating the left mapping covers every candidate; its
        # (insertion-ordered) iteration also fixes the float accumulation
        # order the cascade reproduces exactly.
        total = 0.0
        counted = 0
        for name, lv in left.items():
            if name.lower() in self.exclude or lv is None:
                continue
            rv = right.get(name)
            if rv is None:
                continue
            total += jaro_winkler(normalize_value(lv), normalize_value(rv))
            counted += 1
        if counted == 0:
            return 0.0
        return total / counted

    def _token_similarity(self, left: Mapping[str, Any], right: Mapping[str, Any]) -> float:
        left_tokens = tokenize_entity(left, self.exclude)
        right_tokens = tokenize_entity(right, self.exclude)
        if not left_tokens or not right_tokens:
            return 0.0
        return jaccard(left_tokens, right_tokens)

    def match_signatures(self, left: Any, right: Any) -> bool:
        """Match decision over two signatures, via the cascade.

        Decision-identical to ``matches(left.attributes,
        right.attributes)``: the cascade only short-circuits on proofs
        and otherwise completes the same exact computation.  Signatures
        built under other exclusions than the matcher's raise
        :class:`ValueError`, as the batched cascade does.
        """
        left, right = profile_of(left), profile_of(right)
        if left.exclude != self.exclude or right.exclude != self.exclude:
            raise ValueError("signatures built under other exclusions than the matcher's")
        stats = self.cascade_stats
        stats["pairs"] += 1
        ids_a = left.token_ids
        ids_b = right.token_ids
        # The spec scores token-less sides 0, not the two-empty-sets
        # Jaccard of 1 — replicate exactly.
        token_sim = jaccard_sorted_ids(ids_a, ids_b) if ids_a and ids_b else 0.0
        threshold = self.threshold
        if token_sim >= threshold:
            stats["jaccard_accepts"] += 1
            return True

        # Stage 2: per-attribute upper bounds over the comparable
        # attributes, visited in the same order the exact path uses.
        right_norms = right.norms
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
                    lv, rv, left.char_counts[name], right.char_counts[name]
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
        if total_bound / counted < threshold - BOUND_SLACK:
            stats["bound_rejects"] += 1
            return False

        stats["exact_fallbacks"] += 1
        return self._exact_decision(values, bounds, total_bound)


def match_loop(matcher: ReferenceMatcher, pairs, signatures) -> list:
    """Positions in *pairs* the scalar cascade matches, pair by pair."""
    return [
        position
        for position, (left, right) in enumerate(pairs)
        if matcher.match_signatures(signatures[left], signatures[right])
    ]


# -- scalar similarity functions ----------------------------------------------
def jaro_winkler(a: str, b: str, prefix_scale: float = 0.1, max_prefix: int = 4) -> float:
    """Jaro-Winkler: Jaro boosted by the length of the common prefix.

    ``prefix_scale`` must lie in ``[0, 0.25]`` so the result stays ≤ 1.
    """
    if not 0.0 <= prefix_scale <= 0.25:
        raise ValueError("prefix_scale must be within [0, 0.25]")
    base = jaro(a, b)
    prefix = 0
    for ca, cb in zip(a[:max_prefix], b[:max_prefix]):
        if ca != cb:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def jaccard_sorted_ids(a, b) -> float:
    """Jaccard of two *sorted, de-duplicated* sequences (e.g. token ids).

    A single merge pass — no set copies — returning the bit-identical
    float ``jaccard(set(a), set(b))`` would: intersection and union
    cardinalities are the same integers, divided once.
    """
    len_a, len_b = len(a), len(b)
    if len_a == 0 and len_b == 0:
        return 1.0
    intersection = 0
    i = j = 0
    while i < len_a and j < len_b:
        x = a[i]
        y = b[j]
        if x == y:
            intersection += 1
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return intersection / (len_a + len_b - intersection)


def jaro_winkler_char_bound(
    a: str,
    b: str,
    counts_a: Mapping[str, int],
    counts_b: Mapping[str, int],
    prefix_scale: float = 0.1,
    max_prefix: int = 4,
) -> float:
    """Tighter Jaro-Winkler upper bound using character multisets.

    Jaro's matched characters pair identical characters injectively, so
    the match count *m* is at most the multiset character intersection
    ``Σ_c min(count_a(c), count_b(c))`` — and at most ``min(len_a,
    len_b)``.  ``jaro ≤ (m/len_a + m/len_b + 1) / 3`` is increasing in
    *m*, so either cap yields a sound bound; we take the smaller.  With
    zero common characters the bound is the *exact* value 0.0 (no
    matches also forces a zero Winkler prefix).

    *counts_a* / *counts_b* are the strings' character→count maps, so
    the per-pair cost is one pass over the smaller map instead of
    Jaro's O(len_a·len_b) window scan.
    """
    len_a, len_b = len(a), len(b)
    if len_a == 0 or len_b == 0:
        # Exact values: jaro() returns 1.0 for two empty strings and 0.0
        # when exactly one side is empty.
        return 1.0 if len_a == len_b else 0.0
    if len(counts_a) <= len(counts_b):
        smaller, larger = counts_a, counts_b
    else:
        smaller, larger = counts_b, counts_a
    matches = 0
    get = larger.get
    for char, count in smaller.items():
        other = get(char, 0)
        matches += count if count <= other else other
    if matches == 0:
        return 0.0
    jaro_ub = (matches / len_a + matches / len_b + 1.0) / 3.0
    shorter, longer = (len_a, len_b) if len_a <= len_b else (len_b, len_a)
    length_ub = (2.0 + shorter / longer) / 3.0
    if length_ub < jaro_ub:
        jaro_ub = length_ub
    prefix = 0
    for ca, cb in zip(a[:max_prefix], b[:max_prefix]):
        if ca != cb:
            break
        prefix += 1
    return jaro_ub + prefix * prefix_scale * (1.0 - jaro_ub)


def jaccard(a: Iterable, b: Iterable) -> float:
    """Jaccard coefficient of two element collections (as sets)."""
    set_a: Set = set(a)
    set_b: Set = set(b)
    if not set_a and not set_b:
        return 1.0
    union = len(set_a | set_b)
    if union == 0:
        return 1.0
    return len(set_a & set_b) / union


def jaro_winkler_bound(a: str, b: str, prefix_scale: float = 0.1, max_prefix: int = 4) -> float:
    """Upper bound on ``jaro_winkler(a, b)`` from lengths and prefix only.

    Jaro's match count *m* is at most ``min(len_a, len_b)``, so with
    ``s = min``, ``l = max``::

        jaro ≤ (m/len_a + m/len_b + (m - t)/m) / 3 ≤ (1 + s/l + 1) / 3

    and Jaro-Winkler is monotone in both the Jaro base and the actual
    common-prefix length.  :func:`jaro_winkler_char_bound` takes the
    smaller of this cap and a character-count one.
    """
    len_a, len_b = len(a), len(b)
    if len_a == 0 or len_b == 0:
        # Exact values: jaro() returns 1.0 for two empty strings and 0.0
        # when exactly one side is empty.
        return 1.0 if len_a == len_b else 0.0
    shorter, longer = (len_a, len_b) if len_a <= len_b else (len_b, len_a)
    jaro_ub = (2.0 + shorter / longer) / 3.0
    prefix = 0
    for ca, cb in zip(a[:max_prefix], b[:max_prefix]):
        if ca != cb:
            break
        prefix += 1
    return jaro_ub + prefix * prefix_scale * (1.0 - jaro_ub)


def column_state(index: Any) -> list:
    """A table index's signature columns, row by row, in history-free terms.

    Per row: its token strings, its lengths and leading code points, and
    its ``(slot, code point, k)`` elements.  Token ids and element bit
    positions depend on the order rows were registered and inserted;
    these do not, so two indices over the same rows compare equal
    however they got there.
    """
    columns = index.signatures
    token_of = columns.vocabulary.token_of
    return [
        (
            sorted(token_of(token_id) for token_id in columns.token_ids_of(row)),
            columns.shape_of(row).tolist(),
            columns.elements_of(row),
        )
        for row in range(len(columns))
    ]
