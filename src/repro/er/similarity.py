"""String similarity functions used by Comparison-Execution.

All functions return a similarity in ``[0, 1]`` (1 = identical) and are
symmetric in their arguments.  The paper's default resolution function is
Jaro-Winkler (§9.1); the others back schema-based alternatives and tests.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, Set

import numpy as np


def levenshtein(a: str, b: str) -> int:
    """Edit distance (insert/delete/substitute) between *a* and *b*."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    # Keep the shorter string in the inner loop for the O(min) row.
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def normalized_levenshtein(a: str, b: str) -> float:
    """``1 - levenshtein / max_len``; 1.0 for two empty strings."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


def jaro(a: str, b: str) -> float:
    """Jaro similarity: transposition-aware common-character overlap."""
    if a == b:
        return 1.0
    len_a, len_b = len(a), len(b)
    if len_a == 0 or len_b == 0:
        return 0.0
    window = max(len_a, len_b) // 2 - 1
    if window < 0:
        window = 0
    matched_a = [False] * len_a
    matched_b = [False] * len_b
    matches = 0
    for i, ch in enumerate(a):
        lo = max(0, i - window)
        hi = min(i + window + 1, len_b)
        for j in range(lo, hi):
            if not matched_b[j] and b[j] == ch:
                matched_a[i] = True
                matched_b[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(len_a):
        if matched_a[i]:
            while not matched_b[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    m = float(matches)
    return (m / len_a + m / len_b + (m - transpositions) / m) / 3.0


#: Above this ``len(a) * len(b)`` product the indexed Jaro implementation
#: beats the windowed scan (chosen empirically; both are bit-identical).
_JARO_INDEXED_CUTOFF = 900


@lru_cache(maxsize=8192)
def _char_positions(s: str) -> dict:
    """Character → ascending position list of *s* (read-only, memoized).

    Attribute values recur across many comparisons, so the per-string
    index is worth caching; the bound keeps memory flat under sustained
    traffic.  Callers must not mutate the returned lists.
    """
    positions: dict = {}
    for j, ch in enumerate(s):
        plist = positions.get(ch)
        if plist is None:
            positions[ch] = [j]
        else:
            plist.append(j)
    return positions


def jaro_fast(a: str, b: str) -> float:
    """Bit-identical :func:`jaro`, faster on long strings.

    For long inputs the O(len_a · window) inner scan is replaced by
    per-character position lists with monotone pointers: the window's
    lower bound only ever grows, so positions left behind (or already
    matched) are skipped permanently and each position of *b* is passed
    at most once.  The greedy match selection — smallest unmatched
    in-window position of the same character — is exactly the scan's, so
    match flags, transposition count and the final float are identical.

    The Comparison-Execution fast path uses this variant; :func:`jaro`
    keeps the original implementation as the measured baseline.
    """
    if a == b:
        return 1.0
    len_a, len_b = len(a), len(b)
    if len_a == 0 or len_b == 0:
        return 0.0
    if len_a * len_b <= _JARO_INDEXED_CUTOFF:
        return jaro(a, b)
    window = max(len_a, len_b) // 2 - 1
    if window < 0:
        window = 0
    positions = _char_positions(b)
    pointers: dict = {}
    matched_a = [False] * len_a
    matched_b = [False] * len_b
    matches = 0
    for i, ch in enumerate(a):
        plist = positions.get(ch)
        if plist is None:
            continue
        k = pointers.get(ch, 0)
        plen = len(plist)
        lo = i - window
        while k < plen:
            j = plist[k]
            if j >= lo and not matched_b[j]:
                break
            k += 1
        pointers[ch] = k
        if k < plen:
            j = plist[k]
            if j <= i + window:
                matched_a[i] = True
                matched_b[j] = True
                matches += 1
                pointers[ch] = k + 1
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(len_a):
        if matched_a[i]:
            while not matched_b[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    m = float(matches)
    return (m / len_a + m / len_b + (m - transpositions) / m) / 3.0


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


def jaro_winkler_fast(a: str, b: str, prefix_scale: float = 0.1, max_prefix: int = 4) -> float:
    """:func:`jaro_winkler` on the :func:`jaro_fast` base — bit-identical."""
    if not 0.0 <= prefix_scale <= 0.25:
        raise ValueError("prefix_scale must be within [0, 0.25]")
    base = jaro_fast(a, b)
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


def jaccard_sorted_ids_batch(indptr, tokens, left, right):
    """:func:`jaccard_sorted_ids` for many pairs at once.

    *indptr* / *tokens* are a CSR over entity rows — row ``u``'s sorted,
    de-duplicated token ids are ``tokens[indptr[u]:indptr[u + 1]]`` —
    and *left* / *right* name one row per pair.  Rows ascend and tokens
    ascend within a row, so ``row * span + token`` is globally sorted:
    each pair's smaller side is gathered, re-keyed onto the other
    side's row and located with one ``searchsorted``; the hits per pair
    are the intersection cardinality.  Cardinalities are the same
    integers the merge pass counts and are divided once, so every float
    equals the scalar function's bit for bit.
    """
    sizes = np.diff(indptr)
    size_left, size_right = sizes[left], sizes[right]
    # Intersection is symmetric: walk the side with fewer tokens.
    swap = size_right < size_left
    probe = np.where(swap, right, left)
    target = np.where(swap, left, right)
    probe_sizes = sizes[probe]
    pair_of = np.repeat(np.arange(len(probe)), probe_sizes)
    within = np.arange(len(pair_of)) - np.repeat(
        np.cumsum(probe_sizes) - probe_sizes, probe_sizes
    )
    gathered = tokens[indptr[probe][pair_of] + within]
    span = int(tokens.max()) + 1 if len(tokens) else 1
    # A trailing sentinel no probe equals absorbs past-the-end searches.
    keys = np.append(np.repeat(np.arange(len(sizes)), sizes) * span + tokens, -1)
    wanted = target[pair_of] * span + gathered
    hits = keys[np.searchsorted(keys[:-1], wanted)] == wanted
    intersection = np.bincount(pair_of[hits], minlength=len(probe))
    union = size_left + size_right - intersection
    return np.where(union > 0, intersection / np.maximum(union, 1), 1.0)


def jaro_winkler_bound(a: str, b: str, prefix_scale: float = 0.1, max_prefix: int = 4) -> float:
    """Cheap upper bound on ``jaro_winkler(a, b)`` from lengths + prefix.

    Jaro's match count *m* is at most ``min(len_a, len_b)``, so with
    ``s = min``, ``l = max``::

        jaro ≤ (m/len_a + m/len_b + (m - t)/m) / 3 ≤ (1 + s/l + 1) / 3

    and Jaro-Winkler is monotone in both the Jaro base and the actual
    common-prefix length, giving the bound below.  This is the simple
    length-only reference bound; the matcher's cascade uses the tighter
    :func:`jaro_winkler_char_bound` (which incorporates this cap).
    Callers must compare against their threshold with a small slack
    (the cascade uses 1e-9) so float rounding can never flip a
    borderline decision.
    """
    len_a, len_b = len(a), len(b)
    if len_a == 0 or len_b == 0:
        # Exact values, not bounds: jaro() returns 1.0 for two empty
        # strings and 0.0 when exactly one side is empty.
        return 1.0 if len_a == len_b else 0.0
    shorter, longer = (len_a, len_b) if len_a <= len_b else (len_b, len_a)
    jaro_ub = (2.0 + shorter / longer) / 3.0
    prefix = 0
    for ca, cb in zip(a[:max_prefix], b[:max_prefix]):
        if ca != cb:
            break
        prefix += 1
    return jaro_ub + prefix * prefix_scale * (1.0 - jaro_ub)


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

    *counts_a* / *counts_b* are the strings' character→count maps,
    precomputed once per profile signature so the per-pair cost is one
    pass over the smaller map instead of Jaro's O(len_a·len_b) window
    scan.
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


def jaro_winkler_char_bound_batch(matches, len_a, len_b, prefix, prefix_scale=0.1):
    """:func:`jaro_winkler_char_bound`, element by element over arrays.

    *matches* holds each string pair's multiset character intersection
    ``Σ_c min(count_a(c), count_b(c))``, *len_a* / *len_b* the string
    lengths and *prefix* the common-prefix length (at most
    ``max_prefix``).  The arithmetic is the scalar function's, operation
    for operation on exactly representable integers, so each float
    equals the scalar bound bit for bit (two empty strings score the
    exact 1.0, one empty string or no common character the exact 0.0).
    """
    matches = matches.astype(np.float64)
    len_a = len_a.astype(np.float64)
    len_b = len_b.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        jaro_ub = (matches / len_a + matches / len_b + 1.0) / 3.0
        length_ub = (2.0 + np.minimum(len_a, len_b) / np.maximum(len_a, len_b)) / 3.0
    jaro_ub = np.minimum(jaro_ub, length_ub)
    bound = jaro_ub + prefix * prefix_scale * (1.0 - jaro_ub)
    bound[matches == 0] = 0.0
    empty = (len_a == 0) | (len_b == 0)
    bound[empty] = (len_a == len_b)[empty]
    return bound


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


def token_jaccard(a: str, b: str) -> float:
    """Jaccard over whitespace-delimited lowercase tokens of two strings."""
    return jaccard(a.lower().split(), b.lower().split())


def dice(a: Iterable, b: Iterable) -> float:
    """Sørensen-Dice coefficient of two element collections."""
    set_a: Set = set(a)
    set_b: Set = set(b)
    if not set_a and not set_b:
        return 1.0
    total = len(set_a) + len(set_b)
    if total == 0:
        return 1.0
    return 2.0 * len(set_a & set_b) / total


def overlap_coefficient(a: Iterable, b: Iterable) -> float:
    """Szymkiewicz–Simpson overlap: |∩| / min(|A|, |B|).

    Useful for acronym-vs-full-name venue matching where one side's
    token set is (nearly) contained in the other's.
    """
    set_a: Set = set(a)
    set_b: Set = set(b)
    if not set_a or not set_b:
        return 1.0 if not set_a and not set_b else 0.0
    return len(set_a & set_b) / min(len(set_a), len(set_b))


def monge_elkan(a: str, b: str, inner=None) -> float:
    """Monge-Elkan: mean best-match inner similarity over *a*'s tokens.

    Asymmetric by definition; use ``(monge_elkan(a, b) + monge_elkan(b, a)) / 2``
    for a symmetric score.  The inner similarity defaults to Jaro-Winkler.
    """
    inner = inner or jaro_winkler
    tokens_a = a.lower().split()
    tokens_b = b.lower().split()
    if not tokens_a:
        return 1.0 if not tokens_b else 0.0
    if not tokens_b:
        return 0.0
    total = 0.0
    for token_a in tokens_a:
        total += max(inner(token_a, token_b) for token_b in tokens_b)
    return total / len(tokens_a)
