"""The Jaro-Winkler kernels of Comparison-Execution.

The paper's resolution function is Jaro-Winkler (§9.1).  The match
cascade scores undecided attribute pairs with :func:`jaro_winkler_fast`
and bounds the rest with :func:`jaro_winkler_char_bound_batch`; both
are bit-identical to the plain scalar definitions the test suite keeps
as its reference (``tests/reference/signature_oracle.py``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


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

    The match cascade uses this variant; :func:`jaro` keeps the original
    implementation, which this one calls on short strings.
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


def jaro_winkler_fast(a: str, b: str, prefix_scale: float = 0.1, max_prefix: int = 4) -> float:
    """Jaro-Winkler: the :func:`jaro_fast` base boosted by the length of
    the common prefix.

    ``prefix_scale`` must lie in ``[0, 0.25]`` so the result stays ≤ 1.
    """
    if not 0.0 <= prefix_scale <= 0.25:
        raise ValueError("prefix_scale must be within [0, 0.25]")
    base = jaro_fast(a, b)
    prefix = 0
    for ca, cb in zip(a[:max_prefix], b[:max_prefix]):
        if ca != cb:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def jaro_winkler_char_bound_batch(matches, len_a, len_b, prefix, prefix_scale=0.1):
    """Upper bounds on Jaro-Winkler from character multisets, element by
    element over arrays.

    Jaro's matched characters pair identical characters injectively, so
    the match count *m* is at most the multiset character intersection
    ``Σ_c min(count_a(c), count_b(c))`` — and at most ``min(len_a,
    len_b)``.  ``jaro ≤ (m/len_a + m/len_b + 1) / 3`` is increasing in
    *m*, so either cap yields a sound bound; the smaller is taken, then
    the Winkler prefix boost of the actual common prefix.

    *matches* holds each string pair's *m*, *len_a* / *len_b* the string
    lengths and *prefix* the common-prefix length (at most
    ``max_prefix``).  The arithmetic is the scalar reference bound's,
    operation for operation on exactly representable integers, so each
    float equals it bit for bit (two empty strings score the exact 1.0,
    one empty string or no common character the exact 0.0).
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


