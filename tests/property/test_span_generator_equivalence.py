"""Property: the whole-span pair generator ≡ the per-block reference.

:func:`~repro.er.edge_pruning.generate_span_segments` enumerates every
focus-incident pair of a CSR block span with whole-span array
operations, in bounded passes of rows, for every graph build.  The reference below is the per-block
generator it replaced (scalar loop under 16 members, an upper triangle
up to 256, row-at-a-time above), kept here as the oracle.  Both must
produce the same keys in the same order, the same ARCS reciprocals and the same
block counts — and therefore bit-identical ``reduce_span_segments``
output — over random spans with block sizes 0–600, sub-spans, every
focus shape and both weightings that read the generator (ARCS sums and
CBS counts).
"""

from __future__ import annotations

import sys
from typing import Any, List, Optional

import numpy as np
import pytest
from reference.dict_pipeline import ReferenceGraph, block_object_graph

from repro.er.blocking import BlockCollection
from repro.er.edge_pruning import (
    WeightingScheme,
    generate_span_segments,
    reduce_span_segments,
)

#: The generator's module; ``repro.er.edge_pruning`` as an attribute is
#: the function of that name, so look the module up directly.
EDGE_PRUNING = sys.modules[generate_span_segments.__module__]

#: Reference tiers: blocks below this size take the scalar pair loop.
_VECTOR_MIN_SIZE = 16

#: Reference tiers: blocks up to this size take one upper triangle,
#: larger ones go row-at-a-time.
_VECTOR_TRIU_MAX = 256


def _emit_scalar_block(members, n, in_focus, need_arcs, reciprocal,
                       pending_keys, pending_recips) -> None:
    """One small block's packed pair keys (*members* sorted), appended
    to the scalar run."""
    for ai, left in enumerate(members):
        tail = members[ai + 1 :]
        if in_focus is not None and not in_focus[left]:
            tail = [right for right in tail if in_focus[right]]
        for right in tail:
            pending_keys.append(left * n + right)
            if need_arcs:
                pending_recips.append(reciprocal)


def _emit_vector_block(members_arr, n, focus_mask, need_arcs, reciprocal,
                       key_segments, value_segments) -> None:
    """One vectorized block's key (and ARCS value) segments
    (*members_arr* a sorted int64 array)."""
    size = len(members_arr)
    if size <= _VECTOR_TRIU_MAX:
        ii, jj = np.triu_indices(size, 1)
        left = members_arr[ii]
        right = members_arr[jj]
        keys = left * n + right
        if focus_mask is not None:
            keys = keys[focus_mask[left] | focus_mask[right]]
        if keys.size:
            key_segments.append(keys)
            if need_arcs:
                value_segments.append(np.full(keys.size, reciprocal, dtype=np.float64))
        return
    for ai in range(size - 1):
        left_idx = int(members_arr[ai])
        tail = members_arr[ai + 1 :]
        if focus_mask is not None and not focus_mask[left_idx]:
            tail = tail[focus_mask[tail]]
            if not tail.size:
                continue
        key_segments.append(left_idx * n + tail)
        if need_arcs:
            value_segments.append(np.full(tail.size, reciprocal, dtype=np.float64))


def reference_span_segments(
    members: Any,
    indptr: Any,
    start: int,
    stop: int,
    n: int,
    in_focus: Optional[bytearray],
    need_arcs: bool,
):
    """The per-block span generator: one Python iteration per block."""
    focus_mask = (
        None
        if in_focus is None
        else np.frombuffer(in_focus, dtype=np.uint8).view(np.bool_)
    )
    span = members[indptr[start] : indptr[stop]]
    block_counts = np.bincount(span, minlength=n).astype(np.int64)
    key_segments: List[Any] = []
    value_segments: List[Any] = []
    pending_keys: List[int] = []
    pending_recips: List[float] = []

    def flush_scalar() -> None:
        if pending_keys:
            key_segments.append(np.array(pending_keys, dtype=np.int64))
            if need_arcs:
                value_segments.append(np.array(pending_recips, dtype=np.float64))
                pending_recips.clear()
            pending_keys.clear()

    for block in range(start, stop):
        lo = int(indptr[block])
        hi = int(indptr[block + 1])
        size = hi - lo
        if size < 2:
            continue
        reciprocal = 1.0 / (size * (size - 1) // 2) if need_arcs else 0.0
        if size < _VECTOR_MIN_SIZE:
            _emit_scalar_block(
                sorted(members[lo:hi].tolist()), n, in_focus, need_arcs,
                reciprocal, pending_keys, pending_recips,
            )
            continue
        flush_scalar()
        _emit_vector_block(
            np.sort(members[lo:hi]), n, focus_mask, need_arcs, reciprocal,
            key_segments, value_segments,
        )
    flush_scalar()
    keys = np.concatenate(key_segments) if key_segments else np.empty(0, dtype=np.int64)
    values = (
        (np.concatenate(value_segments) if value_segments else np.empty(0))
        if need_arcs
        else None
    )
    return keys, values, block_counts


#: Block sizes that straddle every tier boundary of the reference.
EDGE_SIZES = (0, 1, 2, 3, 15, 16, 17, 255, 256, 257, 600)


def random_csr(rng: np.random.Generator, n: int, blocks: int):
    """Random blocks over universe ``[0, n)``: distinct members per block,
    in arbitrary order, sizes mostly small with tier-boundary outliers."""
    sizes = rng.integers(0, 24, size=blocks)
    outliers = rng.random(blocks) < 0.15
    sizes[outliers] = rng.choice(EDGE_SIZES, size=int(outliers.sum()))
    sizes = np.minimum(sizes, n)
    indptr = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    members = np.concatenate(
        [rng.choice(n, size=int(size), replace=False) for size in sizes]
        or [np.empty(0, dtype=np.int64)]
    ).astype(np.int64)
    return members, indptr


def focus_mask(rng: np.random.Generator, n: int, shape: str) -> Optional[bytearray]:
    if shape == "none":
        return None
    if shape == "empty":
        return bytearray(n)
    if shape == "full":
        return bytearray(b"\x01" * n)
    return bytearray((rng.random(n) < 0.2).astype(np.uint8).tobytes())


def assert_same(got, want) -> None:
    keys, values, counts = got
    ref_keys, ref_values, ref_counts = want
    assert keys.dtype == np.int64
    assert np.array_equal(keys, ref_keys)
    assert np.array_equal(counts, ref_counts)
    if ref_values is None:
        assert values is None
    else:
        assert values.dtype == np.float64
        assert np.array_equal(values, ref_values)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("focus", ["none", "empty", "partial", "full"])
@pytest.mark.parametrize("need_arcs", [True, False], ids=["arcs", "cbs"])
def test_whole_span_equals_per_block_reference(seed, focus, need_arcs):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 900))
    members, indptr = random_csr(rng, n, int(rng.integers(0, 40)))
    in_focus = focus_mask(rng, n, focus)
    blocks = len(indptr) - 1
    spans = [(0, blocks)]
    if blocks:
        start = int(rng.integers(0, blocks))
        spans.append((start, int(rng.integers(start, blocks + 1))))
        spans.append((blocks, blocks))
    for start, stop in spans:
        got = generate_span_segments(members, indptr, start, stop, n, in_focus, need_arcs)
        want = reference_span_segments(
            members, indptr, start, stop, n, in_focus, need_arcs
        )
        assert_same(got, want)
        # Reduced edges: ARCS sums and CBS counts, bit for bit.
        edges = reduce_span_segments(got[0], got[1], need_arcs)
        ref_edges = reduce_span_segments(want[0], want[1], need_arcs)
        assert np.array_equal(edges[0], ref_edges[0])
        assert edges[1].dtype == ref_edges[1].dtype
        assert np.array_equal(edges[1], ref_edges[1])


@pytest.mark.parametrize("size", EDGE_SIZES)
def test_single_block_of_every_tier(size):
    rng = np.random.default_rng(size)
    n = 700
    members = rng.choice(n, size=size, replace=False).astype(np.int64)
    indptr = np.array([0, size], dtype=np.int64)
    for shape in ("none", "empty", "partial", "full"):
        in_focus = focus_mask(rng, n, shape)
        assert_same(
            generate_span_segments(members, indptr, 0, 1, n, in_focus, True),
            reference_span_segments(members, indptr, 0, 1, n, in_focus, True),
        )


@pytest.mark.parametrize("pass_pairs", [1, 7, 300])
@pytest.mark.parametrize("focus", ["none", "partial"])
def test_multi_pass_generation_equals_reference(monkeypatch, pass_pairs, focus):
    """Spans larger than one pass are cut into row passes; the output
    must not depend on where the cuts fall."""
    monkeypatch.setattr(EDGE_PRUNING, "_PAIRS_PER_PASS", pass_pairs)
    rng = np.random.default_rng(pass_pairs)
    n = 700
    members, indptr = random_csr(rng, n, 30)
    in_focus = focus_mask(rng, n, focus)
    blocks = len(indptr) - 1
    for start, stop in ((0, blocks), (blocks // 3, blocks)):
        for need_arcs in (True, False):
            assert_same(
                generate_span_segments(members, indptr, start, stop, n, in_focus, need_arcs),
                reference_span_segments(members, indptr, start, stop, n, in_focus, need_arcs),
            )


def test_sharded_spans_reduce_like_the_whole_span():
    """Contiguous sub-spans concatenated in order reduce to the whole."""
    rng = np.random.default_rng(99)
    n = 500
    members, indptr = random_csr(rng, n, 60)
    in_focus = focus_mask(rng, n, "partial")
    blocks = len(indptr) - 1
    cuts = sorted(set(rng.integers(0, blocks, size=5).tolist()) | {0, blocks})
    parts = [
        generate_span_segments(members, indptr, a, b, n, in_focus, True)
        for a, b in zip(cuts, cuts[1:])
    ]
    keys = np.concatenate([p[0] for p in parts])
    values = np.concatenate([p[1] for p in parts])
    whole = generate_span_segments(members, indptr, 0, blocks, n, in_focus, True)
    merged = reduce_span_segments(keys, values, True)
    serial = reduce_span_segments(whole[0], whole[1], True)
    assert np.array_equal(merged[0], serial[0])
    assert np.array_equal(merged[1], serial[1])


@pytest.mark.parametrize("scheme", list(WeightingScheme))
@pytest.mark.parametrize("focused", [False, True])
def test_block_object_graph_equals_unpacked_across_tiers(scheme, focused):
    """A block collection laid out by ``collection_span`` goes through
    the same whole-span generator; with block sizes on every reference
    tier its graph still equals the unpacked, dict-accumulated one edge
    for edge."""
    rng = np.random.default_rng(7)
    collection = BlockCollection()
    for number, size in enumerate(EDGE_SIZES * 2):
        for entity in rng.choice(700, size=size, replace=False).tolist():
            collection.add(f"k{number}", f"e{entity}")
    focus = {f"e{i}" for i in range(0, 700, 9)} if focused else None
    packed = block_object_graph(collection, scheme=scheme, focus=focus)
    reference = ReferenceGraph(collection, scheme=scheme, focus=focus)
    assert list(packed.edges()) == list(reference.edges())
    assert packed.average_weight() == reference.average_weight()
