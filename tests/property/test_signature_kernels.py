"""Popcount kernels ≡ the scalar Jaccard and Jaro-Winkler character bound.

Stages 1–2 of the match cascade read a table's signature columns through
per-chunk bitsets: a token intersection is ``popcount(a & b)`` over the
chunk's token bits, a slot's character intersection the popcount of two
rows' element words, an element being a ``(slot, character, k)`` copy.
For every pair of rows those integers must be the ones the scalar
functions count, so every float downstream is bit-identical:

* the oracle's ``jaccard_sorted_ids`` over the rows' token ids (0.0
  when a side has none, as the cascade scores it);
* the oracle's ``jaro_winkler_char_bound`` over the slot's
  normalized values and their character counts, 0.0 where a side holds
  no value.

Values mix ASCII, Greek, combining marks, astral code points, numbers,
empty strings, ``None`` and runs of one character 64 times or more (a slot
whose element bits span several words); tables have three to five
attribute slots; rows may hold no token at all.  Columns are checked as
registered, after an appended batch, and under a blocking function whose
keys are not the matcher's tokens (the columns' private vocabulary).
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference.signature_oracle import (
    ReferenceMatcher,
    build_signature,
    jaccard_sorted_ids,
    jaro_winkler_char_bound,
    match_loop,
    profile_of,
)

from repro.core.indices import TableIndex
from repro.er.blocking import TokenBlocking
from repro.er.matching import ProfileMatcher, _ChunkBitsets
from repro.er.tokenizer import TokenVocabulary
from repro.storage.schema import Schema
from repro.storage.table import Table

ALPHABET = (
    "abcxyz AB09-.,!"
    "\u03b1\u03b2\u03b3\u03b4\u03c3\u03c2\u03a3\u039f\u0394"  # Greek, both sigmas
    "\u0301\u0308"  # combining acute and diaeresis
    "\u00e9\u00ef\u0130"  # é, ï, dotted capital I (lowers to two code points)
    "\U0001F600\U00010348\U0001D11E"  # astral code points
)

fragments = st.text(alphabet=ALPHABET, max_size=12)
runs = st.builds(
    lambda char, count, tail: char * count + tail,
    st.sampled_from("a\u03c3\U0001F600"),
    st.integers(min_value=64, max_value=140),
    fragments,
)
values = st.one_of(
    st.none(), st.just(""), fragments, fragments, runs, st.integers(-50, 5000)
)


@st.composite
def tables(draw):
    slots = draw(st.integers(min_value=3, max_value=5))
    count = draw(st.integers(min_value=2, max_value=9))
    rows = [
        (f"r{i}",) + tuple(draw(values) for _ in range(slots)) for i in range(count)
    ]
    schema = Schema.of("id", *(f"a{slot}" for slot in range(slots)))
    # Uncoerced, so empty strings stay values instead of becoming NULL.
    return Table("T", schema, rows, coerce=False)


def expected_jaccard(left, right):
    ids_a, ids_b = left.token_ids, right.token_ids
    return jaccard_sorted_ids(ids_a, ids_b) if ids_a and ids_b else 0.0


def assert_kernels_equal_scalar(index):
    columns = index.signatures
    rows = np.arange(len(columns), dtype=np.int64)
    kernels = _ChunkBitsets(columns, rows)
    pairs = np.array(list(combinations(range(len(rows)), 2)), dtype=np.int64)
    handles = [profile_of(index.signature_of(index.table[row].id)) for row in range(len(rows))]
    sims = kernels.token_jaccard(pairs[:, 0], pairs[:, 1])
    bounds, comparable = kernels.attribute_bounds(pairs[:, 0], pairs[:, 1])
    for (i, j), sim, pair_bounds, pair_comparable in zip(
        pairs.tolist(), sims.tolist(), bounds.tolist(), comparable.tolist()
    ):
        left, right = handles[i], handles[j]
        assert sim == expected_jaccard(left, right)
        left_norms, right_norms = left.norms, right.norms
        for slot, name in enumerate(columns.names):
            a, b = left_norms.get(name), right_norms.get(name)
            assert pair_comparable[slot] == (a is not None and b is not None)
            expected = (
                0.0
                if a is None or b is None
                else jaro_winkler_char_bound(a, b, Counter(a), Counter(b))
            )
            assert pair_bounds[slot] == expected  # ==, not approx


def assert_cascade_equals_scalar(index, threshold):
    """Batched cascade ≡ a match_signatures loop over reference signatures."""
    pairs = list(combinations(index.table.ids, 2))
    vocabulary = TokenVocabulary()
    exclude = frozenset({"id"})
    reference = {
        entity: build_signature(entity, index.entities.attributes(entity), vocabulary, exclude)
        for entity in index.table.ids
    }
    scalar = ReferenceMatcher(exclude=("id",), threshold=threshold)
    expected = match_loop(scalar, pairs, reference)
    batched = ProfileMatcher(exclude=("id",), threshold=threshold)
    assert batched.match_pair_indices(pairs, index.signatures) == expected
    assert batched.cascade_stats == scalar.cascade_stats


SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@SETTINGS
@given(tables())
def test_registered_columns(table):
    index = TableIndex(table)
    assert index.signatures.vocabulary is index.vocabulary
    assert_kernels_equal_scalar(index)


@SETTINGS
@given(tables(), st.data())
def test_columns_after_an_appended_batch(table, data):
    """Some rows registered, the rest appended: new characters, new
    copies of old ones and new tokens all arrive in the batch."""
    rows = [tuple(row.values) for row in table]
    keep = data.draw(st.integers(min_value=1, max_value=len(rows) - 1))
    grown = Table("T", table.schema, rows[:keep], coerce=False)
    index = TableIndex(grown)
    appended = grown.append_rows(rows[keep:], coerce=False)
    index.add_records([row.id for row in appended])
    assert_kernels_equal_scalar(index)


@SETTINGS
@given(tables())
def test_columns_of_a_blocking_whose_keys_are_not_the_tokens(table):
    index = TableIndex(table, blocking=TokenBlocking(("id",), min_token_length=3))
    assert index.signatures.vocabulary is not index.vocabulary
    assert_kernels_equal_scalar(index)


@SETTINGS
@given(tables(), st.sampled_from((0.0, 0.3, 0.75, 1.0)))
def test_cascade_equals_the_scalar_oracle(table, threshold):
    assert_cascade_equals_scalar(TableIndex(table), threshold)
