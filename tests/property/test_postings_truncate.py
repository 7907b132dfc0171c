"""Property: ``TokenPostings.truncate(n)`` ≡ a build over the first *n* rows.

Truncation is the rollback path of ``INSERT INTO``: whatever mix of
bulk-built, appended (pending) and compacted postings it cuts back,
the result must be indistinguishable from postings bulk-built over the
surviving rows — forward CSR, every token's size and every token's
members — and must keep accepting appends.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.er.blocking import TokenPostings
from repro.er.tokenizer import TokenVocabulary

TOKENS = [f"t{i}" for i in range(10)]

rows = st.lists(
    st.lists(st.sampled_from(TOKENS), max_size=5, unique=True), max_size=30
)


def observed(postings: TokenPostings, token_count: int):
    """Forward CSR, sizes and members of every token, as plain lists."""
    csr = postings.to_arrays()
    tokens = np.arange(token_count, dtype=np.int64)
    indptr, members = postings.members_of(tokens)
    return (
        csr["entity_ids"],
        csr["indptr"].tolist(),
        csr["tokens"].tolist(),
        postings.sizes_of(tokens).tolist(),
        indptr.tolist(),
        members.tolist(),
    )


def grown(keys, built: int, compact_at):
    """Postings over *keys*: the first *built* rows bulk-built, the rest
    appended one by one, compacted once after row *compact_at*."""
    vocabulary = TokenVocabulary()
    postings = TokenPostings.build(
        ((f"e{i}", keys[i]) for i in range(built)), vocabulary
    )
    for i in range(built, len(keys)):
        postings.add_entity(f"e{i}", keys[i])
        if compact_at == i:
            postings.compact()
    return postings


@settings(max_examples=150, deadline=None)
@given(data=st.data(), keys=rows)
def test_truncate_equals_build_over_prefix(data, keys):
    built = data.draw(st.integers(0, len(keys)), label="built")
    compact_at = data.draw(
        st.one_of(st.none(), st.integers(built, max(built, len(keys) - 1))),
        label="compact_at",
    )
    cut = data.draw(st.integers(0, len(keys)), label="cut")
    postings = grown(keys, built, compact_at)
    vocabulary = postings.vocabulary
    postings.truncate(cut)
    reference = TokenPostings.build(
        ((f"e{i}", keys[i]) for i in range(cut)), vocabulary
    )
    assert observed(postings, len(vocabulary)) == observed(reference, len(vocabulary))
    assert postings.block_count == reference.block_count

    # Appends after a truncation land exactly where a build puts them.
    for i in range(cut, len(keys)):
        postings.add_entity(f"e{i}", keys[i])
    full = TokenPostings.build(((f"e{i}", keys[i]) for i in range(len(keys))), vocabulary)
    assert observed(postings, len(vocabulary)) == observed(full, len(vocabulary))


def test_truncate_rejects_growing():
    postings = TokenPostings.build([("a", ["x"])], TokenVocabulary())
    with pytest.raises(ValueError):
        postings.truncate(2)
