"""Unit tests for the token postings (TBI/ITBI), the QBI and the LI."""

import numpy as np
from reference.dict_pipeline import block_join, postings_blocks, query_block_index, reference_tbi

from repro.core.indices import LinkIndex, TableIndex
from repro.storage.schema import Schema
from repro.storage.table import Table


def small_table():
    return Table(
        "T",
        Schema.of("id", "title"),
        [
            ("e1", "alpha beta"),
            ("e2", "beta gamma"),
            ("e3", "gamma delta"),
            ("e4", "omega"),
        ],
    )


class TestTableIndex:
    def test_tbi_built_from_all_tokens(self):
        blocks = postings_blocks(TableIndex(small_table()))
        assert blocks["beta"] == {"e1", "e2"}
        assert blocks["omega"] == {"e4"}

    def test_id_column_excluded_from_blocking(self):
        index = TableIndex(small_table())
        assert "e1" not in index.vocabulary

    def test_keys_interned_ascending_by_block_size(self):
        # Rows in table order, each row's new keys by (|b|, key):
        # e1 alpha(1) beta(2), e2 gamma(2), e3 delta(1), e4 omega(1).
        index = TableIndex(small_table())
        assert index.vocabulary.tokens() == ["alpha", "beta", "gamma", "delta", "omega"]

    def test_dense_ids_follow_row_positions(self):
        index = TableIndex(small_table())
        postings = index.postings
        assert postings.entity_ids_of(np.arange(postings.entity_count)) == index.table.ids

    def test_qbi_subset_of_tbi(self):
        index = TableIndex(small_table())
        qbi = query_block_index(index, ["e1"])
        assert set(qbi.keys()) <= set(reference_tbi(index).keys())
        assert qbi.get("alpha").entities == {"e1"}

    def test_block_join_enriches_with_cooccurring_entities(self):
        index = TableIndex(small_table())
        qbi = query_block_index(index, ["e1"])
        eqbi = block_join(index, qbi)
        assert eqbi.get("beta").entities == {"e1", "e2"}

    def test_block_join_ignores_keys_missing_from_tbi(self):
        index = TableIndex(small_table())
        qbi = query_block_index(index, ["e1"])
        qbi.add("nonexistent", "e1")
        eqbi = block_join(index, qbi)
        assert eqbi.get("nonexistent") is None

    def test_block_count_matches_tbi(self):
        index = TableIndex(small_table())
        assert index.block_count == len(reference_tbi(index)) == 5

    def test_unknown_entity_has_no_blocks(self):
        index = TableIndex(small_table())
        assert len(index.postings.dense_frontier(["zz"])) == 0
        assert len(query_block_index(index, ["zz"])) == 0


class TestLinkIndex:
    def test_initially_empty(self):
        li = LinkIndex()
        assert not li.is_resolved("a")
        assert len(li) == 0

    def test_mark_resolved(self):
        li = LinkIndex()
        li.mark_resolved(["a", "b"])
        assert li.is_resolved("a")
        assert li.resolved_subset(["a", "x"]) == {"a"}

    def test_add_links_and_lookup(self):
        li = LinkIndex()
        li.add_links([("a", "b"), ("b", "c")])
        assert ("b", "a") in li.links and ("c", "b") in li.links
        assert ("a", "c") not in li.links
        assert li.cluster_of("a") == {"a", "b", "c"}

    def test_resolved_without_links_means_no_duplicates(self):
        li = LinkIndex()
        li.mark_resolved(["solo"])
        assert li.is_resolved("solo")
        assert li.cluster_of("solo") == {"solo"}

    def test_clear(self):
        li = LinkIndex()
        li.mark_resolved(["a"])
        li.add_links([("a", "b")])
        li.clear()
        assert not li.is_resolved("a")
        assert len(li) == 0

    def test_resolved_count(self):
        li = LinkIndex()
        li.mark_resolved(["a", "b", "a"])
        assert li.resolved_count == 2
