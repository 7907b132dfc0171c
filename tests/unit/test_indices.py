"""Unit tests for the TBI/ITBI/QBI/LI indices."""

from reference.dict_pipeline import block_join, query_block_index

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
        index = TableIndex(small_table())
        assert index.tbi.get("beta").entities == {"e1", "e2"}
        assert index.tbi.get("omega").entities == {"e4"}

    def test_id_column_excluded_from_blocking(self):
        index = TableIndex(small_table())
        assert index.tbi.get("e1") is None

    def test_itbi_lists_keys_ascending_by_block_size(self):
        index = TableIndex(small_table())
        keys = index.blocks_of("e1")
        assert set(keys) == {"alpha", "beta"}
        sizes = [index.tbi.get(k).size for k in keys]
        assert sizes == sorted(sizes)

    def test_qbi_subset_of_tbi(self):
        index = TableIndex(small_table())
        qbi = query_block_index(index, ["e1"])
        assert set(qbi.keys()) <= set(index.tbi.keys())
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
        assert index.block_count == len(index.tbi)

    def test_unknown_entity_has_no_blocks(self):
        index = TableIndex(small_table())
        assert index.blocks_of("zz") == []
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
        assert li.duplicates_of("b") == {"a", "c"}
        assert li.cluster_of("a") == {"a", "b", "c"}

    def test_resolved_without_links_means_no_duplicates(self):
        li = LinkIndex()
        li.mark_resolved(["solo"])
        assert li.is_resolved("solo")
        assert li.duplicates_of("solo") == set()

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
