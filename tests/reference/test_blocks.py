"""Unit tests for the reference's dict blocks (:mod:`reference.dict_pipeline`)."""

from reference.dict_pipeline import Block, BlockCollection, block_purging, build_blocks

from repro.er.blocking import TokenBlocking


class TestBlock:
    def test_size_and_cardinality(self):
        block = Block("k", ["a", "b", "c"])
        assert block.size == 3
        assert block.cardinality == 3

    def test_singleton_has_zero_cardinality(self):
        assert Block("k", ["a"]).cardinality == 0

    def test_membership(self):
        assert "a" in Block("k", ["a"])


class TestBlockCollection:
    def test_add_groups_by_key(self):
        bc = BlockCollection()
        bc.add("tok", "e1")
        bc.add("tok", "e2")
        bc.add("other", "e1")
        assert len(bc) == 2
        assert bc.get("tok").entities == {"e1", "e2"}

    def test_cardinality_sums_blocks(self):
        bc = BlockCollection()
        for e in "abc":
            bc.add("k1", e)
        bc.add("k2", "a")
        bc.add("k2", "b")
        assert bc.cardinality == 3 + 1

    def test_non_singleton_filters(self):
        bc = BlockCollection()
        bc.add("k1", "a")
        bc.add("k2", "a")
        bc.add("k2", "b")
        assert bc.non_singleton().keys() == ["k2"]

    def test_inverted_sorted_ascending_by_size(self):
        bc = BlockCollection()
        for e in "abc":
            bc.add("big", e)
        bc.add("small", "a")
        bc.add("small", "b")
        assert bc.inverted()["a"] == ["small", "big"]

    def test_comparison_pairs_unique(self):
        bc = BlockCollection()
        bc.add("k1", "a")
        bc.add("k1", "b")
        bc.add("k2", "a")
        bc.add("k2", "b")
        assert bc.comparison_pairs() == {("a", "b")}

    def test_entity_ids(self):
        bc = BlockCollection()
        bc.add("k", "a")
        bc.add("j", "b")
        assert bc.entity_ids() == {"a", "b"}


class TestBuildBlocks:
    def test_build_from_entities(self):
        bc = build_blocks(TokenBlocking(), [("e1", {"t": "big data"}), ("e2", {"t": "big ideas"})])
        assert bc.get("big").entities == {"e1", "e2"}
        assert bc.get("data").entities == {"e1"}

    def test_excluded_attributes_do_not_block(self):
        tb = TokenBlocking(exclude_attributes=("id",))
        bc = build_blocks(tb, [("e1", {"id": "shared", "t": "x1y2"})])
        assert bc.get("shared") is None


class TestBlockCopy:
    def test_copy_shares_no_mutable_state(self):
        block = Block("k", ("a", "b"))
        clone = block.copy()
        clone.add("c")
        assert block.entities == {"a", "b"}
        assert clone.entities == {"a", "b", "c"}

    def test_purging_result_does_not_alias_input(self):
        """Mutating the purged copy (or the input) never leaks through
        to the other collection."""
        collection = BlockCollection()
        for key, entity in [("x", 1), ("x", 2), ("y", 2), ("y", 3)]:
            collection.add(key, entity)
        purged = block_purging(collection)
        assert len(purged) > 0
        for block in purged:
            block.add(999)
        for block in collection:
            assert 999 not in block.entities
        collection.get("x").add(777)
        assert 777 not in purged.get("x").entities
