"""Unit tests for union-find, connected components and linksets."""

from repro.er.clustering import UnionFind, connected_components
from repro.er.linkset import LinkSet, canonical_pair


class TestUnionFind:
    def test_singletons(self):
        uf = UnionFind(["a", "b"])
        assert not uf.connected("a", "b")

    def test_union_connects(self):
        uf = UnionFind()
        uf.union("a", "b")
        assert uf.connected("a", "b")

    def test_transitivity(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("b", "c")
        assert uf.connected("a", "c")

    def test_find_auto_registers(self):
        uf = UnionFind()
        assert uf.find("new") == "new"

    def test_groups_include_singletons(self):
        uf = UnionFind(["x"])
        uf.union("a", "b")
        groups = uf.groups()
        assert {"x"} in groups and {"a", "b"} in groups

    def test_idempotent_union(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("a", "b")
        assert len(uf.groups()) == 1

    def test_len_counts_elements(self):
        uf = UnionFind(["a", "b", "c"])
        assert len(uf) == 3


class TestConnectedComponents:
    def test_basic(self):
        comps = connected_components([("a", "b"), ("c", "d"), ("b", "c")])
        assert comps == [{"a", "b", "c", "d"}]

    def test_isolated_nodes(self):
        comps = connected_components([("a", "b")], nodes=["z"])
        assert {"z"} in comps


class TestCanonicalPair:
    def test_order_insensitive(self):
        assert canonical_pair("b", "a") == canonical_pair("a", "b")


class TestLinkSet:
    def test_add_and_contains(self):
        ls = LinkSet()
        assert ls.add("a", "b")
        assert ("b", "a") in ls

    def test_self_link_rejected(self):
        ls = LinkSet()
        assert not ls.add("a", "a")
        assert len(ls) == 0

    def test_duplicate_add_returns_false(self):
        ls = LinkSet([("a", "b")])
        assert not ls.add("b", "a")

    def test_pairs_are_recorded_links_only(self):
        ls = LinkSet([("a", "b"), ("a", "c")])
        assert ("b", "a") in ls and ("c", "a") in ls
        assert ("b", "c") not in ls
        assert ls.cluster_of("zz") == {"zz"}

    def test_cluster_of_is_transitive(self):
        ls = LinkSet([("a", "b"), ("b", "c")])
        assert ls.cluster_of("a") == {"a", "b", "c"}

    def test_cluster_of_unknown_is_singleton(self):
        assert LinkSet().cluster_of("q") == {"q"}

    def test_clusters(self):
        ls = LinkSet([("a", "b"), ("x", "y"), ("y", "z")])
        clusters = ls.clusters()
        assert {"a", "b"} in clusters and {"x", "y", "z"} in clusters

    def test_update_merges(self):
        ls = LinkSet([("a", "b")])
        ls.update(LinkSet([("c", "d")]))
        assert len(ls) == 2

    def test_equality(self):
        assert LinkSet([("a", "b")]) == LinkSet([("b", "a")])

    def test_copy_is_independent(self):
        ls = LinkSet([("a", "b")])
        clone = ls.copy()
        clone.add("x", "y")
        assert len(ls) == 1

    def test_entities(self):
        assert LinkSet([("a", "b")]).entities() == {"a", "b"}
