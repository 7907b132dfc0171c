"""Unit tests for linksets."""

from repro.er.linkset import LinkSet, canonical_pair


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

    def test_component_of_unlinked_is_none(self):
        assert LinkSet([("a", "b")]).component("z") is None

    def test_join_of_fewer_than_two_members_records_nothing(self):
        ls = LinkSet()
        ls.join({"a"})
        ls.join(set())
        assert ls.entities() == set() and ls.component("a") is None

    def test_add_after_join_records_only_the_added_pair(self):
        ls = LinkSet()
        ls.join({"a", "b"})
        assert ls.add("b", "c")
        assert set(ls) == {("b", "c")}
        assert ls.cluster_of("a") == {"a", "b", "c"}
