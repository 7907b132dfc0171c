"""Property-based tests for linksets and value merging."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.result import merge_values
from repro.er.linkset import LinkSet, canonical_pair

elements = st.integers(min_value=0, max_value=30)
pairs = st.lists(st.tuples(elements, elements), max_size=40)


class TestLinkSetProperties:
    @given(pairs)
    def test_pair_membership_is_symmetric(self, edge_list):
        links = LinkSet(p for p in edge_list if p[0] != p[1])
        for a, b in links:
            assert (b, a) in links
            assert b in links.cluster_of(a) and a in links.cluster_of(b)

    @given(pairs)
    def test_cluster_of_is_idempotent(self, edge_list):
        links = LinkSet(p for p in edge_list if p[0] != p[1])
        for entity in list(links.entities())[:5]:
            cluster = links.cluster_of(entity)
            for member in cluster:
                assert links.cluster_of(member) == cluster

    @given(pairs)
    def test_length_counts_canonical_pairs(self, edge_list):
        valid = [p for p in edge_list if p[0] != p[1]]
        links = LinkSet(valid)
        assert len(links) == len({canonical_pair(*p) for p in valid})


    @given(pairs)
    def test_clusters_partition_the_linked_entities(self, edge_list):
        links = LinkSet(p for p in edge_list if p[0] != p[1])
        members = [e for cluster in links.clusters() for e in cluster]
        assert len(members) == len(set(members))
        assert set(members) == links.entities()
        assert all(len(cluster) >= 2 for cluster in links.clusters())

    @given(pairs)
    def test_add_order_does_not_change_clusters(self, edge_list):
        forward = LinkSet()
        for a, b in edge_list:
            forward.add(a, b)
        backward = LinkSet()
        for a, b in reversed(edge_list):
            backward.add(b, a)
        assert forward == backward
        assert forward.clusters() == backward.clusters()
        for entity in forward.entities():
            assert forward.representative(entity) == backward.representative(entity)

    @given(st.lists(st.sets(elements, max_size=6), max_size=8))
    def test_join_order_does_not_change_clusters(self, groups):
        forward, backward = LinkSet(), LinkSet()
        for group in groups:
            forward.join(group)
        for group in reversed(groups):
            backward.join(group)
        assert forward.clusters() == backward.clusters()
        assert len(forward) == len(backward) == 0


class TestMergeValuesProperties:
    values = st.lists(st.one_of(st.none(), st.text(max_size=8)), max_size=8)

    @given(values)
    def test_order_invariance(self, vals):
        assert merge_values(vals) == merge_values(list(reversed(vals)))

    @given(values)
    def test_idempotence_on_duplicated_input(self, vals):
        assert merge_values(vals) == merge_values(vals + vals)

    @given(values)
    def test_null_only_when_all_null(self, vals):
        result = merge_values(vals)
        has_value = any(v is not None for v in vals)
        assert (result is None) == (not has_value)

    @given(st.text(min_size=1, max_size=8))
    def test_singleton_unchanged(self, value):
        assert merge_values([value]) == value
