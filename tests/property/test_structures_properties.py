"""Property-based tests for union-find, linksets and value merging."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.result import merge_values
from repro.er.clustering import UnionFind, connected_components
from repro.er.linkset import LinkSet, canonical_pair

elements = st.integers(min_value=0, max_value=30)
pairs = st.lists(st.tuples(elements, elements), max_size=40)


class TestUnionFindProperties:
    @given(pairs)
    def test_groups_partition_the_universe(self, edge_list):
        uf = UnionFind()
        for a, b in edge_list:
            uf.union(a, b)
        groups = uf.groups()
        seen = [e for group in groups for e in group]
        assert len(seen) == len(set(seen)) == len(uf)

    @given(pairs)
    def test_connectivity_matches_graph_reachability(self, edge_list):
        uf = UnionFind()
        for a, b in edge_list:
            uf.union(a, b)
        # BFS reachability over the same edges must agree with find().
        adjacency = {}
        for a, b in edge_list:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        for start in adjacency:
            frontier, seen = [start], {start}
            while frontier:
                node = frontier.pop()
                for neighbour in adjacency.get(node, ()):
                    if neighbour not in seen:
                        seen.add(neighbour)
                        frontier.append(neighbour)
            for other in seen:
                assert uf.connected(start, other)

    @given(pairs)
    def test_union_order_does_not_change_groups(self, edge_list):
        forward = UnionFind()
        for a, b in edge_list:
            forward.union(a, b)
        backward = UnionFind()
        for a, b in reversed(edge_list):
            backward.union(b, a)
        normalize = lambda groups: sorted(tuple(sorted(g)) for g in groups)
        assert normalize(forward.groups()) == normalize(backward.groups())

    @given(pairs, st.lists(elements, max_size=10))
    def test_connected_components_include_isolated_nodes(self, edge_list, isolated):
        comps = connected_components(edge_list, nodes=isolated)
        covered = set().union(*comps) if comps else set()
        assert set(isolated) <= covered


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
