"""Unit tests for DedupResult, value merging and Group-Entities."""

from repro.core.group_entities import group_single
from repro.core.result import DedupResult, GROUP_SEPARATOR, merge_values
from repro.er.linkset import LinkSet
from repro.storage.schema import Schema
from repro.storage.table import Table


def table():
    return Table(
        "T",
        Schema.of("id", "title", "year"),
        [
            ("a", "Entity Resolution", "2008"),
            ("b", "E.R.", "2008"),
            ("c", "Other Paper", None),
            ("d", "Other Paper", "2010"),
        ],
    )


class TestMergeValues:
    def test_single_value(self):
        assert merge_values(["x"]) == "x"

    def test_identical_values_collapse(self):
        assert merge_values(["x", "x"]) == "x"

    def test_distinct_values_concatenated_sorted(self):
        assert merge_values(["b", "a"]) == "a" + GROUP_SEPARATOR + "b"

    def test_nulls_replaced_by_existing(self):
        assert merge_values([None, "x", None]) == "x"

    def test_all_null_stays_null(self):
        assert merge_values([None, None]) is None

    def test_deterministic_under_reordering(self):
        assert merge_values(["x", "y"]) == merge_values(["y", "x"])


class TestDedupResult:
    def test_entity_ids_union(self):
        dr = DedupResult(table(), ["a"], ["b"], LinkSet([("a", "b")]))
        assert dr.entity_ids == {"a", "b"}

    def test_duplicates_never_overlap_query_ids(self):
        dr = DedupResult(table(), ["a", "b"], ["b"], LinkSet())
        assert dr.duplicate_ids == set()

    def test_rows_in_table_order(self):
        dr = DedupResult(table(), ["b", "a"])
        assert [r.id for r in dr.rows()] == ["a", "b"]

    def test_clusters_include_singletons(self):
        dr = DedupResult(table(), ["a", "c"], ["b"], LinkSet([("a", "b")]))
        clusters = dr.clusters()
        assert {"a", "b"} in clusters and {"c"} in clusters

    def test_links_outside_result_ignored_in_clusters(self):
        dr = DedupResult(table(), ["a"], [], LinkSet([("c", "d")]))
        assert dr.clusters() == [{"a"}]

    def test_joined_component_is_one_cluster_without_pairs(self):
        links = LinkSet()
        links.join({"a", "b"})
        dr = DedupResult(table(), ["a"], ["b"], links)
        assert dr.clusters() == [{"a", "b"}]
        assert len(dr.links) == 0

    def test_joined_members_outside_result_are_not_listed(self):
        links = LinkSet()
        links.join({"a", "b", "z"})
        dr = DedupResult(table(), ["a", "b", "c"], [], links)
        assert dr.clusters() == [{"a", "b"}, {"c"}]

    def test_pairs_and_joined_components_merge(self):
        links = LinkSet([("b", "c")])
        links.join({"a", "b"})
        dr = DedupResult(table(), ["a", "d"], ["b", "c"], links)
        assert dr.clusters() == [{"a", "b", "c"}, {"d"}]
        assert set(dr.links) == {("b", "c")}


class TestGroupSingle:
    """The executor's Group-Entities over one DR_E (columns id, title, year)."""

    def test_one_row_per_cluster(self):
        dr = DedupResult(table(), ["a", "c"], ["b"], LinkSet([("a", "b")]))
        groups = group_single(dr)
        assert len(groups) == 2

    def test_grouped_values(self):
        dr = DedupResult(table(), ["a"], ["b"], LinkSet([("a", "b")]))
        (group,) = group_single(dr)
        assert GROUP_SEPARATOR in group[1]
        assert group[2] == "2008"

    def test_fuses_values(self):
        dr = DedupResult(table(), ["a", "b"], [], LinkSet([("a", "b")]))
        (group,) = group_single(dr)
        assert group == ("a | b", "E.R." + GROUP_SEPARATOR + "Entity Resolution", "2008")

    def test_null_filled_from_member(self):
        dr = DedupResult(table(), ["c"], ["d"], LinkSet([("c", "d")]))
        (group,) = group_single(dr)
        assert group[2] == "2010"

    def test_clusters_in_representative_order(self):
        dr = DedupResult(table(), ["d", "b", "c", "a"], [], LinkSet([("d", "c")]))
        assert [group[0] for group in group_single(dr)] == ["a", "b", "c | d"]

    def test_singleton_passes_row_through(self):
        dr = DedupResult(table(), ["c"])
        (group,) = group_single(dr)
        assert group == table().by_id("c").values


class TestRepresentative:
    def test_representative_is_canonical(self):
        links = LinkSet([("b", "a"), ("b", "c")])
        assert links.representative("c") == links.representative("a") == "a"
        assert links.representative("x") == "x"

    def test_unknown_entity_maps_to_itself(self):
        assert LinkSet().representative("q") == "q"
