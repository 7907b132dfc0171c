"""Unit tests for the planner statistics (§7.2.1)."""

import random

import pytest

from repro.core.engine import QueryEREngine
from repro.core.indices import TableIndex
from repro.core.statistics import (
    ComparisonEstimator,
    TableStatistics,
    join_percentage,
    sample_rows,
)
from repro.er.matching import ProfileMatcher
from repro.sql.parser import parse
from repro.storage.schema import Column, ColumnType, Schema
from repro.storage.table import Table


def table():
    return Table(
        "T",
        Schema.of("id", "kind", "name"),
        [
            ("t1", "alpha", "john smith"),
            ("t2", "alpha", "john smith"),
            ("t3", "alpha", "mary brown"),
            ("t4", "bravo", "kate jones"),
            ("t5", "bravo", "kate jones"),
            ("t6", "charlie", "solo person"),
        ],
    )


def where(sql_condition: str):
    return parse(f"SELECT id FROM T WHERE {sql_condition}").where


@pytest.fixture
def estimator():
    return ComparisonEstimator(TableIndex(table()))


class TestSelectedEntities:
    def test_literal_maps_to_block_members(self, estimator):
        assert estimator.selected_entities(where("kind = 'alpha'")) == {"t1", "t2", "t3"}

    def test_and_intersects(self, estimator):
        selected = estimator.selected_entities(where("kind = 'alpha' AND name = 'john smith'"))
        assert selected == {"t1", "t2"}

    def test_or_unions(self, estimator):
        selected = estimator.selected_entities(where("kind = 'alpha' OR kind = 'bravo'"))
        assert selected == {"t1", "t2", "t3", "t4", "t5"}

    def test_in_list_unions_members(self, estimator):
        selected = estimator.selected_entities(where("kind IN ('alpha', 'charlie')"))
        assert selected == {"t1", "t2", "t3", "t6"}

    def test_non_literal_condition_falls_back_to_all(self, estimator):
        assert estimator.selected_entities(where("MOD(id, 10) < 1")) == set(table().ids)

    def test_no_where_means_whole_table(self, estimator):
        assert estimator.selected_entities(None) == set(table().ids)

    def test_multi_token_literal_intersects_tokens(self, estimator):
        selected = estimator.selected_entities(where("name = 'john smith'"))
        assert selected == {"t1", "t2"}

    def test_unknown_literal_selects_nothing(self, estimator):
        assert estimator.selected_entities(where("kind = 'zzznope'")) == set()


class TestComparisonEstimate:
    def test_estimate_zero_for_empty_selection(self, estimator):
        assert estimator.estimate(where("kind = 'zzznope'")) == 0

    def test_more_selective_query_estimates_fewer_comparisons(self, estimator):
        narrow = estimator.estimate(where("kind = 'charlie'"))
        wide = estimator.estimate(None)
        assert narrow <= wide

    def test_estimate_nonnegative(self, estimator):
        assert estimator.estimate(where("kind = 'alpha'")) >= 0

    def test_resolved_entities_reduce_estimate(self):
        index = TableIndex(table())
        estimator = ComparisonEstimator(index)
        before = estimator.estimate(where("kind = 'alpha'"))
        index.link_index.mark_resolved(["t1", "t2", "t3"])
        after = estimator.estimate(where("kind = 'alpha'"))
        assert after <= before
        assert after == 0


class TestTableStatistics:
    def test_duplication_factor_detects_duplicates(self):
        index = TableIndex(table())
        stats = TableStatistics(index, ProfileMatcher(exclude=("id",)), sample_fraction=1.0)
        assert stats.duplication_factor > 0

    def test_estimated_dr_size_scales(self):
        index = TableIndex(table())
        stats = TableStatistics(index, ProfileMatcher(exclude=("id",)), sample_fraction=1.0)
        assert stats.estimated_dr_size(100) >= 100

    def test_clean_sample_has_zero_factor(self):
        clean = Table("C", Schema.of("id", "v"), [("1", "aa bb"), ("2", "zz qq")])
        stats = TableStatistics(TableIndex(clean), ProfileMatcher(exclude=("id",)), sample_fraction=1.0)
        assert stats.duplication_factor == 0.0


class TestJoinPercentage:
    def test_full_overlap(self):
        left = TableIndex(Table("L", Schema.of("id", "k"), [("l1", "x"), ("l2", "y")]))
        right = TableIndex(Table("R", Schema.of("id", "k"), [("r1", "x"), ("r2", "y")]))
        assert join_percentage(left, right, "k", "k") == (1.0, 1.0)

    def test_partial_overlap(self):
        left = TableIndex(Table("L", Schema.of("id", "k"), [("l1", "x"), ("l2", "zz")]))
        right = TableIndex(Table("R", Schema.of("id", "k"), [("r1", "x")]))
        lp, rp = join_percentage(left, right, "k", "k")
        assert lp == pytest.approx(0.5)
        assert rp == pytest.approx(1.0)

    def test_case_folding(self):
        left = TableIndex(Table("L", Schema.of("id", "k"), [("l1", "EDBT")]))
        right = TableIndex(Table("R", Schema.of("id", "k"), [("r1", "edbt")]))
        assert join_percentage(left, right, "k", "k") == (1.0, 1.0)

    def test_nulls_never_join(self):
        left = TableIndex(Table("L", Schema.of("id", "k"), [("l1", None)]))
        right = TableIndex(Table("R", Schema.of("id", "k"), [("r1", "x")]))
        lp, rp = join_percentage(left, right, "k", "k")
        assert lp == 0.0 and rp == 0.0

    def test_int_and_mixed_type_join_columns(self):
        """Only strings are case-folded: an int joins an equal float, never its digit string."""

        def typed(name, column_type, values):
            schema = Schema([Column("id", ColumnType.INTEGER), Column("k", column_type)])
            return TableIndex(Table(name, schema, list(enumerate(values))))

        ints = typed("L", ColumnType.INTEGER, [7, 7, 8, None])
        assert join_percentage(ints, typed("R", ColumnType.INTEGER, [7, 9]), "k", "k") == (0.5, 0.5)
        text = typed("S", ColumnType.STRING, ["7", "EDBT"])
        assert join_percentage(ints, text, "k", "k") == (0.0, 0.0)
        floats = typed("F", ColumnType.FLOAT, [7.0, 8.5])
        assert join_percentage(ints, floats, "k", "k") == (0.5, 0.5)


class TestLargeTableSample:
    """More rows picked than ``max_sample`` (5% of a table over 4 000 rows)."""

    def test_sample_reaches_the_tail_and_follows_appends(self):
        rng = random.Random(3)

        def word():
            return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(8))

        schema = Schema([Column("id", ColumnType.INTEGER), Column("a"), Column("b")])
        rows = [(i, word(), word()) for i in range(6000)]
        engine = QueryEREngine()
        engine.register(Table("BIG", schema, rows))
        sampled = [row.id for row in sample_rows(engine.index_of("BIG").table)]
        assert len(sampled) == 200
        assert max(sampled) >= 4000  # not just the first 200 picks of a prefix
        before = engine.statistics_of("BIG")
        source = rows[sampled[0]]
        engine.insert("BIG", [(10_000 + k,) + source[1:] for k in range(1000)])
        after = engine.statistics_of("BIG")
        assert after.sample_size == 200
        assert after.sample_duplicates > before.sample_duplicates


class TestLazyRegistration:
    def test_register_builds_no_statistics_and_never_matches(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("registration must not sample or match")

        monkeypatch.setattr(TableStatistics, "__init__", forbidden)
        for method in ("match_pair_indices", "resolve_pending"):
            monkeypatch.setattr(ProfileMatcher, method, forbidden)
        engine = QueryEREngine()
        engine.register(table())
        engine.register(table(), replace=True)
        assert len(engine.plan_cache) == 0
        monkeypatch.undo()
        statistics = engine.statistics_of("T")
        assert statistics.base_rows == len(table())
        assert len(engine.plan_cache) == 1
        assert engine.statistics_of("T") is statistics
