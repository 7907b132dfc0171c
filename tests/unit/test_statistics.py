"""Unit tests for the planner's comparison estimate and join-key folding (§7.2.1)."""

import pytest

from repro.core.engine import QueryEREngine
from repro.core.indices import TableIndex
from repro.core.statistics import ComparisonEstimator, join_value
from repro.er.matching import ProfileMatcher
from repro.sql.parser import parse
from repro.storage.schema import Schema
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


class TestJoinValue:
    """The Deduplicate-Join's key folding: only strings are case-folded."""

    def test_strings_fold_case(self):
        assert join_value("EDBT") == join_value("edbt") == "edbt"

    def test_numbers_join_equal_numbers_never_their_digit_strings(self):
        assert join_value(7) == join_value(7.0)
        assert join_value(7) != join_value("7")
        assert join_value(None) is None


class TestLazyRegistration:
    def test_register_caches_nothing_and_never_matches(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("registration must not match")

        for method in ("match_pair_indices", "resolve_pending"):
            monkeypatch.setattr(ProfileMatcher, method, forbidden)
        engine = QueryEREngine()
        engine.register(table())
        engine.register(table(), replace=True)
        assert len(engine.plan_cache) == 0
        # EXPLAIN plans and estimates without matching a pair either.
        assert f"{{rows={len(table())}}}" in engine.explain("SELECT DEDUP id FROM T")
        assert len(engine.plan_cache) == 1
