"""Unit tests for the aggregation extension (paper §10 future work)."""

import pytest

from repro.core.engine import QueryEREngine
from repro.sql import ast
from repro.sql.aggregates import (
    Avg,
    CountAll,
    CountValues,
    Extreme,
    Sum,
    aggregate_argument,
    contains_aggregate,
    is_aggregate_call,
    make_accumulator,
    numeric_value,
    run_aggregation,
)
from repro.sql.parser import ParseError, parse
from repro.sql.planner import PlanningError, RelationalPlanner
from repro.sql.executor import execute_plan
from repro.storage.catalog import Catalog
from repro.storage.schema import Column, ColumnType, Schema
from repro.storage.table import Table


@pytest.fixture
def engine():
    table = Table(
        "T",
        Schema(
            [Column("id", ColumnType.INTEGER), Column("kind"), Column("score", ColumnType.FLOAT)]
        ),
        [(1, "a", 10.0), (2, "a", 20.0), (3, "b", 30.0), (4, "b", None), (5, None, 50.0)],
    )
    e = QueryEREngine()
    e.register(table)
    return e


class TestParsing:
    def test_count_star(self):
        q = parse("SELECT COUNT(*) FROM t")
        assert isinstance(q.items[0].expr, ast.FunctionCall)
        assert isinstance(q.items[0].expr.args[0], ast.Star)

    def test_group_by(self):
        q = parse("SELECT kind, COUNT(*) FROM t GROUP BY kind")
        assert len(q.group_by) == 1

    def test_group_by_multiple_keys(self):
        q = parse("SELECT a, b, SUM(c) FROM t GROUP BY a, b")
        assert len(q.group_by) == 2

    def test_group_by_prints_and_reparses(self):
        sql = "SELECT kind, COUNT(*) AS n FROM t GROUP BY kind"
        q = parse(sql)
        assert parse(str(q)) == q


class TestHelpers:
    def test_is_aggregate_call(self):
        q = parse("SELECT COUNT(*), LOWER(x) FROM t")
        assert is_aggregate_call(q.items[0].expr)
        assert not is_aggregate_call(q.items[1].expr)

    def test_contains_aggregate_nested(self):
        q = parse("SELECT x FROM t WHERE COUNT(y) + 1 > 2")
        assert contains_aggregate(q.where)

    def test_aggregate_argument_star_only_for_count(self):
        with pytest.raises(ValueError):
            aggregate_argument(ast.FunctionCall("SUM", (ast.Star(),)))

    def test_numeric_value_plain(self):
        assert numeric_value(5) == 5.0
        assert numeric_value("2.5") == 2.5
        assert numeric_value(None) is None
        assert numeric_value("abc") is None

    def test_numeric_value_fused_averages_components(self):
        assert numeric_value("10 | 20") == 15.0

    def test_numeric_value_fused_with_junk(self):
        assert numeric_value("10 | n/a") == 10.0


class TestAccumulators:
    def test_count_all(self):
        acc = CountAll()
        for v in (1, None, "x"):
            acc.add(v)
        assert acc.result() == 3

    def test_count_values_skips_null(self):
        acc = CountValues()
        for v in (1, None, "x"):
            acc.add(v)
        assert acc.result() == 2

    def test_sum(self):
        acc = Sum()
        for v in (1, 2, None, "junk"):
            acc.add(v)
        assert acc.result() == 3.0

    def test_sum_of_nothing_is_null(self):
        assert Sum().result() is None

    def test_avg(self):
        acc = Avg()
        for v in (10, 20):
            acc.add(v)
        assert acc.result() == 15.0

    def test_min_max_numeric(self):
        low, high = Extreme(False), Extreme(True)
        for v in (3, 1, 2):
            low.add(v)
            high.add(v)
        assert low.result() == 1.0
        assert high.result() == 3.0

    def test_min_lexicographic_fallback(self):
        acc = Extreme(False)
        for v in ("banana", "apple"):
            acc.add(v)
        assert acc.result() == "apple"

    def test_make_accumulator_rejects_non_aggregate(self):
        with pytest.raises(ValueError):
            make_accumulator(ast.FunctionCall("LOWER", (ast.ColumnRef("x"),)))


class TestRelationalAggregation:
    def test_global_count(self, engine):
        result = engine.execute("SELECT COUNT(*) AS n FROM T")
        assert result.rows == [(5,)]

    def test_count_column_skips_nulls(self, engine):
        result = engine.execute("SELECT COUNT(score) AS n FROM T")
        assert result.rows == [(4,)]

    def test_group_by_with_avg(self, engine):
        result = engine.execute(
            "SELECT kind, COUNT(*) AS n, AVG(score) AS mean FROM T GROUP BY kind"
        )
        data = {row[0]: row[1:] for row in result.rows}
        assert data["a"] == (2, 15.0)
        assert data["b"] == (2, 30.0)
        assert data[None][0] == 1

    def test_aggregate_over_empty_input(self, engine):
        result = engine.execute("SELECT COUNT(*) AS n, SUM(score) s FROM T WHERE id > 99")
        assert result.rows == [(0, None)]

    def test_group_key_must_be_grouped(self, engine):
        with pytest.raises(PlanningError):
            engine.execute("SELECT kind, score FROM T GROUP BY kind")

    def test_star_with_aggregation_rejected(self, engine):
        with pytest.raises(PlanningError):
            engine.execute("SELECT *, COUNT(*) FROM T GROUP BY kind")

    def test_aggregation_after_join(self, engine):
        other = Table("U", Schema.of("id", "kind"), [("u1", "a"), ("u2", "b")])
        engine.register(other)
        result = engine.execute(
            "SELECT U.kind, COUNT(*) AS n FROM T JOIN U ON T.kind = U.kind GROUP BY U.kind"
        )
        data = dict(result.rows)
        assert data == {"a": 2, "b": 2}

    def test_order_by_on_aggregate_output(self, engine):
        result = engine.execute(
            "SELECT kind, COUNT(*) AS n FROM T WHERE kind IS NOT NULL GROUP BY kind ORDER BY kind DESC"
        )
        assert [row[0] for row in result.rows] == ["b", "a"]


class TestDedupAggregation:
    @pytest.fixture
    def dirty_engine(self):
        table = Table(
            "D",
            Schema.of("id", "name", "kind", "score"),
            [
                ("d1", "john smith", "a", "10"),
                ("d2", "john smyth", "a", "20"),
                ("d3", "mary brown", "b", "30"),
                ("d4", "kate jones", "b", "40"),
            ],
        )
        e = QueryEREngine()
        e.register(table)
        return e

    def test_dedup_count_counts_entities(self, dirty_engine):
        plain = dirty_engine.execute("SELECT COUNT(*) AS n FROM D")
        dedup = dirty_engine.execute("SELECT DEDUP COUNT(*) AS n FROM D")
        assert plain.rows == [(4,)]
        assert dedup.rows == [(3,)]  # john smith ≡ john smyth

    def test_dedup_group_by(self, dirty_engine):
        result = dirty_engine.execute(
            "SELECT DEDUP kind, COUNT(*) AS n FROM D GROUP BY kind"
        )
        assert dict(result.rows) == {"a": 1, "b": 2}

    def test_dedup_avg_over_fused_values(self, dirty_engine):
        result = dirty_engine.execute("SELECT DEDUP AVG(score) AS mean FROM D")
        # Clusters: {10|20} → 15, {30} and {40} → mean of (15, 30, 40).
        assert result.rows[0][0] == pytest.approx((15 + 30 + 40) / 3)

    def test_dedup_group_key_validation(self, dirty_engine):
        from repro.core.planner import DedupPlanningError

        with pytest.raises(DedupPlanningError):
            dirty_engine.execute("SELECT DEDUP name, COUNT(*) FROM D GROUP BY kind")
