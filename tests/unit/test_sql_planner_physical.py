"""Unit tests for the relational planner and volcano operators: the
planner builds the operator tree that runs, with no intermediate plan."""

import pytest

from repro.sql.executor import execute_plan
from repro.sql.parser import parse
from repro.sql.physical import (
    ExecutionContext,
    FilterOp,
    HashJoinOp,
    ProjectOp,
    TableScanOp,
)
from repro.sql.planner import PlanningError, RelationalPlanner
from repro.storage.catalog import Catalog
from repro.storage.schema import Column, ColumnType, Schema
from repro.storage.table import Table


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.register(
        Table(
            "emp",
            Schema([Column("id", ColumnType.INTEGER), Column("name"), Column("dept")]),
            [(1, "ann", "d1"), (2, "bob", "d2"), (3, "cyd", "d1"), (4, "dee", None)],
        )
    )
    cat.register(
        Table(
            "dept",
            Schema.of("id", "label"),
            [("d1", "engineering"), ("d2", "sales")],
        )
    )
    return cat


@pytest.fixture
def planner(catalog):
    return RelationalPlanner(catalog)


def run(planner, sql):
    return execute_plan(planner.plan(parse(sql)))


class TestPlanning:
    def test_filter_pushed_below_join(self, planner):
        plan = planner.plan(
            parse("SELECT name FROM emp JOIN dept ON emp.dept = dept.id WHERE emp.name = 'ann'")
        )
        join = plan.child  # Project → HashJoin
        assert isinstance(join, HashJoinOp)
        assert isinstance(join.left, TableScanOp)
        assert join.left.where is not None  # the mask rides on the scan
        assert join.right.where is None

    def test_cross_table_conjunct_stays_above_join(self, planner):
        plan = planner.plan(
            parse(
                "SELECT name FROM emp JOIN dept ON emp.dept = dept.id "
                "WHERE emp.name = dept.label"
            )
        )
        assert isinstance(plan.child, FilterOp)  # residual above join
        assert isinstance(plan.child.child, HashJoinOp)

    def test_duplicate_binding_rejected(self, planner):
        with pytest.raises(PlanningError):
            planner.plan(parse("SELECT a FROM emp JOIN emp ON emp.id = emp.id"))

    def test_unknown_alias_in_where_rejected(self, planner):
        with pytest.raises(PlanningError):
            planner.plan(parse("SELECT name FROM emp WHERE zz.name = 'x'"))

    def test_ambiguous_unqualified_column_rejected(self, planner):
        with pytest.raises(PlanningError):
            planner.plan(
                parse("SELECT name FROM emp JOIN dept ON emp.dept = dept.id WHERE id = 1")
            )

    def test_star_expansion(self, planner):
        plan = planner.plan(parse("SELECT * FROM emp"))
        assert isinstance(plan, ProjectOp)
        assert [f.name for f in plan.schema] == ["id", "name", "dept"]

    def test_qualified_star_unknown_alias_rejected(self, planner):
        with pytest.raises(PlanningError):
            planner.plan(parse("SELECT zz.* FROM emp"))

    def test_pretty_renders_tree(self, planner):
        plan = planner.plan(parse("SELECT name FROM emp WHERE id = 1"))
        assert plan.pretty().splitlines() == [
            "Project[name]",
            "  Filter[(id = 1)]",
            "    TableScan[emp AS emp]",
        ]


class TestExecution:
    def test_scan_project(self, planner):
        result = run(planner, "SELECT name FROM emp")
        assert result.column("name") == ["ann", "bob", "cyd", "dee"]

    def test_filter(self, planner):
        result = run(planner, "SELECT id FROM emp WHERE dept = 'd1'")
        assert result.column("id") == [1, 3]

    def test_hash_join(self, planner):
        result = run(
            planner,
            "SELECT emp.name, dept.label FROM emp JOIN dept ON emp.dept = dept.id",
        )
        assert sorted(result.rows) == [
            ("ann", "engineering"),
            ("bob", "sales"),
            ("cyd", "engineering"),
        ]

    def test_join_skips_null_keys(self, planner):
        result = run(
            planner, "SELECT emp.name FROM emp JOIN dept ON emp.dept = dept.id"
        )
        assert "dee" not in result.column("name")

    def test_join_is_case_insensitive_on_strings(self, planner, catalog):
        catalog.register(
            Table("updept", Schema.of("id", "label"), [("D1", "X")]), replace=False
        )
        result = run(
            planner, "SELECT emp.name FROM emp JOIN updept ON emp.dept = updept.id"
        )
        assert result.column("name") == ["ann", "cyd"]

    def test_order_by_desc(self, planner):
        result = run(planner, "SELECT name FROM emp ORDER BY name DESC")
        assert result.column("name") == ["dee", "cyd", "bob", "ann"]

    def test_order_by_nulls_first_ascending(self, planner):
        result = run(planner, "SELECT dept FROM emp ORDER BY dept")
        assert result.column("dept")[0] is None

    def test_limit(self, planner):
        assert len(run(planner, "SELECT id FROM emp LIMIT 2")) == 2

    def test_limit_zero(self, planner):
        assert len(run(planner, "SELECT id FROM emp LIMIT 0")) == 0

    def test_distinct(self, planner):
        result = run(planner, "SELECT DISTINCT dept FROM emp WHERE dept IS NOT NULL")
        assert sorted(result.rows) == [("d1",), ("d2",)]

    def test_expression_projection(self, planner):
        result = run(planner, "SELECT id * 2 AS double FROM emp WHERE id = 2")
        assert result.rows == [(4,)]

    def test_as_dicts(self, planner):
        result = run(planner, "SELECT id, name FROM emp LIMIT 1")
        assert result.as_dicts() == [{"id": 1, "name": "ann"}]

    def test_unknown_output_column_raises(self, planner):
        result = run(planner, "SELECT id FROM emp")
        with pytest.raises(KeyError):
            result.column("nope")


class TestOperators:
    def test_nested_loop_join_for_non_equi(self, planner):
        plan = planner.plan(parse("SELECT emp.name FROM emp JOIN dept ON emp.id > dept.label"))
        assert "NestedLoopJoin[(emp.id > dept.label)]" in plan.pretty()

    def test_equi_join_keys_oriented_by_binding(self, planner):
        """A condition naming the joined table first still hashes on the
        right columns of each side."""
        result = run(
            planner,
            "SELECT emp.name, dept.label FROM emp JOIN dept ON dept.id = emp.dept",
        )
        assert sorted(result.rows) == [
            ("ann", "engineering"),
            ("bob", "sales"),
            ("cyd", "engineering"),
        ]

    def test_a_tree_runs_twice_to_the_same_rows(self, planner):
        """Operators keep their per-run state local: a cached tree reruns."""
        plan = planner.plan(
            parse(
                "SELECT DISTINCT dept.label FROM emp JOIN dept ON emp.dept = dept.id "
                "ORDER BY label LIMIT 5"
            )
        )
        first = execute_plan(plan).rows
        assert first == [("engineering",), ("sales",)]
        assert execute_plan(plan).rows == first

    def test_execution_context_timers(self):
        context = ExecutionContext()
        with context.timed("stage"):
            pass
        assert "stage" in context.stage_times

    def test_context_accumulates(self):
        context = ExecutionContext()
        context.add_time("s", 1.0)
        context.add_time("s", 0.5)
        assert context.stage_times["s"] == 1.5
