"""Unit tests for the engine facade and dedupe-query planner."""

import pytest

from repro.core.engine import QueryEREngine
from repro.core.planner import DedupPlanningError, DedupQueryPlanner, ExecutionMode
from repro.sql.parser import parse
from repro.storage.schema import Schema
from repro.storage.table import Table


def left_table():
    return Table(
        "L",
        Schema.of("id", "name", "kind", "ref"),
        [
            ("l1", "john smith", "alpha", "k1"),
            ("l2", "john smyth", "alpha", "k1"),
            ("l3", "mary brown", "bravo", "k2"),
            ("l4", "kate jones", "bravo", "k3"),
        ],
    )


def right_table():
    return Table(
        "R",
        Schema.of("id", "key", "label"),
        [("r1", "k1", "first"), ("r2", "k2", "second"), ("r3", "k9", "unjoined")],
    )


@pytest.fixture
def engine():
    e = QueryEREngine()
    e.register(left_table())
    e.register(right_table())
    return e


class TestEngineBasics:
    def test_non_dedup_query_uses_relational_path(self, engine):
        result = engine.execute("SELECT name FROM L WHERE kind = 'alpha'")
        assert sorted(result.column("name")) == ["john smith", "john smyth"]
        assert result.comparisons == 0

    def test_dedup_query_counts_comparisons(self, engine):
        result = engine.execute("SELECT DEDUP id, name FROM L WHERE kind = 'alpha'")
        assert result.comparisons > 0

    def test_dedup_groups_duplicates(self, engine):
        result = engine.execute("SELECT DEDUP name FROM L WHERE name = 'john smith'")
        assert len(result) == 1
        assert "john smith" in result.rows[0][0]
        assert "john smyth" in result.rows[0][0]

    def test_register_duplicate_name_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.register(left_table())

    def test_index_of_unknown_table(self, engine):
        with pytest.raises(KeyError):
            engine.index_of("nope")

    def test_mode_accepts_strings(self, engine):
        result = engine.execute("SELECT DEDUP id FROM L", "nes")
        assert len(result) >= 1

    def test_reset_link_indexes(self, engine):
        engine.execute("SELECT DEDUP id FROM L")
        assert engine.index_of("L").link_index.resolved_count > 0
        engine.reset_link_indexes()
        assert engine.index_of("L").link_index.resolved_count == 0

    def test_plan_cached_until_the_epoch_moves(self, engine):
        sql = "SELECT DEDUP L.name, R.label FROM L JOIN R ON L.ref = R.key"
        plan = engine.plan_for(sql)
        assert engine.plan_for(sql) is plan
        assert engine.plan_cache.snapshot()["size"] == 1


class TestExplainAndPlan:
    def test_explain_relational(self, engine):
        text = engine.explain("SELECT name FROM L")
        assert "TableScan" in text

    def test_explain_dedup_sp(self, engine):
        text = engine.explain("SELECT DEDUP name FROM L WHERE kind = 'alpha'")
        assert "Deduplicate" in text and "GroupEntities" in text

    def test_explain_dedup_join_shows_dirty_side(self, engine):
        text = engine.explain(
            "SELECT DEDUP L.name, R.label FROM L JOIN R ON L.ref = R.key"
        )
        assert "Join" in text

    def test_plan_for_estimates_both_branches(self, engine):
        plan = engine.plan_for(
            "SELECT DEDUP L.name, R.label FROM L JOIN R ON L.ref = R.key WHERE L.kind = 'alpha'"
        )
        assert set(plan.estimates) == {"L", "R"}
        assert plan.clean_first in ("L", "R")

    def test_plan_for_requires_dedup(self, engine):
        with pytest.raises(ValueError):
            engine.plan_for("SELECT name FROM L")

    def test_batch_mode_plan_description(self, engine):
        text = engine.explain("SELECT DEDUP name FROM L", ExecutionMode.BATCH)
        assert "BatchDeduplicate" in text


class TestPlannerAnalysis:
    def test_join_step_extraction(self, engine):
        planner = DedupQueryPlanner(engine)
        query = parse("SELECT DEDUP L.name FROM L JOIN R ON L.ref = R.key")
        _, steps, _ = planner.analyze(query)
        (step,) = steps
        assert (step.left_binding, step.left_column) == ("l", "ref")
        assert (step.right_binding, step.right_column) == ("r", "key")

    def test_join_direction_normalized(self, engine):
        planner = DedupQueryPlanner(engine)
        query = parse("SELECT DEDUP L.name FROM L JOIN R ON R.key = L.ref")
        _, steps, _ = planner.analyze(query)
        assert steps[0].right_binding == "r"

    def test_non_equi_join_rejected(self, engine):
        planner = DedupQueryPlanner(engine)
        query = parse("SELECT DEDUP L.name FROM L JOIN R ON L.ref > R.key")
        with pytest.raises(DedupPlanningError):
            planner.analyze(query)

    def test_residual_conjunct_detected(self, engine):
        planner = DedupQueryPlanner(engine)
        query = parse(
            "SELECT DEDUP L.name FROM L JOIN R ON L.ref = R.key WHERE L.name = R.label"
        )
        _, _, residual = planner.analyze(query)
        assert residual is not None

    def test_per_binding_conditions_split(self, engine):
        planner = DedupQueryPlanner(engine)
        query = parse(
            "SELECT DEDUP L.name FROM L JOIN R ON L.ref = R.key "
            "WHERE L.kind = 'alpha' AND R.label = 'first'"
        )
        infos, _, residual = planner.analyze(query)
        assert residual is None
        assert infos[0].condition is not None
        assert infos[1].condition is not None

    def test_computed_projection_over_grouped_entities(self, engine):
        result = engine.execute("SELECT DEDUP UPPER(name) AS n FROM L WHERE kind = 'alpha'")
        assert result.columns == ["n"]
        assert result.rows == [("JOHN SMITH | JOHN SMYTH",)]

    def test_statement_is_analysed_once(self, engine, monkeypatch):
        """The plan carries the analysis: planning analyses the statement
        once, and a cached re-issue and its EXPLAIN never again."""
        calls = []
        analyze = DedupQueryPlanner.analyze

        def counting(self, query):
            calls.append(query)
            return analyze(self, query)

        monkeypatch.setattr(DedupQueryPlanner, "analyze", counting)
        sql = "SELECT DEDUP L.name, R.label FROM L JOIN R ON L.ref = R.key WHERE L.kind = 'alpha'"
        engine.execute(sql)
        assert len(calls) == 1
        engine.execute(sql)
        engine.execute("EXPLAIN " + sql)
        engine.execute("EXPLAIN ANALYZE " + sql)
        engine.explain(sql)
        assert len(calls) == 1


class TestReadColumns:
    """``DedupQueryPlan.read``: per binding, in join-state order, the
    positions of the columns the relational tail reads (L is id, name,
    kind, ref; R is id, key, label)."""

    def read(self, engine, sql):
        return engine.plan_for(sql).read

    def test_select_list_only_where_columns_not_read(self, engine):
        assert self.read(engine, "SELECT DEDUP name FROM L WHERE kind = 'alpha'") == ((1,),)

    def test_star_reads_every_column(self, engine):
        assert self.read(engine, "SELECT DEDUP * FROM L") == ((0, 1, 2, 3),)

    def test_alias_star_reads_every_column_of_its_binding(self, engine):
        sql = "SELECT DEDUP L.*, R.label FROM L JOIN R ON L.ref = R.key"
        assert self.read(engine, sql) == ((0, 1, 2, 3), (2,))

    def test_star_reads_every_column_of_every_binding(self, engine):
        sql = "SELECT DEDUP * FROM L JOIN R ON L.ref = R.key"
        assert self.read(engine, sql) == ((0, 1, 2, 3), (0, 1, 2))

    def test_aggregate_argument_is_read(self, engine):
        sql = "SELECT DEDUP kind, MIN(name) AS m FROM L GROUP BY kind"
        assert self.read(engine, sql) == ((1, 2),)

    def test_group_key_not_selected_is_read(self, engine):
        sql = "SELECT DEDUP COUNT(*) AS n FROM L GROUP BY ref"
        assert self.read(engine, sql) == ((3,),)

    def test_order_by_alias_adds_nothing(self, engine):
        assert self.read(engine, "SELECT DEDUP name AS n FROM L ORDER BY n") == ((1,),)

    def test_positions_split_per_binding_in_join_order(self, engine):
        forward = "SELECT DEDUP L.name, R.label FROM L JOIN R ON L.ref = R.key"
        backward = "SELECT DEDUP R.label, L.name FROM R JOIN L ON L.ref = R.key"
        assert self.read(engine, forward) == ((1,), (2,))
        assert self.read(engine, backward) == ((2,), (1,))

    def test_binding_read_by_where_only_reads_nothing(self, engine):
        sql = "SELECT DEDUP L.name FROM L JOIN R ON L.ref = R.key WHERE R.label = 'first'"
        assert self.read(engine, sql) == ((1,), ())


class TestModes:
    SQL = "SELECT DEDUP id, name FROM L WHERE kind = 'alpha'"

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_all_modes_return_same_groups(self, mode):
        # Exact DQ ≡ BAQ equality is guaranteed when meta-blocking is off
        # (§6.1 correctness argument assumes the same candidate pairs).
        from repro.er.meta_blocking import MetaBlockingConfig

        engine = QueryEREngine(meta_blocking=MetaBlockingConfig.none())
        engine.register(left_table())
        engine.register(right_table())
        baseline = engine.execute(self.SQL, ExecutionMode.BATCH).sorted_rows()
        engine.reset_link_indexes()
        assert engine.execute(self.SQL, mode).sorted_rows() == baseline

    def test_order_by_and_limit_in_dedup(self, engine):
        result = engine.execute("SELECT DEDUP id, kind FROM L ORDER BY kind DESC LIMIT 1")
        assert len(result) == 1
        assert result.rows[0][1].startswith("bravo")

    def test_dedup_order_by_sorts_numbers_numerically(self):
        from repro.storage.schema import Column, ColumnType, Schema as S

        table = Table(
            "N",
            S([Column("id", ColumnType.INTEGER), Column("v", ColumnType.INTEGER)]),
            [(1, 9), (2, 10), (3, 2)],
        )
        engine = QueryEREngine()
        engine.register(table)
        result = engine.execute("SELECT DEDUP id, v FROM N ORDER BY v")
        assert [row[1] for row in result.rows] == [2, 9, 10]  # not "10" < "2" < "9"


class TestRegisterReplace:
    """Regression: replace=True must purge per-table cached state."""

    JOIN = "SELECT DEDUP L.name, R.key FROM L JOIN R ON L.ref = R.key"

    def test_replace_purges_cached_join_plans(self, engine):
        before = engine.plan_for(self.JOIN)
        replacement = engine.register(
            Table("R", Schema.of("id", "key"), [("r1", "k1"), ("r2", "k3")]),
            replace=True,
        )
        # A stale plan would still read the dead index.
        after = engine.plan_for(self.JOIN)
        assert after is not before
        assert [info.index for info in after.infos] == [engine.index_of("L"), replacement]

    def test_replace_purges_cached_single_table_plans(self):
        engine = QueryEREngine()
        engine.register(left_table())
        before = engine.plan_for("SELECT DEDUP id FROM L")
        replacement = Table("L", Schema.of("id", "name"), [("l1", "solo")])
        engine.register(replacement, replace=True)
        after = engine.plan_for("SELECT DEDUP id FROM L")
        assert after is not before
        assert after.infos[0].index.table is replacement
        assert "{rows=1}" in engine.explain("SELECT DEDUP id FROM L")
