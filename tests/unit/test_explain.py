"""Unit tests for the plan cache and EXPLAIN."""

import gc
import re
import weakref

import pytest

from repro.core.engine import PLAN_CACHE_SIZE, QueryEREngine
from repro.core.epoch_cache import EpochCache, epoch_key
from repro.core.planner import DedupQueryPlanner, ExecutionMode
from repro.datagen import generate_organizations, generate_people, generate_projects
from repro.er.meta_blocking import MetaBlockingConfig
from repro.core.statistics import ComparisonEstimator
from repro.sql.parser import parse
from repro.sql.physical import PhysicalOperator
from repro.sql.planner import RelationalPlanner
from repro.storage.schema import Schema
from repro.storage.table import Table


def _three_table_engine(**overrides):
    orgs, _ = generate_organizations(60, seed=51)
    names = [row["name"] for row in orgs]
    people, _ = generate_people(120, organisations=names[:30], seed=52)
    projects, _ = generate_projects(80, organisations=names, seed=53)
    defaults = dict(meta_blocking=MetaBlockingConfig.none())
    defaults.update(overrides)
    engine = QueryEREngine(**defaults)
    for table in (people, orgs, projects):
        engine.register(table)
    return engine


@pytest.fixture(scope="module")
def mb_none_engine():
    return _three_table_engine()


THREE_WAY = (
    "SELECT DEDUP PPL.surname, OAO.name, OAP.title "
    "FROM PPL "
    "JOIN OAO ON PPL.organisation = OAO.name "
    "JOIN OAP ON OAP.organisation = OAO.name "
    "WHERE OAP.programme = 'fp7'"
)
TWO_WAY = (
    "SELECT DEDUP PPL.surname, OAO.name "
    "FROM PPL JOIN OAO ON PPL.organisation = OAO.name "
    "WHERE PPL.state = 'nsw'"
)


# -- removed configuration ---------------------------------------------------


class TestRemovedKnobs:
    """The §7.2.1 planner is the only plan source and the plan cache has a
    fixed size: the keywords that selected between plan sources are gone."""

    @pytest.mark.parametrize(
        "keyword", [{"optimizer": True}, {"optimizer": False}, {"plan_cache_size": 0}]
    )
    def test_engine_refuses_the_keyword(self, keyword):
        with pytest.raises(TypeError):
            QueryEREngine(**keyword)

    def test_plan_cache_has_the_fixed_capacity(self):
        assert QueryEREngine().plan_cache.capacity == PLAN_CACHE_SIZE == 128


# -- plan cache --------------------------------------------------------------


class TestPlanCache:
    def test_key_separates_sql_mode_epochs(self):
        base = epoch_key("select 1", "aes", {"t": 1})
        assert epoch_key("select 1", "aes", {"t": 1}) == base
        assert epoch_key("select 2", "aes", {"t": 1}) != base
        assert epoch_key("select 1", "nes", {"t": 1}) != base
        assert epoch_key("select 1", "aes", {"t": 2}) != base

    def test_lru_eviction_and_stats(self):
        cache = EpochCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes a
        cache.put("c", 3)  # evicts b (least recent)
        assert cache.get("b") is None
        assert cache.get("c") == 3
        snapshot = cache.snapshot()
        assert snapshot["evictions"] == 1
        assert snapshot["hits"] == 2
        assert snapshot["misses"] == 1

    def test_invalidate_counts_dropped_entries(self):
        cache = EpochCache(capacity=8)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.invalidate() == 2
        assert len(cache) == 0
        assert cache.snapshot()["invalidations"] == 2

    def test_zero_capacity_disables(self):
        cache = EpochCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_repeated_query_hits_engine_cache(self, mb_none_engine):
        engine = mb_none_engine
        before = engine.plan_cache.snapshot()["hits"]
        engine.execute(TWO_WAY)
        engine.execute(TWO_WAY)
        assert engine.plan_cache.snapshot()["hits"] > before

    def test_join_issued_twice_plans_once(self, monkeypatch):
        """The second issue of a join reuses the first's plan: the
        planner runs once and the cache scores exactly one hit."""
        engine = _three_table_engine(meta_blocking=MetaBlockingConfig.all())
        calls = []
        plan = DedupQueryPlanner.plan

        def counting(self, query, mode):
            calls.append(str(query))
            return plan(self, query, mode)

        monkeypatch.setattr(DedupQueryPlanner, "plan", counting)
        first = engine.execute(TWO_WAY)
        before = engine.plan_cache.snapshot()
        second = engine.execute(TWO_WAY)
        after = engine.plan_cache.snapshot()
        assert len(calls) == 1
        assert after["hits"] - before["hits"] == 1
        assert after["misses"] == before["misses"]
        assert second.plan_description == first.plan_description

    def test_relational_plans_share_the_cache(self, mb_none_engine):
        sql = "SELECT PPL.surname FROM PPL WHERE PPL.state = 'vic'"
        mb_none_engine.execute(sql)
        before = mb_none_engine.plan_cache.snapshot()["hits"]
        mb_none_engine.execute(sql)
        assert mb_none_engine.plan_cache.snapshot()["hits"] == before + 1

    def test_insert_invalidates_plans(self):
        engine = _three_table_engine()
        engine.execute(TWO_WAY)
        assert len(engine.plan_cache) > 0
        engine.execute(
            "INSERT INTO OAO (id, name) VALUES (90001, 'fresh org ltd')"
        )
        assert len(engine.plan_cache) == 0

    def test_register_invalidates_plans(self):
        engine = _three_table_engine()
        engine.execute(TWO_WAY)
        assert len(engine.plan_cache) > 0
        engine.register(Table("T", Schema.of("id", "x"), [("t1", "a")]))
        assert len(engine.plan_cache) == 0


# -- EXPLAIN annotations ---------------------------------------------------


def _estimator_figures(engine, sql):
    """Per binding: |S_E| and C from the comparison estimator."""
    infos, _, _ = DedupQueryPlanner(engine).analyze(parse(sql))
    figures = {}
    for info in infos:
        estimator = ComparisonEstimator(info.index)
        selected = estimator.selected_entities(info.condition)
        figures[info.binding.lower()] = (len(selected), estimator.estimate_for_entities(selected))
    return figures


class TestExplainAnnotations:
    """EXPLAIN prints what the plan and the comparison estimator know."""

    def test_single_table_annotations(self):
        engine = _three_table_engine()  # an empty Link Index
        sql = "SELECT DEDUP id, surname FROM PPL WHERE state = 'nsw'"
        selected, comparisons = _estimator_figures(engine, sql)["ppl"]
        rows = len(engine.index_of("PPL").table)
        lines = engine.explain(sql).splitlines()
        assert lines[-3:] == [
            f"    Deduplicate {{est comparisons={comparisons}}}",
            f"      Filter[(state = 'nsw')] {{est rows={selected}}}",
            f"        TableScan[PPL AS PPL] {{rows={rows}}}",
        ]
        assert 0 < selected < rows  # the literal bounds S_E
        assert comparisons > 0

    def test_join_prints_the_planners_estimates(self):
        engine = _three_table_engine()
        plan = engine.plan_for(THREE_WAY)
        figures = _estimator_figures(engine, THREE_WAY)
        text = engine.explain(THREE_WAY)
        clean = plan.clean_first
        assert f"Deduplicate {{est comparisons={plan.estimates[clean]}}}" in text
        assert plan.estimates[clean] == figures[clean.lower()][1]
        assert f"Filter[(OAP.programme = 'fp7')] {{est rows={figures['oap'][0]}}}" in text
        dedups = [line for line in text.splitlines() if "Deduplicate" in line]
        assert dedups and all("est rows=" not in line for line in dedups)

    def test_analyze_estimate_sums_every_binding(self):
        engine = _three_table_engine()
        figures = _estimator_figures(engine, THREE_WAY)
        plan = engine.plan_for(THREE_WAY)
        expected = sum(
            plan.estimates.get(binding.upper(), c) for binding, (_, c) in figures.items()
        )
        _, estimated = plan.explain()
        assert estimated == expected


# -- EXPLAIN -----------------------------------------------------------------


class TestExplainStatement:
    def test_explain_dedup_returns_plan_rows(self, mb_none_engine):
        result = mb_none_engine.execute("EXPLAIN " + THREE_WAY)
        assert result.columns == ["plan"]
        text = result.plan_description
        assert text.startswith("-- plan: dedup (mode=aes)")
        assert "TableScan" in text and "Deduplicate" in text
        assert "est comparisons=" in text

    def test_explain_shows_the_planners_clean_first_choice(self, mb_none_engine):
        plan = mb_none_engine.plan_for(THREE_WAY, ExecutionMode.AES)
        text = mb_none_engine.explain(THREE_WAY)
        dirty = "DirtyLeftJoin" if plan.clean_first == "OAO" else "DirtyRightJoin"
        assert f"{dirty}[ppl.organisation = oao.name]" in text

    def test_explain_analyze_reports_estimated_vs_actual(self, mb_none_engine):
        text = mb_none_engine.execute("EXPLAIN ANALYZE " + TWO_WAY).plan_description
        assert "-- analyze --" in text
        assert "rows: actual=" in text and "rows: estimated=" not in text
        assert "comparisons: estimated=" in text
        assert "comparisons: estimated=n/a" not in text
        assert "stage " in text  # per-stage actual timings

    def test_explain_relational_shows_the_operator_tree(self, mb_none_engine):
        text = mb_none_engine.execute(
            "EXPLAIN SELECT PPL.surname, OAO.name FROM PPL "
            "JOIN OAO ON PPL.organisation = OAO.name"
        ).plan_description
        assert text.splitlines() == [
            "-- plan: relational",
            "Project[PPL.surname, OAO.name]",
            "  HashJoin[(PPL.organisation = OAO.name)]",
            "    TableScan[PPL AS PPL]",
            "    TableScan[OAO AS OAO]",
        ]

    def test_explain_insert_describes_without_mutating(self, mb_none_engine):
        epoch = mb_none_engine.epoch_of("OAO")
        result = mb_none_engine.execute(
            "EXPLAIN INSERT INTO OAO (id, name) VALUES (91001, 'probe org')"
        )
        assert result.columns == ["plan"]
        assert mb_none_engine.epoch_of("OAO") == epoch  # nothing written

    def test_explain_analyze_insert_is_refused(self, mb_none_engine):
        with pytest.raises(ValueError):
            mb_none_engine.execute(
                "EXPLAIN ANALYZE INSERT INTO OAO (id, name) VALUES (91002, 'x')"
            )

    def test_explain_method_accepts_explain_prefix(self, mb_none_engine):
        assert mb_none_engine.explain("EXPLAIN " + TWO_WAY) == mb_none_engine.explain(
            TWO_WAY
        )

    def test_plan_for_is_the_first_join_shape(self, mb_none_engine):
        plan = mb_none_engine.plan_for(TWO_WAY, ExecutionMode.AES)
        assert set(plan.estimates) == {"PPL", "OAO"}
        assert plan.clean_first in plan.estimates


# -- one operator tree -------------------------------------------------------


DEDUP_NSW = "SELECT DEDUP surname FROM PPL WHERE state = 'nsw'"


class TestDedupExplainShowsTheTail:
    """A DEDUP statement's EXPLAIN prints the tail that runs above
    Group-Entities, clause by clause."""

    def _head(self, engine, sql, count):
        lines = engine.explain(sql).splitlines()
        assert lines[0] == "-- plan: dedup (mode=aes)"
        return lines[1 : 1 + count]

    def test_order_by(self, mb_none_engine):
        assert self._head(mb_none_engine, DEDUP_NSW + " ORDER BY surname", 3) == [
            "Sort[surname ASC]",
            "  Project[surname]",
            "    GroupEntities",
        ]

    def test_limit(self, mb_none_engine):
        assert self._head(mb_none_engine, DEDUP_NSW + " LIMIT 2", 3) == [
            "Limit[2]",
            "  Project[surname]",
            "    GroupEntities",
        ]

    def test_distinct(self, mb_none_engine):
        sql = DEDUP_NSW.replace("DEDUP", "DEDUP DISTINCT")
        assert self._head(mb_none_engine, sql, 3) == [
            "Distinct",
            "  Project[surname]",
            "    GroupEntities",
        ]

    def test_group_by(self, mb_none_engine):
        sql = "SELECT DEDUP state, COUNT(*) AS n FROM PPL GROUP BY state"
        assert self._head(mb_none_engine, sql, 2) == [
            "Aggregate[state, COUNT(*) AS n BY state]",
            "  GroupEntities",
        ]


def _operator_class_names():
    names, stack = set(), [PhysicalOperator]
    while stack:
        cls = stack.pop()
        names.add(cls.__name__)
        stack.extend(cls.__subclasses__())
    return names


def _without_annotations(lines):
    return [re.sub(r" \{[^}]*\}$", "", line) for line in lines]


RELATIONAL = [
    "SELECT PPL.surname, OAO.name FROM PPL JOIN OAO ON PPL.organisation = OAO.name "
    "WHERE PPL.state = 'nsw'",
    "SELECT PPL.surname FROM PPL JOIN OAO ON PPL.organisation = OAO.name "
    "WHERE PPL.surname = OAO.name",
    "SELECT PPL.surname FROM PPL JOIN OAO ON PPL.organisation > OAO.name LIMIT 3",
    "SELECT state, COUNT(*) AS n FROM PPL GROUP BY state ORDER BY n DESC LIMIT 3",
    "SELECT COUNT(*) FROM PPL",
    "SELECT DISTINCT surname FROM PPL ORDER BY surname LIMIT 5",
    "SELECT * FROM OAO",
]


class TestOneRendering:
    """``EXPLAIN``, ``EXPLAIN ANALYZE`` and ``plan_description`` print the
    one cached tree."""

    @pytest.mark.parametrize("sql", RELATIONAL)
    def test_relational_explain_is_the_plan_description(self, mb_none_engine, sql):
        description = mb_none_engine.execute(sql).plan_description
        lines = mb_none_engine.explain(sql).splitlines()
        assert lines[0] == "-- plan: relational"
        assert "\n".join(lines[1:]) == description
        analyzed = mb_none_engine.execute("EXPLAIN ANALYZE " + sql).plan_description
        assert analyzed.splitlines()[: len(lines)] == lines
        classes = _operator_class_names()
        assert not [line for line in lines if line.strip() in classes]

    @pytest.mark.parametrize(
        "sql",
        [
            DEDUP_NSW + " ORDER BY surname LIMIT 2",
            "SELECT DEDUP state, COUNT(*) AS n FROM PPL GROUP BY state",
            TWO_WAY,
        ],
    )
    def test_dedup_explain_is_the_plan_description(self, sql):
        engine = _three_table_engine()
        lines = engine.explain(sql).splitlines()
        description = engine.execute(sql).plan_description
        assert "\n".join(_without_annotations(lines[1:])) == description
        classes = _operator_class_names()
        assert not [line for line in lines if line.strip() in classes]


def _count_builds(monkeypatch):
    """Count tail builds and operator constructions from now on."""
    counts = {"tails": 0, "operators": 0}
    tail, init = RelationalPlanner.tail, PhysicalOperator.__init__

    def counting_tail(self, child, query):
        counts["tails"] += 1
        return tail(self, child, query)

    def counting_init(self, schema):
        counts["operators"] += 1
        init(self, schema)

    monkeypatch.setattr(RelationalPlanner, "tail", counting_tail)
    monkeypatch.setattr(PhysicalOperator, "__init__", counting_init)
    return counts


class TestTreeBuiltOncePerPlan:
    @pytest.mark.parametrize(
        "sql", [DEDUP_NSW + " ORDER BY surname", "SELECT surname FROM PPL ORDER BY surname"]
    )
    def test_first_issue_builds_the_tail_once_and_a_reissue_builds_nothing(
        self, monkeypatch, sql
    ):
        engine = _three_table_engine()
        counts = _count_builds(monkeypatch)
        first = engine.execute(sql)
        assert counts["tails"] == 1 and counts["operators"] > 0
        counts.update(tails=0, operators=0)
        second = engine.execute(sql)
        assert counts == {"tails": 0, "operators": 0}
        assert second.rows == first.rows

    @pytest.mark.parametrize("sql", [DEDUP_NSW, "SELECT surname FROM PPL WHERE state = 'nsw'"])
    def test_only_an_insert_into_the_statements_table_rebuilds(self, monkeypatch, sql):
        engine = _three_table_engine()
        engine.execute(sql)
        counts = _count_builds(monkeypatch)
        org = list(engine.index_of("OAO").table[0].values)
        org[0] = 990001
        engine.insert("OAO", [org])
        engine.execute(sql)
        assert counts == {"tails": 0, "operators": 0}
        person = list(engine.index_of("PPL").table[0].values)
        person[0] = 990002
        engine.insert("PPL", [person])
        engine.execute(sql)
        engine.execute(sql)
        assert counts["tails"] == 1

    def test_a_cached_dedup_plan_holds_no_grouped_rows(self, monkeypatch):
        engine = _three_table_engine()
        executor = engine._executor
        group = executor._group
        produced = []

        class Rows(list):
            """A list that takes weak references."""

        def recording(state, read):
            rows = Rows(group(state, read))
            produced.append(weakref.ref(rows))
            return rows

        monkeypatch.setattr(executor, "_group", recording)
        sql = TWO_WAY + " ORDER BY PPL.surname LIMIT 5"
        result = engine.execute(sql)
        assert result.rows and len(produced) == 1
        gc.collect()
        assert produced[0]() is None
        assert engine.execute(sql).rows == result.rows
