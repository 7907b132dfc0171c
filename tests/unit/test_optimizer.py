"""Unit tests for the cost-based query optimizer (repro.optimizer)."""

import pytest

from repro.core.engine import QueryEREngine
from repro.core.planner import DedupQueryPlanner, ExecutionMode, JoinStep
from repro.datagen import generate_organizations, generate_people, generate_projects
from repro.er.meta_blocking import MetaBlockingConfig
from repro.optimizer import (
    CostModel,
    PlanCache,
    dedup_placements,
    enumerate_dedup_orders,
    enumerate_relational_orders,
    expand_stars,
    identity_safe,
    join_edges,
    plan_key,
)
from repro.sql.parser import parse
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


# -- identity gate -----------------------------------------------------------


class TestIdentityGate:
    def test_only_all_stages_off_is_safe(self):
        assert identity_safe(MetaBlockingConfig.none())
        assert not identity_safe(MetaBlockingConfig.all())
        assert not identity_safe(MetaBlockingConfig.bp_bf())
        assert not identity_safe(MetaBlockingConfig(purging=False, filtering=False))

    def test_default_mb_engine_falls_back_with_reason(self):
        engine = _three_table_engine(meta_blocking=MetaBlockingConfig.all())
        text = engine.explain(THREE_WAY)
        assert text.startswith("-- plan: heuristic")
        assert "meta-blocking enabled" in text

    def test_non_aes_modes_are_never_rewritten(self, mb_none_engine):
        for mode in (ExecutionMode.NES, ExecutionMode.BATCH):
            text = mb_none_engine.explain(THREE_WAY, mode)
            assert text.startswith("-- plan: heuristic"), mode


# -- plan cache --------------------------------------------------------------


class TestPlanCache:
    def test_key_separates_sql_mode_epochs_version(self):
        base = plan_key("select 1", "aes", {"t": 1}, 0)
        assert plan_key("select 1", "aes", {"t": 1}, 0) == base
        assert plan_key("select 2", "aes", {"t": 1}, 0) != base
        assert plan_key("select 1", "nes", {"t": 1}, 0) != base
        assert plan_key("select 1", "aes", {"t": 2}, 0) != base
        assert plan_key("select 1", "aes", {"t": 1}, 1) != base

    def test_lru_eviction_and_stats(self):
        cache = PlanCache(capacity=2)
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
        cache = PlanCache(capacity=8)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.invalidate() == 2
        assert len(cache) == 0
        assert cache.snapshot()["invalidations"] == 2

    def test_zero_capacity_disables(self):
        cache = PlanCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_repeated_query_hits_engine_cache(self, mb_none_engine):
        engine = mb_none_engine
        before = engine.plan_cache.snapshot()["hits"]
        engine.execute(TWO_WAY)
        engine.execute(TWO_WAY)
        assert engine.plan_cache.snapshot()["hits"] > before

    def test_insert_invalidates_plans_and_bumps_version(self):
        engine = _three_table_engine()
        engine.execute(TWO_WAY)
        assert len(engine.plan_cache) > 0
        version = engine.statistics_version()
        engine.execute(
            "INSERT INTO OAO (id, name) VALUES (90001, 'fresh org ltd')"
        )
        assert len(engine.plan_cache) == 0
        assert engine.statistics_version() > version

    def test_register_bumps_statistics_version(self):
        engine = QueryEREngine()
        version = engine.statistics_version()
        engine.register(Table("T", Schema.of("id", "x"), [("t1", "a")]))
        assert engine.statistics_version() > version

    def test_disabled_optimizer_skips_the_cache(self):
        engine = _three_table_engine(optimizer=False)
        engine.execute(TWO_WAY)
        engine.execute(TWO_WAY)
        snapshot = engine.plan_cache.snapshot()
        assert snapshot["size"] == 0 and snapshot["hits"] == 0


# -- rewrite rules -----------------------------------------------------------


class TestExpandStars:
    def test_no_star_returns_query_unchanged(self):
        query = parse("SELECT a.x FROM a JOIN b ON a.x = b.y")
        assert expand_stars(query, lambda name: ["x"]) is query

    def test_star_expands_in_from_order(self):
        query = parse("SELECT * FROM a JOIN b ON a.x = b.y")
        columns = {"a": ["x", "z"], "b": ["y"]}
        expanded = expand_stars(query, lambda name: columns[name])
        names = [(item.expr.qualifier, item.expr.name) for item in expanded.items]
        assert names == [("a", "x"), ("a", "z"), ("b", "y")]

    def test_qualified_star_expands_one_binding(self):
        query = parse("SELECT b.*, a.x FROM a JOIN b ON a.x = b.y")
        columns = {"a": ["x"], "b": ["y", "w"]}
        expanded = expand_stars(query, lambda name: columns[name])
        names = [(item.expr.qualifier, item.expr.name) for item in expanded.items]
        assert names == [("b", "y"), ("b", "w"), ("a", "x")]


class TestRelationalOrders:
    CHAIN = "SELECT a.x FROM a JOIN b ON a.x = b.y JOIN c ON c.z = b.y"

    def test_chain_enumerates_multiple_orders(self):
        orders = enumerate_relational_orders(parse(self.CHAIN))
        bindings = {o.bindings for o in orders}
        assert ("a", "b", "c") in bindings  # original survives
        assert len(bindings) > 1
        # a-c is not an edge: any order must put b before the second leaf.
        assert ("a", "c", "b") not in bindings

    def test_outer_join_is_not_reorderable(self):
        query = parse("SELECT a.x FROM a LEFT JOIN b ON a.x = b.y")
        assert join_edges(query) is None
        assert enumerate_relational_orders(query) == []

    def test_non_equi_join_is_not_reorderable(self):
        assert join_edges(parse("SELECT a.x FROM a JOIN b ON a.x < b.y")) is None

    def test_unqualified_condition_is_not_reorderable(self):
        assert join_edges(parse("SELECT a.x FROM a JOIN b ON x = b.y")) is None

    def test_candidates_preserve_the_join_graph(self):
        for order in enumerate_relational_orders(parse(self.CHAIN)):
            edges = join_edges(order.query)
            assert edges is not None and len(edges) == 2


class TestDedupOrders:
    STEPS = [
        JoinStep("p", "organisation", "o", "name"),
        JoinStep("o", "name", "j", "organisation"),
    ]

    def test_two_step_chain_has_multiple_orders(self):
        orders = enumerate_dedup_orders(self.STEPS)
        signatures = {tuple((s.left_binding, s.right_binding) for s in o) for o in orders}
        assert (("p", "o"), ("o", "j")) in signatures
        assert len(signatures) > 1

    def test_later_steps_keep_bound_side_left(self):
        for order in enumerate_dedup_orders(self.STEPS):
            bound = {order[0].left_binding, order[0].right_binding}
            for step in order[1:]:
                assert step.left_binding in bound
                assert step.right_binding not in bound
                bound.add(step.right_binding)

    def test_placements_are_the_first_joins_endpoints(self):
        assert dedup_placements(self.STEPS) == ("p", "o")

    def test_oversized_order_falls_back_to_original(self):
        steps = [JoinStep(f"t{i}", "x", f"t{i+1}", "x") for i in range(7)]
        assert enumerate_dedup_orders(steps) == [steps]


# -- cost model --------------------------------------------------------------


class TestCostModel:
    def test_binding_estimates_are_memoized_until_invalidate(self, mb_none_engine):
        model = CostModel(mb_none_engine)
        planner = DedupQueryPlanner(mb_none_engine)
        infos, _, _ = planner.analyze(parse(TWO_WAY))
        first = model.binding_estimate(infos[0])
        assert model.binding_estimate(infos[0]) is first
        model.invalidate()
        assert model.binding_estimate(infos[0]) is not first

    def test_filtered_binding_is_more_selective(self, mb_none_engine):
        model = CostModel(mb_none_engine)
        planner = DedupQueryPlanner(mb_none_engine)
        infos, _, _ = planner.analyze(parse(TWO_WAY))
        by_binding = {i.binding.lower(): model.binding_estimate(i) for i in infos}
        assert by_binding["ppl"].selectivity < 1.0  # state filter bound it
        assert by_binding["oao"].qe_rows == by_binding["oao"].table_rows

    def test_dedup_order_cost_prices_every_binding(self, mb_none_engine):
        model = CostModel(mb_none_engine)
        planner = DedupQueryPlanner(mb_none_engine)
        query = parse(THREE_WAY)
        infos, steps, _ = planner.analyze(query)
        cost = model.dedup_order_cost(infos, steps, steps[0].left_binding)
        assert cost.total > 0
        assert set(cost.comparisons) == {i.binding.lower() for i in infos}

    def test_placement_changes_the_price(self, mb_none_engine):
        model = CostModel(mb_none_engine)
        planner = DedupQueryPlanner(mb_none_engine)
        infos, steps, _ = planner.analyze(parse(TWO_WAY))
        left = model.dedup_order_cost(infos, steps, steps[0].left_binding)
        right = model.dedup_order_cost(infos, steps, steps[0].right_binding)
        assert left.total != right.total

    def test_distinct_values_memoized_and_case_folded(self, mb_none_engine):
        model = CostModel(mb_none_engine)
        count = model.distinct_values("OAO", "name")
        assert count >= 1
        assert model.distinct_values("OAO", "name") == count


# -- EXPLAIN -----------------------------------------------------------------


class TestExplainStatement:
    def test_explain_dedup_returns_plan_rows(self, mb_none_engine):
        result = mb_none_engine.execute("EXPLAIN " + THREE_WAY)
        assert result.columns == ["plan"]
        text = result.plan_description
        assert text.startswith("-- plan:")
        assert "estimated cost" in text
        assert "TableScan" in text and "Deduplicate" in text
        assert "est comparisons=" in text

    def test_explain_analyze_reports_estimated_vs_actual(self, mb_none_engine):
        text = mb_none_engine.execute("EXPLAIN ANALYZE " + TWO_WAY).plan_description
        assert "-- analyze --" in text
        assert "rows: estimated=" in text and "actual=" in text
        assert "comparisons: estimated=" in text
        assert "stage " in text  # per-stage actual timings

    def test_explain_relational_shows_join_order(self, mb_none_engine):
        text = mb_none_engine.execute(
            "EXPLAIN SELECT PPL.surname, OAO.name FROM PPL "
            "JOIN OAO ON PPL.organisation = OAO.name"
        ).plan_description
        assert text.startswith("-- plan:")
        assert "Join" in text and "TableScan" in text

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


class TestOptimizedPlans:
    BAD_ORDER = (
        "SELECT DEDUP PPL.surname, OAO.name, OAP.title "
        "FROM PPL "
        "JOIN OAO ON PPL.organisation = OAO.name "
        "JOIN OAP ON OAP.organisation = OAO.name "
        "WHERE OAP.programme = 'fp7'"
    )

    def test_bad_order_query_is_optimized_with_both_costs(self, mb_none_engine):
        text = mb_none_engine.explain(self.BAD_ORDER)
        assert text.startswith("-- plan: optimized")
        assert "heuristic cost=" in text

    def test_optimized_plan_matches_heuristic_answer(self):
        baseline = _three_table_engine(optimizer=False)
        optimized = _three_table_engine(optimizer=True)
        expected = baseline.execute(self.BAD_ORDER).sorted_rows()
        assert optimized.execute(self.BAD_ORDER).sorted_rows() == expected

    def test_plan_for_stays_heuristic_first_join_shape(self, mb_none_engine):
        plan = mb_none_engine.plan_for(TWO_WAY, ExecutionMode.AES)
        assert set(plan.estimates) == {"PPL", "OAO"}
        assert plan.clean_first in plan.estimates
