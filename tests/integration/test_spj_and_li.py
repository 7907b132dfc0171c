"""Integration: SPJ dedupe queries and progressive cleaning via the LI."""

import pytest

from repro.core.engine import QueryEREngine
from repro.core.planner import ExecutionMode
from repro.er.meta_blocking import MetaBlockingConfig


@pytest.fixture(scope="module")
def spj_engine(people_with_orgs, small_orgs):
    engine = QueryEREngine()
    engine.register(people_with_orgs[0])
    engine.register(small_orgs[0])
    return engine


SPJ = (
    "SELECT DEDUP PPL.id, PPL.surname, OAO.name, OAO.country "
    "FROM PPL JOIN OAO ON PPL.organisation = OAO.name "
    "WHERE PPL.state IN ('nt', 'act')"
)


class TestSpjModes:
    def test_spj_executes_in_every_mode(self, spj_engine):
        for mode in ExecutionMode:
            spj_engine.reset_link_indexes()
            result = spj_engine.execute(SPJ, mode)
            assert len(result) > 0
            assert result.columns == ["id", "surname", "name", "country"]

    def test_spj_modes_agree_without_metablocking(self, people_with_orgs, small_orgs):
        engine = QueryEREngine(meta_blocking=MetaBlockingConfig.none())
        engine.register(people_with_orgs[0])
        engine.register(small_orgs[0])
        baseline = engine.execute(SPJ, ExecutionMode.BATCH).sorted_rows()
        for mode in (ExecutionMode.AES, ExecutionMode.NES, ExecutionMode.NAIVE_SCAN):
            engine.reset_link_indexes()
            assert engine.execute(SPJ, mode).sorted_rows() == baseline

    def test_aes_comparisons_at_most_nes(self, spj_engine):
        spj_engine.reset_link_indexes()
        aes = spj_engine.execute(SPJ, ExecutionMode.AES)
        spj_engine.reset_link_indexes()
        nes = spj_engine.execute(SPJ, ExecutionMode.NES)
        assert aes.comparisons <= nes.comparisons

    def test_nes_comparisons_at_most_batch(self, people_with_orgs, small_orgs):
        # Guaranteed with meta-blocking off: NES compares a subset of the
        # pairs BA compares.  (Under ALL, thresholds adapt to the smaller
        # query-time block collection, so the counts are not comparable at
        # tiny scale.)
        engine = QueryEREngine(meta_blocking=MetaBlockingConfig.none())
        engine.register(people_with_orgs[0])
        engine.register(small_orgs[0])
        nes = engine.execute(SPJ, ExecutionMode.NES)
        engine.reset_link_indexes()
        batch = engine.execute(SPJ, ExecutionMode.BATCH)
        assert nes.comparisons <= batch.comparisons

    def test_residual_predicate_applies_after_join(self, spj_engine):
        spj_engine.reset_link_indexes()
        sql = SPJ + " AND PPL.surname = OAO.name"  # never true on this data
        result = spj_engine.execute(sql, ExecutionMode.AES)
        assert len(result) == 0


class TestJoinSemantics:
    def test_join_reaches_rows_plain_sql_misses(self, spj_engine):
        """Dirty org names still join via their resolved duplicates."""
        spj_engine.reset_link_indexes()
        plain = spj_engine.execute(
            "SELECT PPL.id FROM PPL JOIN OAO ON PPL.organisation = OAO.name"
        )
        spj_engine.reset_link_indexes()
        dedup = spj_engine.execute(
            "SELECT DEDUP PPL.id FROM PPL JOIN OAO ON PPL.organisation = OAO.name",
            ExecutionMode.AES,
        )
        # Every plain-join person appears (possibly grouped) in the dedup
        # result; grouping can only reduce the row count further.
        plain_ids = {str(v) for v in plain.column("id")}
        dedup_ids = set()
        for value in dedup.column("id"):
            dedup_ids.update(str(value).split(" | "))
        assert plain_ids <= dedup_ids


class TestProgressiveCleaning:
    def test_link_index_makes_second_query_cheaper(self, people_with_orgs):
        engine = QueryEREngine()
        engine.register(people_with_orgs[0])
        sql = "SELECT DEDUP id, surname FROM PPL WHERE state IN ('nsw', 'vic')"
        first = engine.execute(sql)  # do not reset LI
        second_result = engine.execute(sql)
        assert second_result.comparisons == 0

    def test_overlapping_queries_partial_reuse(self, people_with_orgs):
        engine = QueryEREngine()
        engine.register(people_with_orgs[0])
        narrow = engine.execute("SELECT DEDUP id FROM PPL WHERE state = 'nsw'")
        wide = engine.execute("SELECT DEDUP id FROM PPL WHERE state IN ('nsw', 'vic')")
        fresh = QueryEREngine()
        fresh.register(people_with_orgs[0])
        cold = fresh.execute("SELECT DEDUP id FROM PPL WHERE state IN ('nsw', 'vic')")
        assert wide.comparisons < cold.comparisons

    def test_without_li_costs_do_not_drop(self, people_with_orgs):
        engine = QueryEREngine(use_link_index=False)
        engine.register(people_with_orgs[0])
        sql = "SELECT DEDUP id FROM PPL WHERE state = 'nsw'"
        first = engine.execute(sql)
        second = engine.execute(sql)
        assert second.comparisons == first.comparisons > 0
