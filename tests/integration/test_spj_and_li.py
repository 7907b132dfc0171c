"""Integration: SPJ dedupe queries and progressive cleaning via the LI."""

import pytest

from repro.core.engine import QueryEREngine
from repro.core.planner import ExecutionMode
from repro.er.meta_blocking import MetaBlockingConfig
from repro.storage.schema import Schema
from repro.storage.table import Table


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


def papers_and_venues():
    """Two duplicate papers citing two spellings of one venue, which are
    duplicates too; join keys differing only in case; NULL join keys on
    both sides; and rows that join nothing."""
    papers = Table(
        "P",
        Schema.of("id", "title", "year", "venue"),
        [
            ("p1", "query driven entity resolution", "2019", "EDBT"),
            ("p2", "query driven entity resolution", "2019", "extending database technology"),
            ("p3", "graph partitioning at scale", "2019", "Sigmod"),
            ("p4", "streaming joins over sensor data", "2019", None),
            ("p5", "an old paper on hashing", "1990", "vldb"),
        ],
    )
    venues = Table(
        "V",
        Schema.of("id", "name", "description", "rank"),
        [
            ("v1", "edbt", "extending database technology conference", None),
            (
                "v2",
                "extending database technology",
                "extending database technology conference",
                "1",
            ),
            ("v3", "SIGMOD", "management of data", "1"),
            ("v4", "unjoined venue", "nothing joins this one", "2"),
            ("v5", None, "a venue without a name", "3"),
        ],
    )
    return papers, venues


JOIN = "SELECT DEDUP P.id, V.id, V.rank FROM P JOIN V ON P.venue = V.name WHERE "
DEDUP_JOIN_ROWS = [("p1 | p2", "v1 | v2", "1"), ("p3", "v3", "1")]


def resolved(engine, name):
    index = engine.index_of(name)
    return {entity for entity in index.table.ids if index.link_index.is_resolved(entity)}


class TestDedupJoin:
    """Algorithms 1–2 through SQL: reduction of the dirty side, both
    orientations, cluster x cluster emission, NULL and case-folded keys."""

    def engine(self):
        engine = QueryEREngine()
        for table in papers_and_venues():
            engine.register(table)
        return engine

    def test_dirty_right_reduces_the_venues_then_joins_clusters(self):
        engine = self.engine()
        sql = JOIN + "P.year = '2019'"
        assert engine.plan_for(sql).clean_first == "P"
        # p1 joins v1 only through case folding ('EDBT' = 'edbt'), p3 v3
        # likewise; {p1, p2} x {v1, v2} fuse into one row carrying v2's
        # rank; p4 and v5 (NULL keys) join nothing.
        assert engine.execute(sql).sorted_rows() == DEDUP_JOIN_ROWS
        # Venues no cleaned paper joins were dropped before deduplication.
        assert resolved(engine, "V") == {"v1", "v2", "v3"}

    def test_dirty_left_reduces_the_papers_then_joins_clusters(self):
        engine = self.engine()
        sql = JOIN + "V.rank = '1'"
        assert engine.plan_for(sql).clean_first == "V"
        assert engine.execute(sql).sorted_rows() == DEDUP_JOIN_ROWS
        # p4 (NULL venue) and p5 (a venue no clean row has) were dropped.
        assert resolved(engine, "P") == {"p1", "p2", "p3"}

    @pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda mode: mode.value)
    @pytest.mark.parametrize("where", ["P.year = '2019'", "V.rank = '1'"])
    def test_every_mode_answers_the_same(self, where, mode):
        assert self.engine().execute(JOIN + where, mode).sorted_rows() == DEDUP_JOIN_ROWS


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
