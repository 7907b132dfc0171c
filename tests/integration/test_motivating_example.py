"""Integration: the paper's motivating example (§2, Tables 1–3)."""

import pytest

from repro.core.engine import QueryEREngine
from repro.core.planner import ExecutionMode

SQL = (
    "SELECT DEDUP P.Title, P.Year, V.Rank "
    "FROM P INNER JOIN V ON P.venue = V.title "
    "WHERE P.venue = 'EDBT'"
)


@pytest.fixture
def engine(publications, venues):
    e = QueryEREngine(match_threshold=0.70)
    e.register(publications)
    e.register(venues)
    return e


class TestPlainSqlMissesDuplicates:
    def test_plain_query_returns_only_exact_matches(self, engine):
        result = engine.execute(
            "SELECT P.Title, P.Year FROM P "
            "INNER JOIN V ON P.venue = V.title WHERE P.venue = 'EDBT'"
        )
        # Only P1, P6, P8 carry the literal venue 'EDBT' (joining V4):
        titles = sorted(result.column("Title"))
        assert titles == [
            "Collective Entity Resolution",
            "E.R for consumer data",
            "Entity-Resolution for consumer data",
        ]


class TestDedupQuery:
    def test_duplicates_are_grouped(self, engine):
        result = engine.execute(SQL)
        titles = result.column("Title")
        # P1 ≡ P2 fuse into rows carrying both title spellings.  (The V1/V4
        # venue pair is too heterogeneous for the generic matcher, so the
        # publication cluster may surface once per unmerged venue cluster.)
        collective = [t for t in titles if "Collective" in t]
        assert 1 <= len(collective) <= 2
        for title in collective:
            assert "Collective E.R." in title
            assert "Collective Entity Resolution" in title

    def test_rank_surfaced_through_duplicate_venue(self, engine):
        # The whole point of the example: P1's plain join reaches only V4
        # (rank NULL); resolving duplicates surfaces rank 1 via V1.
        result = engine.execute(SQL)
        ranks = {
            rank
            for title, rank in zip(result.column("Title"), result.column("Rank"))
            if "Collective" in title
        }
        assert "1" in ranks

    def test_consumer_data_cluster_grouped(self, engine):
        result = engine.execute(SQL)
        consumer = [t for t in result.column("Title") if "consumer" in t]
        assert len(consumer) == 1

    def test_year_fused_from_duplicates(self, engine):
        result = engine.execute(SQL)
        years = {t: y for t, y in zip(result.column("Title"), result.column("Year"))}
        for title, year in years.items():
            if "Collective" in title:
                assert year == "2008"

    def test_fewer_rows_than_plain_query_joins(self, engine):
        plain = engine.execute(
            "SELECT P.Title FROM P INNER JOIN V ON P.venue = V.title WHERE P.venue = 'EDBT'"
        )
        dedup = engine.execute(SQL)
        assert len(dedup) <= len(plain)

    def test_all_modes_agree_with_batch(self, publications, venues):
        from repro.er.meta_blocking import MetaBlockingConfig

        engine = QueryEREngine(
            match_threshold=0.70,
            meta_blocking=MetaBlockingConfig.none(),
        )
        engine.register(publications)
        engine.register(venues)
        baseline = engine.execute(SQL, ExecutionMode.BATCH).sorted_rows()
        for mode in (ExecutionMode.AES, ExecutionMode.NES, ExecutionMode.NAIVE_SCAN):
            engine.reset_link_indexes()
            assert engine.execute(SQL, mode).sorted_rows() == baseline


class TestPlanShapes:
    def test_aes_explains_a_dirty_join(self, engine):
        text = engine.explain(SQL, ExecutionMode.AES)
        assert "GroupEntities" in text
        assert "Dirty" in text

    def test_aes_estimates_prefer_the_filtered_branch(self, engine):
        plan = engine.plan_for(SQL, ExecutionMode.AES)
        assert set(plan.estimates) == {"P", "V"}
        # The filter on P makes it the cheaper branch to clean first.
        assert plan.clean_first == "P"

    def test_queryer_beats_batch_on_comparisons(self, engine):
        dq = engine.execute(SQL, ExecutionMode.AES)
        engine.reset_link_indexes()
        ba = engine.execute(SQL, ExecutionMode.BATCH)
        assert dq.comparisons < ba.comparisons
