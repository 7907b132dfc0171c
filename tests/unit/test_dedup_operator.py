"""Unit tests for the Deduplicate operator (§6.1)."""

import pytest

from repro.core.dedup_operator import DedupStats, DeduplicateOperator
from repro.core.engine import QueryEREngine
from repro.core.indices import TableIndex
from repro.datagen import generate_people
from repro.er.matching import ProfileMatcher
from repro.er.meta_blocking import MetaBlockingConfig
from repro.sql.physical import ExecutionContext
from repro.storage.schema import Schema
from repro.storage.table import Table


def dirty_table():
    """Three true clusters: {r1, r2}, {r3, r4, r5}, {r6}."""
    return Table(
        "T",
        Schema.of("id", "name", "city"),
        [
            ("r1", "jonathan smith", "berlin"),
            ("r2", "jonathan smyth", "berlin"),
            ("r3", "maria garcia lopez", "athens"),
            ("r4", "maria garcia lopez", "athens"),
            ("r5", "maria g. lopez", "athens"),
            ("r6", "completely different person", "oslo"),
        ],
    )


@pytest.fixture
def operator():
    index = TableIndex(dirty_table())
    return DeduplicateOperator(index, meta_blocking=MetaBlockingConfig.none())


class TestDeduplicate:
    def test_finds_duplicates_of_selection(self, operator):
        result = operator.deduplicate(["r1"])
        assert result.query_ids == {"r1"}
        assert result.duplicate_ids == {"r2"}
        assert ("r1", "r2") in result.links

    def test_no_duplicates_for_unique_entity(self, operator):
        result = operator.deduplicate(["r6"])
        assert result.entity_ids == {"r6"}
        assert len(result.links) == 0

    def test_transitive_expansion_completes_cluster(self, operator):
        # r3 matches r4 and r5; all three must land in one cluster.
        result = operator.deduplicate(["r3"])
        assert result.entity_ids == {"r3", "r4", "r5"}
        assert result.clusters() == [{"r3", "r4", "r5"}]

    def test_comparison_counting(self, operator):
        context = ExecutionContext()
        operator.deduplicate(["r1"], context)
        assert context.comparisons > 0

    def test_each_pair_compared_once(self, operator):
        stats = DedupStats()
        operator.collect_candidates = True
        operator.deduplicate(["r3"], stats=stats)
        assert len(stats.candidate_pairs) == len(set(stats.candidate_pairs))

    def test_empty_selection(self, operator):
        result = operator.deduplicate([])
        assert len(result.entity_ids) == 0

    def test_stage_times_recorded(self, operator):
        context = ExecutionContext()
        operator.deduplicate(["r1"], context)
        assert {"block-join", "meta-blocking", "resolution"} <= set(context.stage_times)


class TestLinkIndexIntegration:
    def test_second_query_skips_resolved_entities(self):
        index = TableIndex(dirty_table())
        operator = DeduplicateOperator(index, meta_blocking=MetaBlockingConfig.none())
        first_ctx = ExecutionContext()
        operator.deduplicate(["r1"], first_ctx)
        second_ctx = ExecutionContext()
        result = operator.deduplicate(["r1"], second_ctx)
        assert second_ctx.comparisons == 0  # links came from the LI
        assert result.duplicate_ids == {"r2"}

    def test_without_link_index_recomputes(self):
        index = TableIndex(dirty_table())
        operator = DeduplicateOperator(
            index, meta_blocking=MetaBlockingConfig.none(), use_link_index=False
        )
        operator.deduplicate(["r1"])
        context = ExecutionContext()
        operator.deduplicate(["r1"], context)
        assert context.comparisons > 0
        assert len(index.link_index) == 0  # LI untouched

    def test_li_amended_with_discovered_links(self):
        index = TableIndex(dirty_table())
        operator = DeduplicateOperator(index, meta_blocking=MetaBlockingConfig.none())
        operator.deduplicate(["r3"])
        assert index.link_index.cluster_of("r3") == {"r3", "r4", "r5"}
        assert index.link_index.is_resolved("r3")

    def test_partially_resolved_frontier(self):
        index = TableIndex(dirty_table())
        operator = DeduplicateOperator(index, meta_blocking=MetaBlockingConfig.none())
        operator.deduplicate(["r1"])
        context = ExecutionContext()
        result = operator.deduplicate(["r1", "r6"], context)
        assert result.entity_ids == {"r1", "r2", "r6"}


class TestLinkIndexAtomicity:
    """A Deduplicate that fails in a later round must leave the Link
    Index exactly as it found it: an entity marked resolved without its
    links would answer every later query from a wrong cluster."""

    WHERE = ("MOD(id, 7) < 1", "MOD(id, 3) < 1", "surname LIKE 's%'", "id <= 60")

    @staticmethod
    def engine():
        engine = QueryEREngine()
        engine.register(generate_people(600, seed=5)[0])
        return engine

    def test_failure_in_second_round_leaves_link_index_untouched(self, monkeypatch):
        engine = self.engine()
        index = engine.index_of("PPL")
        match = ProfileMatcher.match_pair_indices
        calls = []

        def fail_second_call(matcher, *args, **kwargs):
            calls.append(len(calls))
            if len(calls) == 2:
                raise RuntimeError("matcher failed in round 2")
            return match(matcher, *args, **kwargs)

        monkeypatch.setattr(ProfileMatcher, "match_pair_indices", fail_second_call)
        with pytest.raises(RuntimeError, match="round 2"):
            engine.execute(f"SELECT DEDUP id, surname FROM PPL WHERE {self.WHERE[0]}")
        monkeypatch.undo()
        assert index.link_index.resolved_count == 0
        assert len(index.link_index) == 0

        fresh = self.engine()
        for where in self.WHERE:
            sql = f"SELECT DEDUP id, surname FROM PPL WHERE {where}"
            assert engine.execute(sql).sorted_rows() == fresh.execute(sql).sorted_rows()


class TestEngineInvalidation:
    """Repeated DEDUPs on one engine: inserts, re-derivation, cache resets."""

    SQL = "SELECT DEDUP id, title, author, venue FROM P WHERE venue = 'EDBT'"

    @staticmethod
    def _engine(publications, use_link_index=False):
        # use_link_index=False keeps the frontier identical across
        # repeats, so only the appended rows can change the candidate
        # pairs.  Meta-blocking stays off so block
        # co-occurrence alone decides candidacy (the purging/pruning
        # heuristics are unstable on a 9-row table and beside the
        # point here).  The session fixture is copied because these
        # tests INSERT into the table.
        engine = QueryEREngine(
            use_link_index=use_link_index,
            meta_blocking=MetaBlockingConfig.none(),
        )
        copy = Table(
            publications.name,
            publications.schema,
            [row.values for row in publications],
        )
        engine.register(copy)
        return engine

    def test_insert_between_repeated_dedups(self, publications):
        engine = self._engine(publications)
        first = engine.execute(self.SQL)
        assert not any("P9" in str(row[0]) for row in first.rows)
        # Append a near-duplicate of P1 under a *different* venue:
        # it can only be found through Block-Join (it never enters
        # the frontier).
        engine.execute(
            "INSERT INTO P (id, title, venue, year) VALUES "
            "('P9', 'Collective Entity Resolution', 'VLDB', '2008')"
        )
        second = engine.execute(self.SQL)
        assert any("P9" in str(row[0]) for row in second.rows)

    def test_repeated_frontier_rederives_identically(self, publications):
        """Every query derives its candidates afresh: same pairs, same work."""
        engine = self._engine(publications)
        first = engine.execute(self.SQL)
        second = engine.execute(self.SQL)
        assert second.sorted_rows() == first.sorted_rows()
        assert second.comparisons == first.comparisons > 0

    def test_clear_caches_restores_cold_behaviour(self, publications):
        engine = self._engine(publications, use_link_index=True)
        cold = engine.execute(self.SQL)
        warm = engine.execute(self.SQL)
        engine.clear_caches()
        again = engine.execute(self.SQL)
        assert warm.comparisons < cold.comparisons
        assert again.comparisons == cold.comparisons
        assert again.sorted_rows() == warm.sorted_rows() == cold.sorted_rows()
