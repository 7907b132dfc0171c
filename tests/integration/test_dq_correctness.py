"""Integration: the DQ-Correctness requirement (§5 problem statement).

A Dedupe Query over dirty data must return exactly the grouped entities
that the Batch Approach returns, and (DQ Performance) must execute no
more comparisons.  Exact equality is checked with meta-blocking off
(identical candidate pairs); with the default ALL configuration we check
the weaker paper-level guarantee instead: high pair-completeness.
"""

import pytest

from repro.core.engine import QueryEREngine
from repro.core.planner import ExecutionMode
from repro.datagen import generate_people
from repro.datagen.people import state_in_clause
from repro.er.meta_blocking import MetaBlockingConfig


def build_engine(table, **kwargs):
    engine = QueryEREngine(**kwargs)
    engine.register(table)
    return engine


@pytest.fixture(scope="module")
def people_table(small_people):
    return small_people[0]


QUERIES = [
    "SELECT DEDUP id, given_name, surname FROM PPL WHERE state = 'nt'",
    "SELECT DEDUP id, surname FROM PPL WHERE state IN ('nt', 'act', 'tas')",
    "SELECT DEDUP id, surname, suburb FROM PPL WHERE MOD(id, 10) < 1",
    "SELECT DEDUP id, given_name FROM PPL WHERE surname LIKE 's%'",
    "SELECT DEDUP id, given_name FROM PPL WHERE id BETWEEN 10 AND 60",
]


class TestExactEquivalenceWithoutMetaBlocking:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_dq_equals_baq(self, people_table, sql):
        config = MetaBlockingConfig.none()
        dq_engine = build_engine(people_table, meta_blocking=config)
        ba_engine = build_engine(people_table, meta_blocking=config)
        dq = dq_engine.execute(sql, ExecutionMode.AES)
        ba = ba_engine.execute(sql, ExecutionMode.BATCH)
        assert dq.sorted_rows() == ba.sorted_rows()

    @pytest.mark.parametrize("sql", QUERIES[:2])
    def test_dq_performance_fewer_comparisons(self, people_table, sql):
        config = MetaBlockingConfig.none()
        dq_engine = build_engine(people_table, meta_blocking=config)
        ba_engine = build_engine(people_table, meta_blocking=config)
        dq = dq_engine.execute(sql, ExecutionMode.AES)
        ba = ba_engine.execute(sql, ExecutionMode.BATCH)
        assert dq.comparisons < ba.comparisons


class TestDefaultConfiguration:
    def test_dq_equals_baq_under_all_metablocking(self, people_table):
        # On febrl-style data the ALL configuration retains all matching
        # pairs (paper: PC ≥ 0.82, here typically 1.0), so results agree.
        sql = QUERIES[1]
        dq = build_engine(people_table).execute(sql, ExecutionMode.AES)
        ba = build_engine(people_table).execute(sql, ExecutionMode.BATCH)
        assert dq.sorted_rows() == ba.sorted_rows()

    def test_found_links_are_true_duplicates(self, small_people):
        table, truth = small_people
        engine = build_engine(table)
        engine.execute(QUERIES[1], ExecutionMode.AES)
        found = set(engine.index_of("PPL").link_index.links)
        assert found, "expected some duplicates in the selection"
        assert found <= truth.pairs()

    def test_high_pair_completeness_for_selection(self, small_people):
        table, truth = small_people
        engine = build_engine(table)
        result = engine.execute(
            "SELECT DEDUP id FROM PPL WHERE state IN ('nsw', 'vic', 'qld')",
            ExecutionMode.AES,
        )
        del result
        li = engine.index_of("PPL").link_index
        resolved = {e for e in table.ids if li.is_resolved(e)}
        relevant_truth = truth.pairs_within(resolved)
        if relevant_truth:
            found = {p for p in li.links if p in relevant_truth}
            assert len(found) / len(relevant_truth) >= 0.82  # paper's floor


class TestModeAgreement:
    def test_nes_and_aes_agree_on_sp(self, people_table):
        sql = QUERIES[0]
        nes = build_engine(people_table).execute(sql, ExecutionMode.NES)
        aes = build_engine(people_table).execute(sql, ExecutionMode.AES)
        assert nes.sorted_rows() == aes.sorted_rows()

    def test_naive_scan_agrees_with_batch(self, people_table):
        config = MetaBlockingConfig.none()
        sql = QUERIES[0]
        naive = build_engine(people_table, meta_blocking=config).execute(
            sql, ExecutionMode.NAIVE_SCAN
        )
        batch = build_engine(people_table, meta_blocking=config).execute(
            sql, ExecutionMode.BATCH
        )
        assert naive.sorted_rows() == batch.sorted_rows()
