"""Unit tests for the benchmark substrate: workload, datasets, harness."""

import pytest

from repro.sql.parser import parse

from _support.datasets import BASE_SIZES, DatasetRegistry
from _support.harness import Measurement, fresh_engine, run_query, run_series
from _support.workload import (
    SELECTIVITIES,
    WorkloadQuery,
    join_query,
    q9_query,
    range_queries,
    sp_queries,
)


class TestWorkload:
    def test_sp_queries_parse_and_range_selectivity(self):
        for family in ("PPL", "OAGP", "OAP", "DSD"):
            queries = sp_queries(family)
            assert [q.qid for q in queries] == ["Q1", "Q2", "Q3", "Q4", "Q5"]
            assert [q.selectivity for q in queries] == list(SELECTIVITIES)
            for q in queries:
                parsed = parse(q.sql)
                assert parsed.dedup

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError):
            sp_queries("NOPE")

    def test_q9_uses_mod(self):
        q = q9_query("PPL")
        assert "MOD(id, 10) < 1" in q.sql
        parse(q.sql)

    def test_range_queries_overlap_and_grow(self):
        queries = range_queries("OAGP", table_size=1000)
        assert [q.qid for q in queries] == ["Q10", "Q11", "Q12", "Q13"]
        uppers = [int(q.sql.rsplit("<= ", 1)[1]) for q in queries]
        assert uppers == sorted(uppers)
        for q in queries:
            parse(q.sql)

    def test_join_queries_parse(self):
        for pair in ("PPL-OAO", "OAP-OAO", "OAGP-OAGV"):
            q = join_query(pair, "Q6", 0.07)
            parsed = parse(q.sql)
            assert parsed.dedup and len(parsed.joins) == 1

    def test_join_query_full_selectivity_has_no_where(self):
        q = join_query("PPL-OAO", "Q7", 1.0)
        assert "WHERE" not in q.sql


class TestDatasetRegistry:
    def test_caches_builds(self):
        registry = DatasetRegistry(scale=0.05)
        first = registry.table("OAO")
        second = registry.table("OAO")
        assert first is second

    def test_all_paper_datasets_defined(self):
        expected = {
            "DSD", "OAO", "OAP", "OAGV",
            "PPL200K", "PPL500K", "PPL1M", "PPL1.5M", "PPL2M",
            "OAGP200K", "OAGP500K", "OAGP1M", "OAGP1.5M", "OAGP2M",
        }
        assert expected == set(BASE_SIZES)

    def test_scaling_applies(self):
        registry = DatasetRegistry(scale=0.1)
        assert registry.size_of("PPL2M") == 200

    def test_minimum_size_floor(self):
        registry = DatasetRegistry(scale=0.0001)
        assert registry.size_of("PPL200K") == 30

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            DatasetRegistry().get("XX")

    def test_family_table_names(self):
        registry = DatasetRegistry(scale=0.05)
        assert registry.table("PPL200K").name == "PPL"
        assert registry.table("OAGP200K").name == "OAGP"


class TestHarness:
    def test_run_query_measures(self):
        registry = DatasetRegistry(scale=0.1)
        engine = fresh_engine([registry.get("OAO")])
        measurement = run_query(
            engine, "Q1", "OAO", "SELECT DEDUP id, name FROM OAO", "aes"
        )
        assert isinstance(measurement, Measurement)
        assert measurement.total_time > 0
        assert measurement.rows > 0

    def test_breakdown_percentages_sum_to_100(self):
        m = Measurement("Q1", "D", "aes", 1.0, 10, 5, {"a": 0.25, "b": 0.75})
        assert sum(m.breakdown_percentages().values()) == pytest.approx(100.0)


class TestRunSeries:
    def test_query_mode_sweep(self):
        registry = DatasetRegistry(scale=0.1)
        engine = fresh_engine([registry.get("OAO")])
        queries = [
            WorkloadQuery("Q1", "SELECT DEDUP id FROM OAO WHERE country = 'greece'", 0.1),
            WorkloadQuery("Q2", "SELECT DEDUP id FROM OAO", 1.0),
        ]
        measurements = run_series(engine, "OAO", queries, ["aes", "batch"])
        assert len(measurements) == 4
        assert {(m.qid, m.mode) for m in measurements} == {
            ("Q1", "aes"), ("Q1", "batch"), ("Q2", "aes"), ("Q2", "batch"),
        }
