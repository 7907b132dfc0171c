"""Unit tests of the parallel execution subsystem (repro.parallel)."""

from __future__ import annotations

import threading

import pytest

from repro.core.batch import batch_deduplicate
from repro.core.engine import QueryEREngine
from repro.core.indices import TableIndex
from repro.datagen import generate_people
from repro.er.util import LRUCache
from repro.parallel import (
    ExecutionConfig,
    ParallelComparisonExecutor,
    PartitionPlanner,
    WorkerPool,
    detect_workers,
)
from repro.parallel.merger import DeterministicMerger
from repro.parallel.tasks import MatchResult


def parallel_config(workers: int = 4, backend: str = "thread") -> ExecutionConfig:
    """A config whose thresholds force the parallel path on tiny inputs."""
    return ExecutionConfig(
        workers=workers,
        backend=backend,
        min_parallel_pairs=0,
        min_parallel_comparisons=0,
    )


class TestExecutionConfig:
    def test_auto_detection_respects_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert detect_workers() == 3
        assert ExecutionConfig().resolved_workers() == 3

    def test_bad_env_falls_back_to_cores(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
        assert detect_workers() >= 1

    def test_explicit_workers_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert ExecutionConfig(workers=2).resolved_workers() == 2

    def test_single_worker_resolves_serial(self):
        config = ExecutionConfig(workers=1, backend="process")
        assert config.resolved_backend() == "serial"
        assert not config.parallel

    def test_rejects_unknown_backend_and_zero_workers(self):
        with pytest.raises(ValueError):
            ExecutionConfig(backend="gpu")
        with pytest.raises(ValueError):
            ExecutionConfig(workers=0)

    def test_serial_shorthand(self):
        assert not ExecutionConfig.serial().parallel


class TestPartitionPlanner:
    def test_pair_partitions_are_contiguous_and_cover(self):
        planner = PartitionPlanner(workers=4, partitions_per_worker=4)
        partitions = planner.partition_pairs(1003)
        assert partitions[0].start == 0
        assert partitions[-1].stop == 1003
        for previous, current in zip(partitions, partitions[1:]):
            assert previous.stop == current.start
        sizes = [len(p) for p in partitions]
        assert max(sizes) - min(sizes) <= 1

    def test_fewer_items_than_partitions(self):
        planner = PartitionPlanner(workers=4, partitions_per_worker=4)
        partitions = planner.partition_pairs(3)
        assert [len(p) for p in partitions] == [1, 1, 1]
        assert planner.partition_pairs(0) == []

    def test_block_partitions_balance_cardinality(self):
        table, _ = generate_people(300, seed=9)
        index = TableIndex(table)
        blocks = list(index.tbi.non_singleton())
        planner = PartitionPlanner(workers=4, partitions_per_worker=1)
        partitions = planner.partition_blocks(blocks)
        assert partitions[0].start == 0
        assert partitions[-1].stop == len(blocks)
        for previous, current in zip(partitions, partitions[1:]):
            assert previous.stop == current.start
        costs = [
            sum(b.cardinality for b in blocks[p.start : p.stop]) for p in partitions
        ]
        total = sum(costs)
        # No span should dwarf the ideal share (contiguity permitting).
        assert max(costs) <= total  # sanity
        assert len(partitions) > 1
        assert max(costs) < total * 0.75


class TestWorkerPool:
    @pytest.mark.parametrize("backend", ["process", "thread", "serial"])
    def test_preserves_task_order(self, backend):
        pool = WorkerPool(workers=4, backend=backend)
        results = pool.run(_square, list(range(20)), payload=None)
        assert results == [i * i for i in range(20)]

    def test_single_worker_degrades_to_serial(self):
        assert WorkerPool(workers=1, backend="process").backend == "serial"


def _square(task):
    return task * task


class TestDeterministicMerger:
    def test_merge_matches_is_arrival_order_independent(self):
        results = [
            MatchResult(2, [20, 21], {"pairs": 2}),
            MatchResult(0, [1, 5], {"pairs": 4}),
            MatchResult(1, [9], {"pairs": 1}),
        ]
        assert DeterministicMerger.merge_matches(results) == [1, 5, 9, 20, 21]
        assert DeterministicMerger.merge_matches(reversed(results)) == [1, 5, 9, 20, 21]

    def test_merge_matches_folds_cascade_deltas(self):
        from repro.er.matching import ProfileMatcher

        matcher = ProfileMatcher()
        results = [MatchResult(0, [], {"pairs": 3}), MatchResult(1, [], {"pairs": 4})]
        DeterministicMerger.merge_matches(results, matcher)
        assert matcher.cascade_stats["pairs"] == 7


class TestLRUCacheThreadSafety:
    def test_concurrent_hammer_preserves_capacity_invariant(self):
        cache = LRUCache(64)
        errors = []

        def hammer(seed: int) -> None:
            try:
                for i in range(3000):
                    key = (seed * 31 + i) % 200
                    cache.put(key, i)
                    cache.get(key)
                    assert len(cache) <= 64
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 64


class TestCandidatePlanCache:
    def test_store_hit_and_invalidate(self):
        executor = ParallelComparisonExecutor(parallel_config())
        frontier = {1, 2, 3}
        executor.store_candidates("P", frontier, "fp", [(1, 2)])
        assert executor.cached_candidates("P", frontier, "fp") == [(1, 2)]
        assert executor.cached_candidates("P", {1, 2}, "fp") is None
        assert executor.cached_candidates("P", frontier, "other-fp") is None
        executor.invalidate_table("p")
        assert executor.cached_candidates("P", frontier, "fp") is None

    def test_invalidate_clears_everything(self):
        executor = ParallelComparisonExecutor(parallel_config())
        executor.store_candidates("P", {1}, "fp", [])
        executor.invalidate()
        assert executor.cached_candidates("P", {1}, "fp") is None


class TestEngineInvalidation:
    """INSERT INTO followed by a parallel DEDUP never reads stale plans."""

    SQL = "SELECT DEDUP id, title, author, venue FROM P WHERE venue = 'EDBT'"

    @staticmethod
    def _engine(publications):
        from repro.er.meta_blocking import MetaBlockingConfig
        from repro.storage.table import Table

        # use_link_index=False keeps the frontier identical across
        # repeats — the exact regime where a stale cached plan would be
        # served after an append.  Meta-blocking stays off so block
        # co-occurrence alone decides candidacy (the purging/pruning
        # heuristics are unstable on a 9-row table and beside the
        # point here).  The session fixture is copied because these
        # tests INSERT into the table.
        engine = QueryEREngine(
            use_link_index=False,
            meta_blocking=MetaBlockingConfig.none(),
            execution=parallel_config(),
        )
        copy = Table(
            publications.name,
            publications.schema,
            [row.values for row in publications],
        )
        engine.register(copy)
        return engine

    def test_insert_between_repeated_parallel_dedups(self, publications):
        engine = self._engine(publications)
        first = engine.execute(self.SQL)
        assert not any("P9" in str(row[0]) for row in first.rows)
        # Prime the candidate-plan cache, then append a near-duplicate of
        # P1 under a *different* venue: it can only be found through
        # Block-Join (it never enters the frontier), so without plan
        # invalidation the cached plan would silently miss it.
        assert engine.parallel_executor.stats["candidate_cache_misses"] >= 1
        engine.execute(
            "INSERT INTO P (id, title, venue, year) VALUES "
            "('P9', 'Collective Entity Resolution', 'VLDB', '2008')"
        )
        second = engine.execute(self.SQL)
        assert any("P9" in str(row[0]) for row in second.rows)

    def test_repeated_frontier_hits_plan_cache(self, publications):
        engine = self._engine(publications)
        engine.execute(self.SQL)
        engine.execute(self.SQL)
        assert engine.parallel_executor.stats["candidate_cache_hits"] >= 1

    def test_clear_caches_drops_plans(self, publications):
        engine = self._engine(publications)
        engine.execute(self.SQL)
        engine.clear_caches()
        engine.execute(self.SQL)
        assert engine.parallel_executor.stats["candidate_cache_hits"] == 0


class TestBatchParallel:
    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_batch_deduplicate_parallel_equals_serial(self, backend):
        table, _ = generate_people(250, seed=17)
        serial = batch_deduplicate(TableIndex(table))
        executor = ParallelComparisonExecutor(parallel_config(backend=backend))
        parallel = batch_deduplicate(TableIndex(table), executor=executor)
        assert set(serial.links) == set(parallel.links)
        assert executor.stats["parallel_match_runs"] >= 1


class TestBatchModeWiring:
    def test_batch_execution_mode_uses_and_matches_the_pool(self):
        from repro.core.planner import ExecutionMode

        table, _ = generate_people(250, seed=21)
        sql = "SELECT DEDUP id, given_name, surname FROM PPL WHERE state = 'nsw'"

        serial_engine = QueryEREngine(execution=ExecutionConfig.serial())
        serial_engine.register(table)
        parallel_engine = QueryEREngine(execution=parallel_config())
        parallel_engine.register(table)

        expected = serial_engine.execute(sql, ExecutionMode.BATCH)
        got = parallel_engine.execute(sql, ExecutionMode.BATCH)
        assert sorted(got.rows, key=repr) == sorted(expected.rows, key=repr)
        assert got.comparisons == expected.comparisons
        assert parallel_engine.parallel_executor.stats["parallel_match_runs"] >= 1


class TestSchedulingAccounting:
    """The executor alone decides where matching runs, and counts every run."""

    SQL = "SELECT DEDUP id, given_name, surname FROM PPL WHERE state = 'nsw'"

    def test_small_dedup_is_counted_as_a_serial_match_run(self):
        table, _ = generate_people(120, seed=8)
        # Default thresholds: a remainder this small never reaches the workers.
        with QueryEREngine(execution=ExecutionConfig(workers=2)) as engine:
            engine.register(table)
            report = engine.execute("EXPLAIN ANALYZE " + self.SQL)
            text = "\n".join(str(row[0]) for row in report.rows)
            stats = engine.parallel_executor.stats
            assert stats["serial_match_runs"] >= 1
            assert stats["parallel_match_runs"] == 0
            assert (
                f"scheduling: parallel_match_runs=0 "
                f"serial_match_runs={stats['serial_match_runs']} " in text
            )

    def test_the_remainder_not_the_candidate_count_is_what_gets_shipped(self):
        table, _ = generate_people(120, seed=8)
        index = TableIndex(table)
        pairs = [(a.id, b.id) for a in table for b in table if a.id < b.id]
        from repro.er.matching import ProfileMatcher

        matcher = ProfileMatcher(exclude=("id",))
        reference = ProfileMatcher(exclude=("id",))
        expected = reference.match_pair_indices(pairs, index.signatures)
        undecided = reference.cascade_stats["exact_fallbacks"]
        assert 0 < undecided < len(pairs)
        # Thousands of candidates, a threshold just above the remainder: serial.
        above = ParallelComparisonExecutor(
            ExecutionConfig(workers=2, backend="thread", min_parallel_pairs=undecided + 1)
        )
        assert above.match_pairs(index, matcher, pairs) == expected
        assert (above.stats["serial_match_runs"], above.stats["parallel_match_runs"]) == (1, 0)
        at = ParallelComparisonExecutor(
            ExecutionConfig(workers=2, backend="thread", min_parallel_pairs=undecided)
        )
        assert at.match_pairs(index, matcher, pairs) == expected
        assert (at.stats["serial_match_runs"], at.stats["parallel_match_runs"]) == (0, 1)


class TestSerialEngineHasNoExecutor:
    def test_serial_config_keeps_pre_subsystem_path(self):
        engine = QueryEREngine(execution=ExecutionConfig.serial())
        assert engine.parallel_executor is None
