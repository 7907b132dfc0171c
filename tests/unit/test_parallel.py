"""Unit tests of the parallel execution subsystem (repro.parallel)."""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import resource
import threading

import numpy as np
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
)
from repro.parallel.config import fork_available
from repro.parallel.merger import DeterministicMerger
from repro.parallel.tasks import GraphResult

needs_fork = pytest.mark.skipif(not fork_available(), reason="fork unavailable")


def parallel_config(workers: int = 2) -> ExecutionConfig:
    """A config whose thresholds force the shard path on tiny inputs."""
    return ExecutionConfig(
        workers=workers,
        min_parallel_pairs=0,
        min_parallel_comparisons=0,
    )


class TestExecutionConfig:
    def test_env_sets_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert ExecutionConfig().resolved_workers() == 3

    def test_unset_env_means_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        config = ExecutionConfig()
        assert config.resolved_workers() == 1
        assert not config.parallel

    def test_empty_env_means_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "")
        assert ExecutionConfig().resolved_workers() == 1

    @pytest.mark.parametrize("value", ["0", "-2", "abc", "4x"])
    def test_bad_env_raises_naming_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_WORKERS", value)
        with pytest.raises(ValueError, match="REPRO_WORKERS") as excinfo:
            ExecutionConfig()
        assert repr(value) in str(excinfo.value)

    def test_explicit_workers_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert ExecutionConfig(workers=2).resolved_workers() == 2

    def test_bad_env_does_not_affect_explicit_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "abc")
        assert ExecutionConfig(workers=2).resolved_workers() == 2

    def test_single_worker_is_serial(self):
        assert not ExecutionConfig(workers=1).parallel
        assert ExecutionConfig(workers=2).parallel

    def test_rejects_zero_workers_and_bad_timeout(self):
        with pytest.raises(ValueError):
            ExecutionConfig(workers=0)
        with pytest.raises(ValueError):
            ExecutionConfig(workers=2, task_timeout_s=0)

    def test_serial_shorthand(self):
        assert not ExecutionConfig.serial().parallel

    def test_fields_are_the_four_scheduling_knobs(self):
        assert [f.name for f in dataclasses.fields(ExecutionConfig)] == [
            "workers",
            "min_parallel_pairs",
            "min_parallel_comparisons",
            "task_timeout_s",
        ]
        with pytest.raises(TypeError):
            ExecutionConfig(workers=2, candidate_cache_size=8)


class TestPartitionPlanner:
    def test_cost_partitions_are_contiguous_and_cover(self):
        planner = PartitionPlanner(workers=4, partitions_per_worker=4)
        partitions = planner.partition_costs([1] * 1003)
        assert partitions[0].start == 0
        assert partitions[-1].stop == 1003
        for previous, current in zip(partitions, partitions[1:]):
            assert previous.stop == current.start
        sizes = [len(p) for p in partitions]
        assert max(sizes) - min(sizes) <= 1

    def test_fewer_items_than_partitions(self):
        planner = PartitionPlanner(workers=4, partitions_per_worker=4)
        partitions = planner.partition_costs([5, 5, 5])
        assert [len(p) for p in partitions] == [1, 1, 1]
        assert planner.partition_costs([]) == []

    def test_block_partitions_balance_cardinality(self):
        table, _ = generate_people(300, seed=9)
        index = TableIndex(table)
        sizes = index.postings.sizes_of(np.arange(len(index.vocabulary))).tolist()
        costs = [size * (size - 1) // 2 for size in sizes if size >= 2]
        planner = PartitionPlanner(workers=4, partitions_per_worker=1)
        partitions = planner.partition_costs(costs)
        assert partitions[0].start == 0
        assert partitions[-1].stop == len(costs)
        for previous, current in zip(partitions, partitions[1:]):
            assert previous.stop == current.start
        spans = [sum(costs[p.start : p.stop]) for p in partitions]
        assert len(partitions) > 1
        # No span should dwarf the ideal share (contiguity permitting).
        assert max(spans) < sum(spans) * 0.75


class TestDeterministicMerger:
    def test_merge_is_arrival_order_independent(self):
        results = [
            GraphResult(1, np.array([7, 3]), np.array([0.5, 0.25]), {0: 1}),
            GraphResult(0, np.array([3, 9]), np.array([0.125, 1.0]), {0: 1, 2: 1}),
        ]
        forward = DeterministicMerger.merge_span_segments(results, 3, True)
        backward = DeterministicMerger.merge_span_segments(results[::-1], 3, True)
        for got in (forward, backward):
            keys, sums, counts = got
            assert keys.tolist() == [3, 7, 9]
            # Key 3: partition 0's contribution first, then partition 1's.
            assert sums.tolist() == [0.125 + 0.25, 0.5, 1.0]
            assert counts == [2, 0, 1]

    def test_merge_of_nothing_is_empty(self):
        keys, sums, counts = DeterministicMerger.merge_span_segments([], 2, False)
        assert len(keys) == 0 and len(sums) == 0 and counts == [0, 0]


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


class TestEngineInvalidation:
    """INSERT INTO followed by a parallel DEDUP sees the new rows."""

    SQL = "SELECT DEDUP id, title, author, venue FROM P WHERE venue = 'EDBT'"

    @staticmethod
    def _engine(publications, use_link_index=False):
        from repro.er.meta_blocking import MetaBlockingConfig
        from repro.storage.table import Table

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
        with self._engine(publications) as engine:
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
        with self._engine(publications) as engine:
            first = engine.execute(self.SQL)
            second = engine.execute(self.SQL)
        assert second.sorted_rows() == first.sorted_rows()
        assert second.comparisons == first.comparisons > 0

    def test_clear_caches_restores_cold_behaviour(self, publications):
        with self._engine(publications, use_link_index=True) as engine:
            cold = engine.execute(self.SQL)
            warm = engine.execute(self.SQL)
            engine.clear_caches()
            again = engine.execute(self.SQL)
        assert warm.comparisons < cold.comparisons
        assert again.comparisons == cold.comparisons
        assert again.sorted_rows() == warm.sorted_rows() == cold.sorted_rows()


class TestBatchParallel:
    def test_standalone_executor_runs_serially_and_equals_serial(self):
        """No engine state to keep resident: every run stays here."""
        table, _ = generate_people(250, seed=17)
        serial = batch_deduplicate(TableIndex(table))
        executor = ParallelComparisonExecutor(parallel_config())
        assert executor.shard_runtime is None
        parallel = batch_deduplicate(TableIndex(table), executor=executor)
        assert set(serial.links) == set(parallel.links)
        assert executor.stats["serial_match_runs"] >= 1
        assert executor.stats["parallel_match_runs"] == 0

    @needs_fork
    def test_engine_executor_ships_to_shards_and_equals_serial(self):
        table, _ = generate_people(250, seed=17)
        serial = batch_deduplicate(TableIndex(table))
        with QueryEREngine(execution=parallel_config()) as engine:
            index = engine.register(table)
            executor = engine.parallel_executor
            parallel = batch_deduplicate(
                index, matcher=engine.matcher_for(index), executor=executor
            )
            assert set(serial.links) == set(parallel.links)
            assert executor.stats["parallel_match_runs"] >= 1


@needs_fork
class TestBatchModeWiring:
    def test_batch_execution_mode_uses_and_matches_the_shards(self):
        from repro.core.planner import ExecutionMode

        table, _ = generate_people(250, seed=21)
        sql = "SELECT DEDUP id, given_name, surname FROM PPL WHERE state = 'nsw'"

        serial_engine = QueryEREngine(execution=ExecutionConfig.serial())
        serial_engine.register(table)
        expected = serial_engine.execute(sql, ExecutionMode.BATCH)
        with QueryEREngine(execution=parallel_config()) as parallel_engine:
            parallel_engine.register(table)
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
            assert "scheduling: workers=2\n" in text
            assert (
                f"scheduling: parallel_match_runs=0 "
                f"serial_match_runs={stats['serial_match_runs']} " in text
            )
            assert "backend=" not in text and "runtime=" not in text
            # Nothing crossed a threshold, so no worker was ever forked.
            assert not engine.parallel_executor.shard_status()["started"]

    @needs_fork
    def test_the_remainder_not_the_candidate_count_is_what_gets_shipped(self):
        table, _ = generate_people(120, seed=8)
        pairs = [(a.id, b.id) for a in table for b in table if a.id < b.id]
        from repro.er.matching import ProfileMatcher

        reference = ProfileMatcher(exclude=("id",))
        expected = reference.match_pair_indices(pairs, TableIndex(table).signatures)
        undecided = reference.cascade_stats["exact_fallbacks"]
        assert 0 < undecided < len(pairs)
        # Thousands of candidates, a threshold just above the remainder: serial.
        for threshold, runs in ((undecided + 1, (1, 0)), (undecided, (0, 1))):
            config = ExecutionConfig(workers=2, min_parallel_pairs=threshold)
            with QueryEREngine(execution=config) as engine:
                index = engine.register(table)
                executor = engine.parallel_executor
                matcher = ProfileMatcher(exclude=("id",))
                assert executor.match_pairs(index, matcher, pairs) == expected
                stats = executor.stats
                assert (stats["serial_match_runs"], stats["parallel_match_runs"]) == runs


class TestSerialByDefault:
    def test_serial_config_keeps_pre_subsystem_path(self):
        engine = QueryEREngine(execution=ExecutionConfig.serial())
        assert engine.parallel_executor is None

    def test_default_engine_has_no_executor(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert QueryEREngine().parallel_executor is None

    def test_env_workers_give_the_engine_shards(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        engine = QueryEREngine()
        assert engine.parallel_executor is not None
        assert engine.parallel_executor.workers == 2
        engine.close()

    def test_lookup_above_the_thresholds_forks_nothing(self, monkeypatch):
        """Even work that a multi-worker engine would ship stays here."""
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        table, _ = generate_people(400, seed=31)
        engine = QueryEREngine(
            execution=ExecutionConfig(min_parallel_pairs=1, min_parallel_comparisons=1)
        )
        engine.register(table)
        assert engine.parallel_executor is None
        ids = ", ".join(str(row.id) for row in list(table)[:25])
        gc.collect()
        multiprocessing.active_children()  # reap anything already finished
        children = len(multiprocessing.active_children())
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        result = engine.execute(f"SELECT DEDUP id, surname FROM PPL WHERE id IN ({ids})")
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert result.comparisons > 0
        assert len(multiprocessing.active_children()) == children
        assert (after.ru_utime, after.ru_stime) == (before.ru_utime, before.ru_stime)
