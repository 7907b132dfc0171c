"""Unit tests of the shard runtime (repro.parallel.shards).

Recovery is driven deterministically through the runtime's fault sites:
``shard.task`` (a dispatch or worker failure: the bucket is re-run
serially in the parent), ``shard.task`` with the ``hang`` kind (contained
by the task timeout), ``shard.spawn`` and ``shard.delta``.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.core.engine import QueryEREngine
from repro.er.matching import ProfileMatcher
from repro.parallel import ExecutionConfig, ShardRuntime, TaskExecutionError, owner_of
from repro.parallel.config import _cgroup_quota_cores, fork_available
from repro.persist.snapshot import decode_delta_segment, delta_segment_arrays
from repro.resilience import DEGRADATION, FaultPlan, clear_plan, install_plan
from repro.storage.schema import Schema
from repro.storage.table import Table

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork backend unavailable"
)

SQL = "SELECT DEDUP id, title FROM pubs WHERE year >= 1990"


def make_table(n: int = 60, name: str = "pubs") -> Table:
    rows = []
    for i in range(n):
        rows.append((i, f"title about entity {i % 17} record", 1990 + (i % 30), f"venue {i % 5}"))
    for i in range(0, n, 6):
        rows.append((n + i, f"title about entity {i % 17} record", 1990 + (i % 30), f"venue {i % 5}"))
    return Table(name, Schema.of("id", "title", "year", "venue"), rows)


def shard_config(workers: int = 2, task_timeout_s: float = 300.0) -> ExecutionConfig:
    """Thresholds at the floor so tiny tables exercise the shard path."""
    return ExecutionConfig(
        workers=workers,
        min_parallel_pairs=1,
        min_parallel_comparisons=1,
        task_timeout_s=task_timeout_s,
    )


def shard_engine(
    workers: int = 2, table: Table | None = None, task_timeout_s: float = 300.0
) -> QueryEREngine:
    engine = QueryEREngine(execution=shard_config(workers, task_timeout_s))
    engine.register(table if table is not None else make_table())
    return engine


def serial_engine(table: Table | None = None) -> QueryEREngine:
    engine = QueryEREngine(execution=ExecutionConfig.serial())
    engine.register(table if table is not None else make_table())
    return engine


@pytest.fixture(autouse=True)
def _clean_faults():
    clear_plan()
    DEGRADATION.clear()
    yield
    clear_plan()
    DEGRADATION.clear()


class TestOwnerOf:
    def test_deterministic_and_in_range(self):
        for shards in (1, 2, 4, 7):
            for entity in (0, 1, 41, "P3", "x-9", 10**12, -5):
                owner = owner_of(entity, shards)
                assert 0 <= owner < shards
                assert owner == owner_of(entity, shards)

    def test_int_ids_partition_by_modulo(self):
        assert owner_of(10, 4) == 2
        assert owner_of(11, 4) == 3

    def test_bool_ids_hash_not_modulo(self):
        # bool is an int subclass; routing must not treat True as 1.
        assert owner_of(True, 2) == owner_of(True, 2)

    def test_string_ids_spread(self):
        owners = {owner_of(f"id-{i}", 4) for i in range(64)}
        assert owners == {0, 1, 2, 3}


class TestDeltaCodec:
    def test_roundtrip_rows_and_keys(self):
        engine = serial_engine()
        table = engine.catalog.get("pubs")
        index = engine.index_of("pubs")
        start = len(table) - 5
        arrays = delta_segment_arrays(index, start, len(table))
        rows, keys = decode_delta_segment(table.schema, arrays)
        assert [tuple(r) for r in rows] == [
            table[i].values for i in range(start, len(table))
        ]
        for offset, row_keys in enumerate(keys):
            attributes = index.entities.attributes_of_row(table[start + offset])
            assert set(row_keys) == index.blocking.keys_for(attributes)

    def test_segment_vocab_is_self_contained(self):
        """Token ids index the delta's own vocab, not the parent's."""
        engine = serial_engine()
        index = engine.index_of("pubs")
        table = engine.catalog.get("pubs")
        arrays = delta_segment_arrays(index, len(table) - 3, len(table))
        n_tokens = len(arrays["vocab.offsets"]) - 1
        assert all(0 <= t < n_tokens for t in arrays["itbi.tokens"])


class TestUsableCores:
    def test_cgroup_quota_caps(self, tmp_path):
        limit = tmp_path / "cpu.max"
        limit.write_text("200000 100000\n")
        assert _cgroup_quota_cores(str(limit)) == 2

    def test_cgroup_max_means_unlimited(self, tmp_path):
        limit = tmp_path / "cpu.max"
        limit.write_text("max 100000\n")
        assert _cgroup_quota_cores(str(limit)) is None

    def test_cgroup_partial_core_rounds_up_to_one(self, tmp_path):
        limit = tmp_path / "cpu.max"
        limit.write_text("50000 100000\n")
        assert _cgroup_quota_cores(str(limit)) == 1

    def test_missing_or_garbage_file_is_ignored(self, tmp_path):
        assert _cgroup_quota_cores(str(tmp_path / "nope")) is None
        bad = tmp_path / "cpu.max"
        bad.write_text("not numbers\n")
        assert _cgroup_quota_cores(str(bad)) is None


class TestRuntimeSelection:
    @needs_fork
    def test_more_than_one_worker_means_shards(self):
        engine = QueryEREngine(execution=ExecutionConfig(workers=2))
        assert engine.parallel_executor.shard_runtime is not None
        # Forked lazily: nothing runs until a query crosses a threshold.
        assert not engine.parallel_executor.shard_status()["started"]
        engine.close()

    def test_one_worker_means_no_runtime(self):
        assert QueryEREngine(execution=ExecutionConfig(workers=1)).parallel_executor is None


@needs_fork
class TestShardRuntimeLifecycle:
    def test_spawns_once_and_reuses(self):
        engine = shard_engine()
        try:
            engine.execute(SQL)
            engine.execute(SQL)
            status = engine.parallel_executor.shard_status()
            assert status["spawns"] == status["workers"]
            assert status["alive"] == status["workers"]
            assert status["respawns"] == 0
            pids = [shard["alive"] for shard in status["shards"]]
            assert all(pids)
        finally:
            engine.close()

    def test_close_is_idempotent_and_queries_survive(self):
        engine = shard_engine()
        expected = serial_engine().execute(SQL).rows
        try:
            assert engine.execute(SQL).rows == expected
        finally:
            engine.close()
            engine.close()
        status = engine.parallel_executor.shard_status()
        assert status["alive"] == 0 and not status["started"]
        # A closed runtime computes serially in the parent, same answer.
        assert engine.execute(SQL).rows == expected
        engine.close()

    def test_context_manager_closes(self):
        with shard_engine() as engine:
            engine.execute(SQL)
            runtime = engine.parallel_executor.shard_runtime
            assert runtime.status()["alive"] > 0
        assert runtime.status()["alive"] == 0

    def test_register_resets_shards(self):
        engine = shard_engine()
        try:
            engine.execute(SQL)
            assert engine.parallel_executor.shard_status()["started"]
            engine.register(make_table(name="other"))
            assert not engine.parallel_executor.shard_status()["started"]
            # Querying the new table (cold LI, real comparisons) respawns
            # workers from the two-table state.
            assert engine.execute(SQL.replace("pubs", "other")).rows
            assert engine.parallel_executor.shard_status()["started"]
        finally:
            engine.close()

    def test_status_shape(self):
        engine = shard_engine(workers=2)
        try:
            engine.execute(SQL)
            status = engine.parallel_executor.shard_status()
            assert status["workers"] == 2
            assert len(status["shards"]) == 2
            for shard in status["shards"]:
                assert {"id", "alive", "tasks", "deltas", "delta_lag"} <= set(shard)
        finally:
            engine.close()


@needs_fork
class TestDeltaShipping:
    def test_insert_ships_delta_and_stays_identical(self):
        serial = serial_engine()
        engine = shard_engine()
        insert = "INSERT INTO pubs VALUES (900, 'title about entity 3 record', 1993, 'venue 3')"
        try:
            engine.execute(SQL)
            serial.execute(insert)
            engine.execute(insert)
            assert engine.execute(SQL).rows == serial.execute(SQL).rows
            status = engine.parallel_executor.shard_status()
            assert status["deltas_published"] == status["workers"]
            assert all(s["delta_lag"] == 0 for s in status["shards"])
        finally:
            engine.close()

    def test_insert_before_spawn_needs_no_delta(self):
        serial = serial_engine()
        engine = shard_engine()
        insert = "INSERT INTO pubs VALUES (901, 'title about entity 5 record', 1995, 'venue 0')"
        try:
            serial.execute(insert)
            engine.execute(insert)  # shards not spawned yet
            assert engine.execute(SQL).rows == serial.execute(SQL).rows
            assert engine.parallel_executor.shard_status()["deltas_published"] == 0
        finally:
            engine.close()


@needs_fork
class TestShardRecovery:
    def test_task_fault_falls_back_serial_and_matches(self):
        expected = serial_engine().execute(SQL).rows
        install_plan(FaultPlan.parse("shard.task:times=1"))
        engine = shard_engine()
        try:
            assert engine.execute(SQL).rows == expected
            status = engine.parallel_executor.shard_status()
            assert status["serial_fallbacks"] >= 1
            assert any(e.site == "shard_serial_retry" for e in DEGRADATION.events())
        finally:
            engine.close()

    def test_failed_serial_rerun_raises_task_execution_error(self):
        """Recovery is exhausted only when the parent's re-run fails too."""

        class BrokenMatcher(ProfileMatcher):
            def resolve_pending(self, pairs, signatures, pending):
                raise RuntimeError("stage 3 is broken")

        engine = shard_engine()
        try:
            engine.execute(SQL)  # spawn the shards
            index = engine.index_of("pubs")
            ids = list(index.table.ids)
            pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
            matcher = BrokenMatcher(exclude=("id",))
            # Every dispatch fails, so every bucket is re-run — and raises.
            install_plan(FaultPlan.parse("shard.task:times=inf"))
            with pytest.raises(TaskExecutionError) as excinfo:
                engine.parallel_executor.match_pairs(index, matcher, pairs)
            assert isinstance(excinfo.value.__cause__, RuntimeError)
            assert any(e.site == "task_failed" for e in DEGRADATION.events())
        finally:
            engine.close()

    def test_hung_worker_is_contained_by_the_task_timeout(self):
        """A worker sleeping past the timeout is killed, its bucket is
        re-run serially, and the next query respawns it."""
        expected = serial_engine().execute(SQL).rows
        engine = shard_engine(task_timeout_s=0.2)
        try:
            # Armed before the workers fork, so each inherits the plan
            # and hangs on its first task; the parent's own first
            # dispatch sleeps once too, before any deadline starts.
            install_plan(FaultPlan.parse("shard.task:hang:delay=0.8:times=1"))
            assert engine.execute(SQL).rows == expected
            status = engine.parallel_executor.shard_status()
            assert status["serial_fallbacks"] >= 1
            events = DEGRADATION.events()
            assert any("TimeoutError" in e.detail for e in events)
            clear_plan()
            engine.clear_caches()
            assert engine.execute(SQL).rows == expected
            assert engine.parallel_executor.shard_status()["respawns"] >= 1
        finally:
            engine.close()

    def test_spawn_fault_degrades_to_serial(self):
        expected = serial_engine().execute(SQL).rows
        install_plan(FaultPlan.parse("shard.spawn:times=2"))
        before = len(DEGRADATION)
        engine = shard_engine()
        try:
            assert engine.execute(SQL).rows == expected
            events = list(DEGRADATION.events())[before:]
            assert any(e.site == "shard_spawn" for e in events)
        finally:
            engine.close()

    def test_delta_fault_kills_and_respawns_current(self):
        serial = serial_engine()
        insert = "INSERT INTO pubs VALUES (902, 'title about entity 7 record', 1997, 'venue 2')"
        install_plan(FaultPlan.parse("shard.delta:times=1"))
        engine = shard_engine()
        try:
            engine.execute(SQL)
            serial.execute(insert)
            engine.execute(insert)
            status = engine.parallel_executor.shard_status()
            assert status["delta_failures"] == 1
            # The killed shard respawns from current engine state on the
            # next query, so the answer still matches serial bit for bit.
            assert engine.execute(SQL).rows == serial.execute(SQL).rows
            assert engine.parallel_executor.shard_status()["respawns"] >= 1
        finally:
            engine.close()

    def test_dead_worker_process_respawns(self):
        serial = serial_engine()
        engine = shard_engine()
        insert = "INSERT INTO pubs VALUES (903, 'title about entity 9 record', 1999, 'venue 4')"
        try:
            engine.execute(SQL)
            runtime = engine.parallel_executor.shard_runtime
            victim = runtime._shards[0]
            os.kill(victim.process.pid, signal.SIGKILL)
            victim.process.join(5.0)
            # The insert invalidates LI clusters, so the next query runs
            # real comparisons; ensure_started respawns the dead shard
            # from current (post-insert) engine state.
            serial.execute(insert)
            engine.execute(insert)
            assert engine.execute(SQL).rows == serial.execute(SQL).rows
            status = runtime.status()
            assert status["respawns"] >= 1
            assert status["alive"] == status["workers"]
        finally:
            engine.close()


@needs_fork
class TestObservability:
    def test_explain_analyze_scheduling_lines(self):
        engine = shard_engine()
        try:
            engine.execute(SQL)
            report = engine.execute("EXPLAIN ANALYZE " + SQL)
            text = "\n".join(str(row[0]) for row in report.rows)
            assert "scheduling: workers=2\n" in text
            assert "backend=" not in text and "runtime=" not in text
            assert "scheduling: shards alive=" in text
            assert "scheduling: shard 0:" in text
        finally:
            engine.close()

    def test_metrics_snapshot_has_shard_block(self):
        from repro.serving import EngineService

        engine = shard_engine()
        try:
            service = EngineService(engine, log_stream=None)
            engine.execute(SQL)
            snapshot = service.metrics_snapshot()
            assert "shards" in snapshot
            assert snapshot["shards"]["workers"] == 2
            assert len(snapshot["shards"]["shards"]) == 2
        finally:
            engine.close()

    def test_serial_engine_has_no_shard_block(self):
        from repro.serving import EngineService

        engine = serial_engine()
        service = EngineService(engine, log_stream=None)
        engine.execute(SQL)
        assert "shards" not in service.metrics_snapshot()


class TestRuntimeWithoutEngine:
    def test_unavailable_until_started_source_none(self):
        runtime = ShardRuntime(2, None)
        assert not runtime.ensure_started()
        runtime.close()
