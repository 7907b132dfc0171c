"""Teardown regression tests: no fd or process leak across engine lifecycles.

The persistent shard runtime holds one duplex pipe per worker, and each
forked worker inherits every parent-end pipe open at fork time.  Without
disciplined close-on-spawn/close-on-teardown this compounds: engine N's
workers would hold N-1 engines' pipe fds open, and dropping an engine
without ``close()`` would strand daemon workers.  These tests pin both
properties by counting ``/proc/self/fd`` (and live children) across many
create → query → close cycles.
"""

from __future__ import annotations

import gc
import multiprocessing
import os

import pytest

from repro.core.engine import QueryEREngine
from repro.parallel import ExecutionConfig
from repro.parallel.config import fork_available
from repro.storage.schema import Schema
from repro.storage.table import Table

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork backend unavailable"
)
needs_procfs = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc fd accounting"
)

SQL = "SELECT DEDUP id, title FROM pubs WHERE year >= 1990"


def make_table(n: int = 40) -> Table:
    rows = [
        (i, f"title about entity {i % 11} record", 1990 + (i % 20), f"venue {i % 3}")
        for i in range(n)
    ]
    rows += [
        (n + i, f"title about entity {i % 11} record", 1990 + (i % 20), f"venue {i % 3}")
        for i in range(0, n, 5)
    ]
    return Table("pubs", Schema.of("id", "title", "year", "venue"), rows)


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def live_children() -> int:
    return len(multiprocessing.active_children())


def shard_config(workers: int = 2) -> ExecutionConfig:
    return ExecutionConfig(
        workers=workers,
        min_parallel_pairs=1,
        min_parallel_comparisons=1,
    )


@needs_fork
@needs_procfs
class TestShardTeardown:
    def test_many_engine_lifecycles_leak_no_fds(self):
        table_rows = [row.values for row in make_table()]
        schema = Schema.of("id", "title", "year", "venue")

        def cycle():
            engine = QueryEREngine(execution=shard_config())
            engine.register(Table("pubs", schema, list(table_rows)))
            engine.execute(SQL)
            assert engine.parallel_executor.shard_status()["alive"] == 2
            engine.close()

        cycle()  # warm interpreter-level one-time allocations
        gc.collect()
        baseline_fds = open_fds()
        baseline_children = live_children()
        for _ in range(8):
            cycle()
        gc.collect()
        assert live_children() == baseline_children
        # Strictly bounded: a per-cycle leak of even one fd would add 8+.
        assert open_fds() <= baseline_fds + 2

    def test_close_reaps_worker_processes(self):
        engine = QueryEREngine(execution=shard_config())
        engine.register(make_table())
        engine.execute(SQL)
        before = live_children()
        assert before >= 2
        engine.close()
        assert live_children() == before - 2

    def test_dropped_engine_finalizer_reaps_workers(self):
        engine = QueryEREngine(execution=shard_config())
        engine.register(make_table())
        engine.execute(SQL)
        assert live_children() >= 2
        baseline = live_children()
        del engine
        gc.collect()
        assert live_children() == baseline - 2

    def test_workers_do_not_hold_sibling_engine_pipes(self):
        """Two concurrent engines: closing A leaves B fully functional."""
        a = QueryEREngine(execution=shard_config())
        a.register(make_table())
        a.execute(SQL)
        b = QueryEREngine(execution=shard_config())
        b.register(make_table())
        b.execute(SQL)
        a.close()
        assert b.execute(SQL).rows
        assert b.parallel_executor.shard_status()["alive"] == 2
        b.close()
