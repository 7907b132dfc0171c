"""Engine lifecycle: what an engine holds, and that ``close()`` lets it go.

Comparison-Execution runs in the calling thread, so a plain engine holds
no process, thread or pipe.  The one long-lived resource is the
checkpointer's background writer thread: ``close()`` (or leaving a
``with`` block) must drain and join it, however many engines come and
go.  These tests count ``/proc/self/fd``, live threads and live children
across many create → insert → query → close cycles.
"""

from __future__ import annotations

import gc
import importlib.util
import multiprocessing
import os
import threading

import pytest

from repro.core.engine import QueryEREngine
from repro.storage.schema import Schema
from repro.storage.table import Table

needs_procfs = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc fd accounting"
)

SQL = "SELECT DEDUP id, title FROM pubs WHERE year >= 1990"
SCHEMA = Schema.of("id", "title", "year", "venue")
WRITER = "repro-checkpoint-writer"


def make_rows(n: int = 40):
    rows = [
        (i, f"title about entity {i % 11} record", 1990 + (i % 20), f"venue {i % 3}")
        for i in range(n)
    ]
    rows += [
        (n + i, f"title about entity {i % 11} record", 1990 + (i % 20), f"venue {i % 3}")
        for i in range(0, n, 5)
    ]
    return rows


def make_engine(rows=None) -> QueryEREngine:
    engine = QueryEREngine()
    engine.register(Table("pubs", SCHEMA, list(rows or make_rows())))
    return engine


def extra_rows(start: int, count: int = 3):
    return [(start + i, f"title about entity {i} record", 2001, "venue 1") for i in range(count)]


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def writer_threads() -> int:
    return sum(1 for thread in threading.enumerate() if thread.name == WRITER)


class TestCheckpointTeardown:
    @needs_procfs
    def test_many_checkpointing_lifecycles_leak_no_fds_or_threads(self, tmp_path):
        def cycle(number: int):
            engine = make_engine()
            engine.enable_checkpointing(tmp_path / f"snapshot-{number}", background=True)
            engine.insert("pubs", extra_rows(1000))
            assert engine.execute(SQL).rows
            engine.close()

        cycle(0)  # warm interpreter-level one-time allocations
        gc.collect()
        baseline_fds = open_fds()
        baseline_threads = threading.active_count()
        baseline_writers = writer_threads()
        for number in range(1, 9):
            cycle(number)
        gc.collect()
        assert writer_threads() == baseline_writers
        assert threading.active_count() <= baseline_threads
        # Strictly bounded: a per-cycle leak of even one fd would add 8+.
        assert open_fds() <= baseline_fds + 2

    def test_close_joins_the_background_writer(self, tmp_path):
        baseline = writer_threads()
        engine = make_engine()
        engine.enable_checkpointing(tmp_path, background=True)
        assert writer_threads() == baseline + 1
        engine.insert("pubs", extra_rows(1000))
        engine.close()
        assert writer_threads() == baseline
        engine.close()  # idempotent
        with QueryEREngine.load(tmp_path) as warm:
            assert warm.table_epochs() == engine.table_epochs()

    def test_sibling_engines_checkpoint_independently(self, tmp_path):
        """Closing A stops A's writer only; B keeps checkpointing."""
        baseline = writer_threads()
        a, b = make_engine(), make_engine()
        a.enable_checkpointing(tmp_path / "a", background=True)
        b.enable_checkpointing(tmp_path / "b", background=True)
        a.insert("pubs", extra_rows(1000))
        a.close()
        assert writer_threads() == baseline + 1
        b.insert("pubs", extra_rows(2000))
        b.insert("pubs", extra_rows(3000))
        b.close()
        assert writer_threads() == baseline
        for directory, live in ((tmp_path / "a", a), (tmp_path / "b", b)):
            with QueryEREngine.load(directory) as warm:
                assert warm.table_epochs() == live.table_epochs()
                assert warm.execute(SQL).sorted_rows() == live.execute(SQL).sorted_rows()


class TestSerialExecution:
    def test_engine_holds_no_process_or_thread(self, monkeypatch):
        """``REPRO_WORKERS`` is no longer read: a DEDUP forks nothing."""
        monkeypatch.setenv("REPRO_WORKERS", "2")
        children = len(multiprocessing.active_children())
        threads = threading.active_count()
        with make_engine() as engine:
            assert engine.execute(SQL).rows
            engine.insert("pubs", extra_rows(1000))
            assert engine.execute(SQL).rows
            assert len(multiprocessing.active_children()) <= children
            assert threading.active_count() <= threads

    def test_engine_takes_no_execution_argument(self):
        with pytest.raises(TypeError, match="execution"):
            QueryEREngine(execution=2)

    def test_the_package_ships_no_worker_runtime(self):
        assert importlib.util.find_spec("repro.parallel") is None

    def test_explain_analyze_has_no_scheduling_block(self):
        with make_engine() as engine:
            lines = [row[0] for row in engine.execute("EXPLAIN ANALYZE " + SQL).rows]
        assert any(line.startswith("stage ") for line in lines)
        assert not any(line.startswith("scheduling") for line in lines)
