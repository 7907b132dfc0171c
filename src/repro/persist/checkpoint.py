"""Incremental checkpoints: committed INSERT batches become delta segments.

A :class:`CheckpointManager` attaches to a live engine and keeps an
on-disk snapshot (:mod:`repro.persist.snapshot`) in step with it:

* :meth:`ensure_snapshot` writes a full base snapshot when the
  directory is empty (or stale against the live engine) — the cold
  path a warm restart later skips.
* :meth:`on_commit` runs after every *committed* ``INSERT INTO`` batch
  (the engine calls it strictly after the epoch advanced; rolled-back
  inserts never reach this hook, hence never reach disk).  It captures
  the batch — new rows, their blocking-key CSR, the vocabulary delta,
  the post-invalidation Link-Index state — synchronously, inside the
  serving layer's engine gate, then writes an epoch-tagged
  ``delta-<epoch>.npz`` either inline or on a background writer thread.
* Once a table accumulates more than ``delta_threshold`` delta
  segments, they are **compacted** disk-side (decode → concatenate →
  re-encode; the live engine is never touched) into a new base.

Capture, entry writing and segment reading are the snapshot module's
own (:func:`~repro.persist.snapshot.capture_table`,
:func:`~repro.persist.snapshot.write_table_entry`,
:func:`~repro.persist.snapshot.read_table_entry`), so a checkpointed
table is written exactly as :func:`~repro.persist.snapshot.save_engine`
writes it, and compaction checks the segments as a load does.

Checkpointing is best-effort by design: a failed write — out of disk,
or an injected ``persist.write`` / ``persist.rename`` fault — records a
``persist`` degradation and marks the table for a full base re-capture
at its next commit; it never fails the insert that triggered it, and
manifest-last ordering guarantees the previous snapshot stays loadable.
"""

from __future__ import annotations

import queue
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

from repro.persist import snapshot as snap
from repro.resilience import DEGRADATION

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine ↔ persist)
    from repro.core.engine import QueryEREngine

#: Compact a table once it holds more than this many delta segments.
DEFAULT_DELTA_THRESHOLD = 8


class CheckpointManager:
    """Keeps one snapshot directory in step with a live engine."""

    def __init__(
        self,
        engine: "QueryEREngine",
        directory: Union[str, Path],
        delta_threshold: int = DEFAULT_DELTA_THRESHOLD,
        background: bool = False,
    ):
        self.engine = engine
        self.directory = Path(directory)
        self.delta_threshold = max(1, int(delta_threshold))
        self.background = background
        self._lock = threading.Lock()
        self._manifest: Optional[Dict[str, Any]] = None
        # Capture-side cursors (advanced at capture time, under the
        # engine gate) vs the manifest (advanced only on successful
        # writes); a write failure desynchronizes them, which
        # _needs_base repairs with a full re-capture.
        self._captured_rows: Dict[str, int] = {}
        self._captured_vocab_len: Dict[str, int] = {}
        self._needs_base: Dict[str, bool] = {}
        self.checkpoints_written = 0
        self.checkpoint_failures = 0
        self.compactions = 0
        self.last_checkpoint_unix: Optional[float] = None
        self._queue: "queue.Queue[Optional[snap.TableCapture]]" = queue.Queue()
        self._writer: Optional[threading.Thread] = None
        if background:
            self._writer = threading.Thread(
                target=self._writer_loop, name="repro-checkpoint-writer", daemon=True
            )
            self._writer.start()

    # -- lifecycle --------------------------------------------------------
    def ensure_snapshot(self) -> bool:
        """Make the directory hold a snapshot matching the live engine.

        Returns ``True`` when a fresh base snapshot had to be written,
        ``False`` when the existing one already matches (the warm-start
        path: the engine was just loaded from this very directory).
        """
        with self._lock:
            manifest = snap.read_manifest(self.directory)
            if manifest is not None and self._matches_engine(manifest):
                self._manifest = manifest
                self._reset_cursors_locked()
                return False
            self._manifest = snap.save_engine(self.engine, self.directory)
            self._reset_cursors_locked()
            self.last_checkpoint_unix = time.time()
            return True

    def _matches_engine(self, manifest: Dict[str, Any]) -> bool:
        epochs = self.engine.table_epochs()
        tables = manifest.get("tables", {})
        if set(tables) != set(epochs):
            return False
        return all(tables[key]["epoch"] == epochs[key] for key in epochs)

    def _reset_cursors_locked(self) -> None:
        self._captured_rows.clear()
        self._captured_vocab_len.clear()
        self._needs_base.clear()
        for key, entry in (self._manifest or {}).get("tables", {}).items():
            self._captured_rows[key] = entry["rows"]
            self._captured_vocab_len[key] = entry["vocab_len"]

    def flush(self) -> None:
        """Block until every queued checkpoint has been written."""
        if self.background:
            self._queue.join()

    def close(self) -> None:
        """Drain the queue and stop the background writer."""
        if self._writer is not None:
            self._queue.join()
            self._queue.put(None)
            self._writer.join(timeout=10.0)
            self._writer = None

    # -- capture (engine-gate side) ---------------------------------------
    def on_commit(self, table_name: str, count: int) -> None:
        """Checkpoint one committed batch.  Never raises into the insert."""
        try:
            capture = self._capture(table_name)
        except Exception as error:  # capture bug must not poison DML
            self.checkpoint_failures += 1
            DEGRADATION.record(
                "persist",
                "capture",
                f"checkpoint capture for {table_name!r} failed: {error!r}",
            )
            self._needs_base[table_name.lower()] = True
            return
        if capture is None:
            return
        if self.background:
            self._queue.put(capture)
        else:
            self._write_capture(capture)

    def _capture(self, table_name: str) -> Optional[snap.TableCapture]:
        """The table's rows past its last capture, or all of it as a base.

        A base is captured for a table never captured, one flagged after
        a failure, or one shorter than its last capture.
        """
        key = table_name.lower()
        index = self.engine.index_of(key)
        rows = len(index.table)
        start = vocab_from = 0
        known = key in self._captured_rows and not self._needs_base.get(key)
        if known and self._captured_rows[key] <= rows:
            start, vocab_from = self._captured_rows[key], self._captured_vocab_len[key]
            if start == rows:
                return None  # nothing new (count == 0 commit)
        capture = snap.capture_table(index, self.engine.epoch_of(key), start, vocab_from)
        self._captured_rows[key] = rows
        self._captured_vocab_len[key] = capture.header["vocab_len"]
        if capture.kind == "base":
            self._needs_base[key] = False
        return capture

    # -- write (disk side) -------------------------------------------------
    def _writer_loop(self) -> None:
        while True:
            capture = self._queue.get()
            try:
                if capture is None:
                    return
                self._write_capture(capture)
            finally:
                self._queue.task_done()

    def _write_capture(self, capture: snap.TableCapture) -> None:
        with self._lock:
            try:
                self._write_capture_locked(capture)
                self.checkpoints_written += 1
                self.last_checkpoint_unix = time.time()
            except Exception as error:
                self.checkpoint_failures += 1
                self._needs_base[capture.key] = True
                DEGRADATION.record(
                    "persist",
                    "checkpoint",
                    f"{capture.kind} checkpoint of {capture.key!r} "
                    f"(epoch {capture.epoch}) failed: {error!r}; "
                    "previous snapshot remains loadable",
                )

    def _write_capture_locked(self, capture: snap.TableCapture) -> None:
        """Write *capture*, compact if due, then the manifest.

        The in-memory manifest is replaced only once the new one is on
        disk, so a failed write or compaction leaves it describing the
        on-disk snapshot.
        """
        if self._manifest is None:
            self._manifest = snap.read_manifest(self.directory) or {"tables": {}}
        entry = self._manifest["tables"].get(capture.key)
        end = (entry["rows"], entry["vocab_len"]) if entry else None
        if capture.kind == "delta" and end != (capture.start, capture.vocab_from):
            # A predecessor failed or was dropped: this delta no longer
            # splices onto the on-disk chain.  Skip it; the table is
            # flagged for a base re-capture already.
            raise snap.SnapshotError(
                f"delta for {capture.key!r} starts at (row, token) "
                f"{(capture.start, capture.vocab_from)}, snapshot ends at {end}"
            )
        entry = snap.write_table_entry(self.directory, capture, entry)
        if self._delta_count(entry) > self.delta_threshold:
            self._compact(capture.key, entry)
        manifest = {**self._manifest, "tables": {**self._manifest["tables"], capture.key: entry}}
        snap.write_manifest(self.directory, snap.stamp_manifest(manifest, self.engine))
        self._manifest = manifest
        snap.sweep_unreferenced(self.directory, manifest)

    @staticmethod
    def _delta_count(entry: Dict[str, Any]) -> int:
        return sum(1 for s in entry["segments"] if s["kind"] == "delta")

    # -- compaction (pure disk side) ---------------------------------------
    def _compact(self, key: str, entry: Dict[str, Any]) -> None:
        """Merge *entry*'s base + deltas into one fresh base segment.

        Reads only already-written files, through the loader's checked
        reader — the live engine is never read, so compaction is safe on
        the background writer no matter what queries run meanwhile.
        """
        table, vocabulary, indptr, tokens = snap.read_table_entry(self.directory, entry)
        arrays = snap.segment_arrays(table, 0, indptr, tokens, vocabulary.tokens(0))
        entry["segments"] = [
            snap.write_segment(self.directory, key, "base", entry["epoch"], len(table), arrays)
        ]
        self.compactions += 1

    # -- observability ------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """Snapshot-health block for ``/healthz`` and ``/metrics``."""
        with self._lock:
            manifest = self._manifest or {}
            tables = manifest.get("tables", {})
            now = time.time()
            return {
                "directory": str(self.directory),
                "snapshot_epoch_map": {k: e["epoch"] for k, e in tables.items()},
                "delta_segments": sum(self._delta_count(e) for e in tables.values()),
                "last_checkpoint_unix": self.last_checkpoint_unix,
                "last_checkpoint_age_s": (
                    round(now - self.last_checkpoint_unix, 3)
                    if self.last_checkpoint_unix is not None
                    else None
                ),
                "checkpoints_written": self.checkpoints_written,
                "checkpoint_failures": self.checkpoint_failures,
                "compactions": self.compactions,
                "background": self.background,
                "pending": self._queue.qsize() if self.background else 0,
            }
