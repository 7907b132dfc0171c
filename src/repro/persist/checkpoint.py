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
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

import numpy as np

from repro.persist import snapshot as snap
from repro.persist.columnar import columns_from_arrays, columns_to_arrays, encode_strings
from repro.resilience import DEGRADATION

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine ↔ persist)
    from repro.core.engine import QueryEREngine

#: Compact a table once it holds more than this many delta segments.
DEFAULT_DELTA_THRESHOLD = 8


@dataclass
class _Payload:
    """One captured checkpoint, immutable once enqueued.

    ``start_row`` / ``base_vocab_len`` pin the capture to an absolute
    position in the table; the writer verifies them against the on-disk
    manifest so a dropped or failed predecessor can never splice a gap
    (or an overlap) into the segment chain.
    """

    kind: str  # "base" | "delta"
    key: str
    epoch: int
    start_row: int
    rows: int
    base_vocab_len: int
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    state: Dict[str, Any] = field(default_factory=dict)
    entry_header: Dict[str, Any] = field(default_factory=dict)
    statistics: Optional[Dict[str, Any]] = None


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
        self._queue: "queue.Queue[Optional[_Payload]]" = queue.Queue()
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
            payload = self._capture(table_name, count)
        except Exception as error:  # capture bug must not poison DML
            self.checkpoint_failures += 1
            DEGRADATION.record(
                "persist",
                "capture",
                f"checkpoint capture for {table_name!r} failed: {error!r}",
            )
            self._needs_base[table_name.lower()] = True
            return
        if payload is None:
            return
        if self.background:
            self._queue.put(payload)
        else:
            self._write_payload(payload)

    def _capture(self, table_name: str, count: int) -> Optional[_Payload]:
        key = table_name.lower()
        index = self.engine.index_of(key)
        table = index.table
        epoch = self.engine.epoch_of(key)
        known = (
            key in self._captured_rows
            and not self._needs_base.get(key)
            and self._captured_rows[key] <= len(table)
        )
        if not known:
            return self._capture_base(key, index, epoch)
        start = self._captured_rows[key]
        vocab_from = self._captured_vocab_len[key]
        if start == len(table):
            return None  # nothing new (count == 0 commit)
        csr = index.to_arrays(start)
        arrays = snap.segment_arrays(
            table,
            start,
            len(table),
            csr["itbi_indptr"],
            csr["itbi_tokens"],
            index.vocabulary.tokens(vocab_from),
        )
        payload = _Payload(
            kind="delta",
            key=key,
            epoch=epoch,
            start_row=start,
            rows=len(table) - start,
            base_vocab_len=vocab_from,
            arrays=arrays,
            state=snap.link_state_payload(index),
            entry_header=self._entry_header(index, epoch),
            statistics=self._statistics_state(key),
        )
        self._captured_rows[key] = len(table)
        self._captured_vocab_len[key] = len(index.vocabulary)
        return payload

    def _capture_base(self, key: str, index: Any, epoch: int) -> _Payload:
        table = index.table
        csr = index.to_arrays()
        arrays = snap.segment_arrays(
            table,
            0,
            len(table),
            csr["itbi_indptr"],
            csr["itbi_tokens"],
            index.vocabulary.tokens(0),
        )
        payload = _Payload(
            kind="base",
            key=key,
            epoch=epoch,
            start_row=0,
            rows=len(table),
            base_vocab_len=0,
            arrays=arrays,
            state=snap.link_state_payload(index),
            entry_header=self._entry_header(index, epoch),
            statistics=self._statistics_state(key),
        )
        self._captured_rows[key] = len(table)
        self._captured_vocab_len[key] = len(index.vocabulary)
        self._needs_base[key] = False
        return payload

    def _entry_header(self, index: Any, epoch: int) -> Dict[str, Any]:
        return {
            "name": index.table.name,
            "epoch": epoch,
            "schema": snap.schema_state(index.table.schema),
            "blocking": snap.blocking_state(index.blocking),
            "vocab_len": len(index.vocabulary),
        }

    def _statistics_state(self, key: str) -> Optional[Dict[str, Any]]:
        statistics = self.engine._statistics.get(key)
        return statistics.to_state() if statistics is not None else None

    # -- write (disk side) -------------------------------------------------
    def _writer_loop(self) -> None:
        while True:
            payload = self._queue.get()
            try:
                if payload is None:
                    return
                self._write_payload(payload)
            finally:
                self._queue.task_done()

    def _write_payload(self, payload: _Payload) -> None:
        with self._lock:
            try:
                self._write_payload_locked(payload)
                self.checkpoints_written += 1
                self.last_checkpoint_unix = time.time()
            except Exception as error:
                self.checkpoint_failures += 1
                self._needs_base[payload.key] = True
                DEGRADATION.record(
                    "persist",
                    "checkpoint",
                    f"{payload.kind} checkpoint of {payload.key!r} "
                    f"(epoch {payload.epoch}) failed: {error!r}; "
                    "previous snapshot remains loadable",
                )

    def _write_payload_locked(self, payload: _Payload) -> None:
        if self._manifest is None:
            self._manifest = snap.read_manifest(self.directory) or {
                "format": snap.FORMAT,
                "saved_unix": int(time.time()),
                "engine": {},
                "epochs": {},
                "join_percentages": [],
                "tables": {},
            }
        tables = self._manifest.setdefault("tables", {})
        entry = tables.get(payload.key)
        if payload.kind == "delta":
            if entry is None or entry["rows"] != payload.start_row:
                # A predecessor failed or was dropped: this delta no
                # longer splices onto the on-disk chain.  Skip it; the
                # table is flagged for a base re-capture already.
                self._needs_base[payload.key] = True
                raise snap.SnapshotError(
                    f"delta for {payload.key!r} starts at row {payload.start_row}, "
                    f"snapshot holds {entry['rows'] if entry else 'no'} rows"
                )
            segment_file = snap.table_file(payload.key, "delta", payload.epoch)
        else:
            segment_file = snap.table_file(payload.key, "base", payload.epoch)
        sha, nbytes = snap.write_npz(self.directory / segment_file, payload.arrays)
        state_file = snap.table_file(payload.key, "state", payload.epoch)
        state_sha = snap.write_json(self.directory / state_file, payload.state)
        segment = {
            "kind": payload.kind,
            "file": segment_file,
            "rows": payload.rows,
            "epoch": payload.epoch,
            "sha256": sha,
            "bytes": nbytes,
        }
        if payload.kind == "delta":
            new_entry = dict(entry)
            new_entry["segments"] = entry["segments"] + [segment]
            new_entry["rows"] = entry["rows"] + payload.rows
        else:
            new_entry = {"segments": [segment], "rows": payload.rows}
        new_entry.update(payload.entry_header)
        new_entry["state"] = {"file": state_file, "sha256": state_sha}
        new_entry["statistics"] = payload.statistics
        tables[payload.key] = new_entry
        self._manifest["epochs"] = {k: e["epoch"] for k, e in tables.items()}
        self._manifest["saved_unix"] = int(time.time())
        self._refresh_engine_config()
        if self._delta_count(new_entry) > self.delta_threshold:
            self._compact_locked(payload.key)
        snap.write_manifest(self.directory, self._manifest)
        snap.sweep_unreferenced(self.directory, self._manifest)

    def _refresh_engine_config(self) -> None:
        engine = self.engine
        self._manifest["engine"] = {
            "match_threshold": engine.match_threshold,
            "meta_blocking": snap.meta_blocking_state(engine.meta_blocking),
            "use_link_index": engine.use_link_index,
            "transitive": engine.transitive,
            "invalidation_policy": engine._maintainer.policy.value,
        }
        self._manifest["join_percentages"] = [
            [*pair_key, *value] for pair_key, value in engine._join_percentages.items()
        ]

    @staticmethod
    def _delta_count(entry: Dict[str, Any]) -> int:
        return sum(1 for s in entry["segments"] if s["kind"] == "delta")

    # -- compaction (pure disk side) ---------------------------------------
    def _compact_locked(self, key: str) -> None:
        """Merge a table's base + deltas into one fresh base segment.

        Operates only on already-written files plus the in-memory
        manifest — the live engine is never read, so compaction is safe
        on the background writer no matter what queries run meanwhile.
        """
        entry = self._manifest["tables"][key]
        schema = snap.schema_from_state(entry["schema"])
        columns: List[List[Any]] = [[] for _ in schema.columns]
        indptr: List[int] = [0]
        token_chunks: List[np.ndarray] = []
        vocab_tokens: List[str] = []
        from repro.persist.columnar import decode_strings

        for segment in entry["segments"]:
            arrays = snap.read_npz(self.directory / segment["file"], segment["sha256"])
            for accumulator, values in zip(
                columns, columns_from_arrays(schema.columns, arrays)
            ):
                accumulator.extend(values)
            offset = indptr[-1]
            indptr.extend(int(p) + offset for p in arrays["itbi.indptr"][1:])
            token_chunks.append(arrays["itbi.tokens"])
            vocab_tokens.extend(
                decode_strings(arrays["vocab.data"], arrays["vocab.offsets"])
            )
        merged = columns_to_arrays(schema.columns, columns)
        merged["itbi.indptr"] = np.asarray(indptr, dtype=np.int64)
        merged["itbi.tokens"] = (
            np.concatenate(token_chunks)
            if token_chunks
            else np.empty(0, dtype=np.int64)
        )
        vocab = encode_strings(vocab_tokens)
        merged["vocab.data"] = vocab["data"]
        merged["vocab.offsets"] = vocab["offsets"]
        segment_file = snap.table_file(key, "base", entry["epoch"])
        sha, nbytes = snap.write_npz(self.directory / segment_file, merged)
        entry["segments"] = [
            {
                "kind": "base",
                "file": segment_file,
                "rows": entry["rows"],
                "epoch": entry["epoch"],
                "sha256": sha,
                "bytes": nbytes,
            }
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
