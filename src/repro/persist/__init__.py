"""Durable engine snapshots and incremental checkpoints.

The persistence subsystem turns a live
:class:`~repro.core.engine.QueryEREngine` into a versioned on-disk
snapshot — columnar table segments, interned token vocabulary,
blocking-key CSR, Link-Index state, engine settings, epoch map — and
back, without re-running tokenization or blocking builds.  See
:mod:`repro.persist.snapshot` for the format and
:mod:`repro.persist.checkpoint` for delta checkpoints after committed
``INSERT INTO`` batches.

Typical use::

    engine.save("snapshots/run1")          # full base snapshot
    warm = QueryEREngine.load("snapshots/run1")   # bit-identical answers

    manager = engine.enable_checkpointing("snapshots/run1")
    engine.insert("PPL", rows)             # appends delta-<epoch>.npz
"""

from repro.persist.checkpoint import DEFAULT_DELTA_THRESHOLD, CheckpointManager
from repro.persist.columnar import (
    column_from_arrays,
    column_to_arrays,
    columns_from_arrays,
    columns_to_arrays,
    decode_strings,
    encode_strings,
)
from repro.persist.snapshot import (
    FORMAT,
    MANIFEST_NAME,
    SnapshotError,
    load_engine,
    read_manifest,
    save_engine,
    snapshot_size_bytes,
)

__all__ = [
    "FORMAT",
    "MANIFEST_NAME",
    "DEFAULT_DELTA_THRESHOLD",
    "CheckpointManager",
    "SnapshotError",
    "column_from_arrays",
    "column_to_arrays",
    "columns_from_arrays",
    "columns_to_arrays",
    "decode_strings",
    "encode_strings",
    "load_engine",
    "read_manifest",
    "save_engine",
    "snapshot_size_bytes",
]
