"""Versioned on-disk engine snapshots: save, load, crash-safe writes.

A snapshot directory holds one manifest plus per-table columnar
segments::

    <data-dir>/
      manifest.json                     # written LAST, temp-then-rename
      tables/<key>/
        base-<epoch>.npz                # columnar rows + ITBI CSR + vocab delta
        delta-<epoch>.npz               # one committed INSERT batch (same shape)
        state-<epoch>.json              # Link Index + resolved set + signature ids

Every ``.npz`` segment carries, for its row range: one array family per
column (:mod:`repro.persist.columnar`), the rows' blocking keys as a
CSR over interned token ids (``itbi.indptr`` / ``itbi.tokens``), and
the token strings this segment introduced into the table's
:class:`~repro.er.tokenizer.TokenVocabulary` (``vocab.*`` — interning
is append-only, so concatenating the segments' vocab deltas in manifest
order reproduces the exact id assignment).  The manifest records the
schema, blocking configuration, per-file SHA-256 checksums, row counts,
per-table statistics and the engine epoch map.

**Crash safety.**  Every file is written to a temp name and atomically
renamed into place (fsynced first), and the manifest is always written
*last*: a crash mid-write — organic, ``kill -9``, or injected through
the ``persist.write`` / ``persist.rename`` fault sites — leaves either
the previous manifest (still referencing the previous, fully-written
file set) or the new manifest (referencing files that were completed
and renamed before it).  Either way :func:`load_engine` finds a
consistent snapshot; orphaned temp and unreferenced files are swept on
the next successful write.

**Loading** rebuilds a :class:`~repro.core.engine.QueryEREngine` whose
observable behaviour is bit-identical to the saved one — same rows,
same TBI/ITBI (re-inverted, never re-tokenized), same postings, same
Link-Index links and resolved set, same statistics and epochs — which
the snapshot round-trip property suite gates query-for-query.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.er.blocking import NGramBlocking, TokenBlocking
from repro.er.tokenizer import TokenVocabulary
from repro.er.util import safe_sorted
from repro.persist.columnar import columns_from_arrays, columns_to_arrays
from repro.resilience import inject
from repro.storage.schema import Column, ColumnType, Schema
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine ↔ persist)
    from repro.core.engine import QueryEREngine

#: Snapshot format tag; bumped on any incompatible layout change.
FORMAT = "repro/persist/v1"
MANIFEST_NAME = "manifest.json"


class SnapshotError(RuntimeError):
    """A snapshot could not be written, read, or verified."""


# -- crash-safe file primitives ---------------------------------------------
def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def atomic_write(path: Path, data: bytes) -> str:
    """Write *data* to *path* via temp-then-rename; returns its SHA-256.

    The ``persist.write`` and ``persist.rename`` fault sites let the
    resilience suite kill a checkpoint mid-write and assert that the
    prior snapshot stays loadable (manifest-last ordering).
    """
    inject("persist.write")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    inject("persist.rename")
    os.replace(tmp, path)
    return _sha256(data)


def write_npz(path: Path, arrays: Dict[str, np.ndarray]) -> Tuple[str, int]:
    """Serialize *arrays* as an ``.npz`` at *path*; returns (sha, bytes)."""
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    data = buffer.getvalue()
    return atomic_write(path, data), len(data)


def read_npz(path: Path, expected_sha: Optional[str] = None) -> Dict[str, np.ndarray]:
    """Load an ``.npz``, verifying its recorded checksum when given."""
    try:
        raw = path.read_bytes()
    except OSError as error:
        raise SnapshotError(f"cannot read segment {path}: {error}") from error
    if expected_sha is not None and _sha256(raw) != expected_sha:
        raise SnapshotError(f"checksum mismatch in segment {path}")
    with np.load(io.BytesIO(raw)) as npz:
        return {name: npz[name] for name in npz.files}


def write_json(path: Path, payload: Any) -> str:
    return atomic_write(
        path, json.dumps(payload, indent=1, sort_keys=True).encode("utf-8")
    )


def read_json(path: Path, expected_sha: Optional[str] = None) -> Any:
    try:
        raw = path.read_bytes()
    except OSError as error:
        raise SnapshotError(f"cannot read {path}: {error}") from error
    if expected_sha is not None and _sha256(raw) != expected_sha:
        raise SnapshotError(f"checksum mismatch in {path}")
    return json.loads(raw.decode("utf-8"))


# -- schema / blocking (de)hydration ----------------------------------------
def schema_state(schema: Schema) -> Dict[str, Any]:
    return {
        "columns": [[column.name, column.type.value] for column in schema.columns],
        "id_column": schema.id_column,
    }


def schema_from_state(state: Dict[str, Any]) -> Schema:
    columns = [Column(name, ColumnType(kind)) for name, kind in state["columns"]]
    return Schema(columns, id_column=state["id_column"])


def blocking_state(blocking: TokenBlocking) -> Dict[str, Any]:
    state: Dict[str, Any] = {
        "class": type(blocking).__name__,
        "exclude": list(blocking.exclude_attributes),
        "min_token_length": blocking.min_token_length,
        "numeric_min_length": blocking.numeric_min_length,
    }
    if isinstance(blocking, NGramBlocking):
        state["n"] = blocking.n
    elif type(blocking) is not TokenBlocking:
        raise SnapshotError(
            f"blocking {type(blocking).__name__} is not snapshotable; "
            "only TokenBlocking and NGramBlocking round-trip"
        )
    return state


def blocking_from_state(state: Dict[str, Any]) -> TokenBlocking:
    kwargs = {
        "exclude_attributes": tuple(state["exclude"]),
        "min_token_length": state["min_token_length"],
        "numeric_min_length": state["numeric_min_length"],
    }
    if state["class"] == "NGramBlocking":
        return NGramBlocking(n=state["n"], **kwargs)
    if state["class"] == "TokenBlocking":
        return TokenBlocking(**kwargs)
    raise SnapshotError(f"unknown blocking class {state['class']!r} in manifest")


def meta_blocking_state(config: Any) -> Dict[str, Any]:
    return {
        "purging": config.purging,
        "filtering": config.filtering,
        "pruning": config.pruning,
        "smoothing_factor": config.smoothing_factor,
        "filter_ratio": config.filter_ratio,
        "weighting": config.weighting.value,
    }


def meta_blocking_from_state(state: Dict[str, Any]) -> Any:
    """The configuration :func:`meta_blocking_state` wrote.

    Older manifests also carry two boolean keys that once selected
    between two derivations of the same candidates; any key this
    function does not read is ignored.
    """
    from repro.er.meta_blocking import MetaBlockingConfig, WeightingScheme

    return MetaBlockingConfig(
        purging=state["purging"],
        filtering=state["filtering"],
        pruning=state["pruning"],
        smoothing_factor=state["smoothing_factor"],
        filter_ratio=state["filter_ratio"],
        weighting=WeightingScheme(state["weighting"]),
    )


# -- segment assembly --------------------------------------------------------
def segment_arrays(
    table: Table,
    start: int,
    stop: int,
    itbi_indptr: Any,
    itbi_tokens: Any,
    new_tokens: List[str],
) -> Dict[str, np.ndarray]:
    """Arrays of one segment covering table rows ``[start:stop)``.

    ``itbi_indptr`` must be local to the segment (``indptr[0] == 0``);
    ``new_tokens`` are the vocabulary entries this segment introduces.
    """
    from repro.persist.columnar import encode_strings

    arrays = columns_to_arrays(table.schema.columns, table.column_values(start, stop))
    arrays["itbi.indptr"] = np.asarray(itbi_indptr, dtype=np.int64)
    arrays["itbi.tokens"] = np.asarray(itbi_tokens, dtype=np.int64)
    vocab = encode_strings(new_tokens)
    arrays["vocab.data"] = vocab["data"]
    arrays["vocab.offsets"] = vocab["offsets"]
    return arrays


def delta_segment_arrays(index: Any, start: int, stop: int) -> Dict[str, np.ndarray]:
    """A *self-contained* delta segment over table rows ``[start:stop)``.

    The shard hand-off format of :mod:`repro.parallel.shards`: same
    columnar layout as checkpoint segments (column array families, the
    rows' blocking keys as a CSR, a token table), with one deliberate
    difference — the CSR's token ids index the segment's **own**
    ``vocab.data``/``vocab.offsets`` table instead of the engine's
    global vocabulary.  Checkpoint segments may assume the reader
    replays the exact global id assignment (manifest order), but a
    long-lived shard's vocabulary diverges from its parent's the moment
    either process lazily interns a signature the other has not — so the
    hand-off segment carries every key string it references and the
    worker re-interns them under its own ids.  Applying it never
    re-tokenizes an attribute value.
    """
    from repro.persist.columnar import encode_strings

    table = index.table
    itbi = index.itbi
    local_ids: Dict[str, int] = {}
    local_tokens: List[str] = []
    indptr: List[int] = [0]
    tokens: List[int] = []
    for position in range(start, stop):
        for key in itbi.get(table[position].id, ()):
            local = local_ids.get(key)
            if local is None:
                local = local_ids[key] = len(local_tokens)
                local_tokens.append(key)
            tokens.append(local)
        indptr.append(len(tokens))
    arrays = columns_to_arrays(table.schema.columns, table.column_values(start, stop))
    arrays["itbi.indptr"] = np.asarray(indptr, dtype=np.int64)
    arrays["itbi.tokens"] = np.asarray(tokens, dtype=np.int64)
    vocab = encode_strings(local_tokens)
    arrays["vocab.data"] = vocab["data"]
    arrays["vocab.offsets"] = vocab["offsets"]
    return arrays


def decode_delta_segment(
    schema: Schema, arrays: Dict[str, np.ndarray]
) -> Tuple[List[Tuple[Any, ...]], List[List[str]]]:
    """Invert :func:`delta_segment_arrays`: ``(rows, per-row key lists)``.

    Rows come back as exact Python value tuples (ready for
    ``Table.append_rows(..., coerce=False)``); each row's blocking keys
    decode through the segment-local token table, in the CSR's recorded
    order.
    """
    from repro.persist.columnar import decode_strings

    columns = columns_from_arrays(schema.columns, arrays)
    count = len(columns[0]) if columns else 0
    rows = [tuple(column[i] for column in columns) for i in range(count)]
    token_table = decode_strings(arrays["vocab.data"], arrays["vocab.offsets"])
    indptr = arrays["itbi.indptr"]
    tokens = arrays["itbi.tokens"]
    keys = [
        [token_table[int(t)] for t in tokens[int(indptr[i]) : int(indptr[i + 1])]]
        for i in range(count)
    ]
    return rows, keys


def link_state_payload(index: Any) -> Dict[str, Any]:
    """The JSON-serializable soft state of one table's index.

    Links are facts (the matcher is deterministic) and resolved-ness is
    only sound at the epoch the file is stamped with, which is why every
    checkpoint rewrites this file *after* the insert's Link-Index
    invalidation ran.
    """
    link_index = index.link_index
    pairs = safe_sorted(tuple(pair) for pair in link_index.links)
    return {
        "links": [list(pair) for pair in pairs],
        "resolved": safe_sorted(
            e for e in index.table.ids if link_index.is_resolved(e)
        ),
        "signatures": safe_sorted(index.signature_ids()),
    }


# -- manifest ----------------------------------------------------------------
def manifest_path(directory: Union[str, Path]) -> Path:
    return Path(directory) / MANIFEST_NAME


def read_manifest(directory: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """The snapshot manifest of *directory*, or ``None`` when absent."""
    path = manifest_path(directory)
    if not path.exists():
        return None
    manifest = read_json(path)
    if manifest.get("format") != FORMAT:
        raise SnapshotError(
            f"{path}: unsupported snapshot format {manifest.get('format')!r} "
            f"(this build reads {FORMAT})"
        )
    return manifest


def write_manifest(directory: Union[str, Path], manifest: Dict[str, Any]) -> None:
    write_json(manifest_path(directory), manifest)


def sweep_unreferenced(directory: Union[str, Path], manifest: Dict[str, Any]) -> int:
    """Delete snapshot files the manifest no longer references.

    Runs only after a successful manifest write, so everything removed
    is provably unreachable: superseded segments after a compaction,
    previous state files, and temp files a crashed write left behind.
    """
    directory = Path(directory)
    referenced = {MANIFEST_NAME}
    for entry in manifest.get("tables", {}).values():
        for segment in entry["segments"]:
            referenced.add(segment["file"])
        referenced.add(entry["state"]["file"])
    removed = 0
    for path in directory.rglob("*"):
        if not path.is_file():
            continue
        relative = path.relative_to(directory).as_posix()
        if relative in referenced:
            continue
        if ".tmp-" in path.name or relative.startswith("tables/"):
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - benign race with another sweep
                pass
    return removed


# -- save --------------------------------------------------------------------
def table_file(key: str, kind: str, epoch: int) -> str:
    suffix = "npz" if kind in ("base", "delta") else "json"
    return f"tables/{key}/{kind}-{epoch}.{suffix}"


def save_engine(engine: "QueryEREngine", directory: Union[str, Path]) -> Dict[str, Any]:
    """Write a full snapshot of *engine* under *directory*.

    Every table gets a fresh base segment (a later checkpointed insert
    appends deltas next to it — see :mod:`repro.persist.checkpoint`),
    and the manifest is written last.  Returns the manifest.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tables: Dict[str, Any] = {}
    for table in engine.catalog:
        key = table.name.lower()
        index = engine.index_of(key)
        epoch = engine.epoch_of(key)
        csr = index.to_arrays()  # interns any not-yet-interned blocking keys
        arrays = segment_arrays(
            table,
            0,
            len(table),
            csr["itbi_indptr"],
            csr["itbi_tokens"],
            index.vocabulary.tokens(0),
        )
        segment_file = table_file(key, "base", epoch)
        sha, nbytes = write_npz(directory / segment_file, arrays)
        state_file = table_file(key, "state", epoch)
        state_sha = write_json(directory / state_file, link_state_payload(index))
        statistics = engine._statistics.get(key)
        tables[key] = {
            "name": table.name,
            "epoch": epoch,
            "rows": len(table),
            "vocab_len": len(index.vocabulary),
            "schema": schema_state(table.schema),
            "blocking": blocking_state(index.blocking),
            "segments": [
                {
                    "kind": "base",
                    "file": segment_file,
                    "rows": len(table),
                    "epoch": epoch,
                    "sha256": sha,
                    "bytes": nbytes,
                }
            ],
            "state": {"file": state_file, "sha256": state_sha},
            "statistics": statistics.to_state() if statistics is not None else None,
        }
    manifest = {
        "format": FORMAT,
        "saved_unix": int(time.time()),
        "engine": {
            "match_threshold": engine.match_threshold,
            "meta_blocking": meta_blocking_state(engine.meta_blocking),
            "use_link_index": engine.use_link_index,
            "transitive": engine.transitive,
            "invalidation_policy": engine._maintainer.policy.value,
            "optimizer": engine.optimizer_enabled,
            "plan_cache_size": engine.plan_cache.capacity,
        },
        "epochs": engine.table_epochs(),
        "join_percentages": [
            [*pair_key, *value] for pair_key, value in engine._join_percentages.items()
        ],
        "tables": tables,
    }
    write_manifest(directory, manifest)
    sweep_unreferenced(directory, manifest)
    return manifest


# -- load --------------------------------------------------------------------
def _load_table_entry(
    directory: Path, entry: Dict[str, Any]
) -> Tuple[Table, TokenVocabulary, np.ndarray, np.ndarray]:
    """Concatenate a table's segments back into rows + CSR + vocabulary."""
    from repro.persist.columnar import decode_strings

    schema = schema_from_state(entry["schema"])
    vocabulary = TokenVocabulary()
    columns: List[List[Any]] = [[] for _ in schema.columns]
    indptr: List[int] = [0]
    tokens: List[np.ndarray] = []
    for segment in entry["segments"]:
        arrays = read_npz(directory / segment["file"], segment["sha256"])
        for token in decode_strings(arrays["vocab.data"], arrays["vocab.offsets"]):
            vocabulary.intern(token)
        segment_columns = columns_from_arrays(schema.columns, arrays)
        for accumulator, values in zip(columns, segment_columns):
            accumulator.extend(values)
        offset = indptr[-1]
        local_indptr = arrays["itbi.indptr"]
        if len(local_indptr) != segment["rows"] + 1:
            raise SnapshotError(
                f"{segment['file']}: CSR covers {len(local_indptr) - 1} rows, "
                f"manifest says {segment['rows']}"
            )
        indptr.extend(int(p) + offset for p in local_indptr[1:])
        tokens.append(arrays["itbi.tokens"])
    if len(vocabulary) != entry["vocab_len"]:
        raise SnapshotError(
            f"table {entry['name']!r}: vocabulary reassembled to "
            f"{len(vocabulary)} tokens, manifest says {entry['vocab_len']}"
        )
    table = Table.from_columns(entry["name"], schema, columns)
    if len(table) != entry["rows"]:
        raise SnapshotError(
            f"table {entry['name']!r}: {len(table)} rows decoded, "
            f"manifest says {entry['rows']}"
        )
    all_tokens = (
        np.concatenate(tokens) if tokens else np.empty(0, dtype=np.int64)
    )
    return table, vocabulary, np.asarray(indptr, dtype=np.int64), all_tokens


def load_engine(
    directory: Union[str, Path],
    execution: Any = None,
    meta_blocking: Any = None,
    **overrides: Any,
) -> "QueryEREngine":
    """Reconstruct a warm :class:`QueryEREngine` from a snapshot.

    Engine configuration defaults to what the manifest recorded;
    *execution*, *meta_blocking* and keyword *overrides* (e.g.
    ``match_threshold=``) take precedence.  No tokenization, blocking
    build, or statistics sampling runs — the identity contract is that
    every DEDUP answer equals both the saved engine's and a fresh
    engine's over the same rows.
    """
    from repro.core.engine import QueryEREngine
    from repro.core.indices import TableIndex
    from repro.core.statistics import TableStatistics

    directory = Path(directory)
    manifest = read_manifest(directory)
    if manifest is None:
        raise SnapshotError(f"no snapshot manifest in {directory}")
    # Older manifests also carry ``sample_stats``; statistics are sampled
    # on first read now, so that key selects nothing and is ignored.
    config = dict(manifest["engine"])
    config.update(overrides)
    if meta_blocking is None:
        meta_blocking = meta_blocking_from_state(config["meta_blocking"])
    engine = QueryEREngine(
        match_threshold=config["match_threshold"],
        meta_blocking=meta_blocking,
        use_link_index=config["use_link_index"],
        transitive=config["transitive"],
        invalidation_policy=config["invalidation_policy"],
        execution=execution,
        # Pre-optimizer manifests lack these keys; default to the
        # engine's own defaults rather than failing the warm start.
        optimizer=config.get("optimizer", True),
        plan_cache_size=config.get("plan_cache_size", 128),
    )
    for key, entry in manifest["tables"].items():
        table, vocabulary, indptr, tokens = _load_table_entry(directory, entry)
        state = read_json(directory / entry["state"]["file"], entry["state"]["sha256"])
        index = TableIndex.from_arrays(
            table,
            vocabulary,
            indptr,
            tokens,
            blocking=blocking_from_state(entry["blocking"]),
            link_pairs=[tuple(pair) for pair in state["links"]],
            resolved=state["resolved"],
            signature_ids=state["signatures"],
        )
        statistics = (
            TableStatistics.from_state(entry["statistics"])
            if entry["statistics"] is not None
            else None
        )
        engine.adopt(index, epoch=entry["epoch"], statistics=statistics)
    for left, right, left_column, right_column, lp, rp in manifest.get(
        "join_percentages", []
    ):
        engine._join_percentages[(left, right, left_column, right_column)] = (lp, rp)
    return engine


def snapshot_size_bytes(directory: Union[str, Path]) -> int:
    """Total bytes of every file in the snapshot directory."""
    return sum(p.stat().st_size for p in Path(directory).rglob("*") if p.is_file())
