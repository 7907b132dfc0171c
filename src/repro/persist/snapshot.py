"""Versioned on-disk engine snapshots: save, load, crash-safe writes.

A snapshot directory holds one manifest plus per-table columnar
segments::

    <data-dir>/
      manifest.json                     # written LAST, temp-then-rename
      tables/<key>/
        base-<epoch>.npz                # columnar rows + ITBI CSR + vocab delta
        delta-<epoch>.npz               # one committed INSERT batch (same shape)
        state-<epoch>.json              # Link Index + resolved set

Every ``.npz`` segment carries, for its row range: one array family per
column (:mod:`repro.persist.columnar`), the rows' blocking keys as a
CSR over interned token ids (``itbi.indptr`` / ``itbi.tokens``), and
the token strings this segment introduced into the table's
:class:`~repro.er.tokenizer.TokenVocabulary` (``vocab.*`` — interning
is append-only, so concatenating the segments' vocab deltas in manifest
order reproduces the exact id assignment).  The manifest records the
schema, blocking configuration, per-file SHA-256 checksums, row counts,
the engine settings and the engine epoch map.

:func:`save_engine` and the checkpointer (:mod:`repro.persist.checkpoint`)
write tables through one path — :func:`capture_table`, then
:func:`write_table_entry` — and :func:`load_engine` and compaction read
them through one checked reader, :func:`read_table_entry`.

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
same token postings (the persisted forward CSR plus one counting sort,
never re-tokenized), same Link-Index links and resolved set, same
epochs — which the snapshot round-trip property suite gates
query-for-query.  Plans are not persisted: a loaded engine plans each
statement on its first issue.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.er.blocking import NGramBlocking, TokenBlocking
from repro.er.tokenizer import TokenVocabulary
from repro.er.util import safe_sorted
from repro.persist.columnar import (
    columns_from_arrays,
    columns_to_arrays,
    decode_strings,
    encode_strings,
)
from repro.resilience import inject
from repro.storage.schema import Column, ColumnType, Schema
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine ↔ persist)
    from repro.core.engine import QueryEREngine

#: Snapshot format tag; bumped on any layout change older readers cannot read.
#: v2 dropped v1's per-table ``statistics``, ``join_percentages`` and
#: ``engine.invalidation_policy``, which v1 readers require.
FORMAT = "repro/persist/v2"
#: Every format this build reads; v1's dropped keys are ignored.
READABLE_FORMATS = (FORMAT, "repro/persist/v1")
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


# -- capture and table entries ---------------------------------------------
def segment_arrays(
    table: Table,
    start: int,
    itbi_indptr: Any,
    itbi_tokens: Any,
    new_tokens: List[str],
) -> Dict[str, np.ndarray]:
    """Arrays of one segment covering table rows ``[start:)``.

    ``itbi_indptr`` must be local to the segment (``indptr[0] == 0``);
    ``new_tokens`` are the vocabulary entries this segment introduces.
    """
    arrays = columns_to_arrays(table.schema.columns, table.column_values(start))
    arrays["itbi.indptr"] = np.asarray(itbi_indptr, dtype=np.int64)
    arrays["itbi.tokens"] = np.asarray(itbi_tokens, dtype=np.int64)
    vocab = encode_strings(new_tokens)
    arrays["vocab.data"] = vocab["data"]
    arrays["vocab.offsets"] = vocab["offsets"]
    return arrays


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
    }


@dataclass(frozen=True)
class TableCapture:
    """Table rows ``[start:)`` of one index at *epoch*, ready to write.

    Holds copies only — the segment arrays (rows, their blocking-key
    CSR, the vocabulary tokens from position ``vocab_from`` on), the
    Link-Index state and the manifest header — so it can be written
    later, on the checkpointer's background thread, while the engine
    moves on.  ``start`` / ``vocab_from`` pin it to an absolute position
    in the table; a delta is only written onto an entry that ends
    exactly there.
    """

    key: str
    epoch: int
    start: int
    rows: int
    vocab_from: int
    arrays: Dict[str, np.ndarray]
    state: Dict[str, Any]
    header: Dict[str, Any]

    @property
    def kind(self) -> str:
        """``"base"`` when the capture holds the whole table, else ``"delta"``."""
        return "delta" if self.start or self.vocab_from else "base"


def capture_table(index: Any, epoch: int, start: int = 0, vocab_from: int = 0) -> TableCapture:
    """Capture *index*'s table rows ``[start:)`` and vocabulary ``[vocab_from:)``."""
    table = index.table
    csr = index.to_arrays(start)
    return TableCapture(
        key=table.name.lower(),
        epoch=epoch,
        start=start,
        rows=len(table) - start,
        vocab_from=vocab_from,
        arrays=segment_arrays(
            table,
            start,
            csr["itbi_indptr"],
            csr["itbi_tokens"],
            index.vocabulary.tokens(vocab_from),
        ),
        state=link_state_payload(index),
        header={
            "name": table.name,
            "schema": schema_state(table.schema),
            "blocking": blocking_state(index.blocking),
            "vocab_len": len(index.vocabulary),
        },
    )


def write_segment(
    directory: Path, key: str, kind: str, epoch: int, rows: int, arrays: Dict[str, np.ndarray]
) -> Dict[str, Any]:
    """Write one ``.npz`` segment of *rows* table rows; returns its manifest record."""
    segment_file = table_file(key, kind, epoch)
    sha, nbytes = write_npz(directory / segment_file, arrays)
    return {
        "kind": kind,
        "file": segment_file,
        "rows": rows,
        "epoch": epoch,
        "sha256": sha,
        "bytes": nbytes,
    }


def write_table_entry(
    directory: Path, capture: TableCapture, previous: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Write *capture*'s segment and state files; returns its manifest entry.

    A base capture starts a new segment chain; a delta capture extends
    *previous*, the table's current entry, which must end at
    ``capture.start``.
    """
    segment = write_segment(
        directory, capture.key, capture.kind, capture.epoch, capture.rows, capture.arrays
    )
    state_file = table_file(capture.key, "state", capture.epoch)
    state_sha = write_json(directory / state_file, capture.state)
    chain = previous["segments"] if capture.kind == "delta" else []
    return {
        **capture.header,
        "epoch": capture.epoch,
        "rows": capture.start + capture.rows,
        "segments": chain + [segment],
        "state": {"file": state_file, "sha256": state_sha},
    }


def engine_state(engine: "QueryEREngine") -> Dict[str, Any]:
    """The engine settings a manifest records and :func:`load_engine` reads."""
    return {
        "match_threshold": engine.match_threshold,
        "meta_blocking": meta_blocking_state(engine.meta_blocking),
        "use_link_index": engine.use_link_index,
    }


def stamp_manifest(manifest: Dict[str, Any], engine: "QueryEREngine") -> Dict[str, Any]:
    """Set *manifest*'s engine-wide fields from its tables and *engine*.

    The format tag becomes the current one (a v1 manifest the
    checkpointer rewrites is v2 from then on, its v1-only
    ``join_percentages`` dropped), and the epoch map is read off the
    table entries.
    """
    manifest.pop("join_percentages", None)
    manifest.update(
        format=FORMAT,
        saved_unix=int(time.time()),
        engine=engine_state(engine),
        epochs={key: entry["epoch"] for key, entry in manifest["tables"].items()},
    )
    return manifest


# -- manifest ----------------------------------------------------------------
def manifest_path(directory: Union[str, Path]) -> Path:
    return Path(directory) / MANIFEST_NAME


def read_manifest(directory: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """The snapshot manifest of *directory*, or ``None`` when absent."""
    path = manifest_path(directory)
    if not path.exists():
        return None
    manifest = read_json(path)
    if manifest.get("format") not in READABLE_FORMATS:
        raise SnapshotError(
            f"{path}: unsupported snapshot format {manifest.get('format')!r} "
            f"(this build reads {', '.join(READABLE_FORMATS)})"
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
        capture = capture_table(engine.index_of(key), engine.epoch_of(key))
        tables[key] = write_table_entry(directory, capture)
    manifest = stamp_manifest({"tables": tables}, engine)
    write_manifest(directory, manifest)
    sweep_unreferenced(directory, manifest)
    return manifest


# -- load --------------------------------------------------------------------
def read_table_entry(
    directory: Path, entry: Dict[str, Any]
) -> Tuple[Table, TokenVocabulary, np.ndarray, np.ndarray]:
    """Concatenate a table's segments back into rows + CSR + vocabulary.

    Raises :class:`SnapshotError` unless every segment's checksum and
    CSR length, the reassembled vocabulary length and the decoded row
    count agree with *entry*.
    """
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


#: The engine settings :func:`load_engine` reads from the manifest, and
#: so the keyword overrides it accepts.
_ENGINE_SETTINGS = frozenset({"match_threshold", "use_link_index"})


def load_engine(
    directory: Union[str, Path],
    meta_blocking: Any = None,
    **overrides: Any,
) -> "QueryEREngine":
    """Reconstruct a warm :class:`QueryEREngine` from a snapshot.

    Engine configuration defaults to what the manifest recorded;
    *meta_blocking* and keyword *overrides* (e.g.
    ``match_threshold=``) take precedence; an override that names no
    engine setting raises :class:`TypeError`.  No tokenization or
    blocking build runs — the identity contract is that every DEDUP
    answer equals both the saved engine's and a fresh engine's over the
    same rows.
    """
    from repro.core.engine import QueryEREngine
    from repro.core.indices import TableIndex

    unknown = sorted(set(overrides) - _ENGINE_SETTINGS)
    if unknown:
        raise TypeError(f"load_engine() got unknown engine settings {unknown}")
    directory = Path(directory)
    manifest = read_manifest(directory)
    if manifest is None:
        raise SnapshotError(f"no snapshot manifest in {directory}")
    # Older manifests also carry ``sample_stats``, ``optimizer``,
    # ``plan_cache_size``, ``invalidation_policy`` and ``transitive``
    # under ``engine``, and v1 manifests per-table ``statistics`` and a
    # top-level ``join_percentages``.  No statistic but the comparison
    # estimate exists, the §7.2.1 planner is the only plan source, the
    # plan cache has a fixed size, the targeted Link-Index invalidation
    # is the only one and every Deduplicate expands to a fixpoint, so
    # those keys select nothing and are ignored — except a ``transitive``
    # of false, a state this engine cannot honour.
    if not manifest["engine"].get("transitive", True):
        raise SnapshotError(
            f"snapshot in {directory} records single-round Deduplicates "
            '("transitive": false), which this engine cannot honour'
        )
    config = {**manifest["engine"], **overrides}
    if meta_blocking is None:
        meta_blocking = meta_blocking_from_state(config["meta_blocking"])
    engine = QueryEREngine(
        meta_blocking=meta_blocking, **{name: config[name] for name in _ENGINE_SETTINGS}
    )
    for entry in manifest["tables"].values():
        table, vocabulary, indptr, tokens = read_table_entry(directory, entry)
        # Older state files also list ``signatures`` (ids whose lazily
        # built signatures existed); the columns are rebuilt whole, so
        # that key selects nothing and is ignored.
        state = read_json(directory / entry["state"]["file"], entry["state"]["sha256"])
        index = TableIndex.from_arrays(
            table,
            vocabulary,
            indptr,
            tokens,
            blocking=blocking_from_state(entry["blocking"]),
            link_pairs=[tuple(pair) for pair in state["links"]],
            resolved=state["resolved"],
        )
        engine.adopt(index, epoch=entry["epoch"])
    return engine


def snapshot_size_bytes(directory: Union[str, Path]) -> int:
    """Total bytes of every file in the snapshot directory."""
    return sum(p.stat().st_size for p in Path(directory).rglob("*") if p.is_file())
