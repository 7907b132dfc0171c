"""Persistent sharded worker runtime (the long-lived pool replacement).

The per-query :class:`~repro.parallel.pool.WorkerPool` re-pays fork and
payload installation on every DEDUP invocation — measurably more than
the sharded work saves at serving scale (``BENCH_parallel_scaling.json``
records the process backend *losing* to serial at small inputs).  This
module amortizes that cost the way long-lived parallel query engines do:

* :class:`ShardRuntime` forks ``N`` worker processes **once** per engine
  (lazily, on the first eligible query).  Each worker inherits the full
  engine state by copy-on-write — every table's :class:`TableIndex`
  (TBI/ITBI, CSR :class:`~repro.er.blocking.TokenPostings`, profile
  signatures, vocabulary) and matcher stay **resident** across queries,
  so no per-query payload ever crosses the IPC boundary again.
* Entity ids are hash-partitioned over the shards by :func:`owner_of`;
  Comparison-Execution routes each pair of the cascade's undecided
  remainder to the shard owning its left entity, span-graph partitions
  route round-robin.  Per-task traffic is the task descriptor out (pair
  ids with their stage-2 bounds / span triples) and matched positions
  or packed arrays back.
* Committed ``INSERT INTO`` batches are shipped to every live shard as
  **epoch-tagged delta segments** — the same per-row blocking-key CSR
  layout ``repro.persist`` serializes to disk, made self-contained by a
  segment-local token table (see
  :func:`repro.persist.snapshot.delta_segment_arrays`).  A shard applies
  the delta with the exact incremental path the parent ran
  (``Table.append_rows`` + ``TableIndex.add_records`` with the parent's
  precomputed blocking keys), so shard-resident state tracks the engine
  without re-tokenizing a single value.

**Determinism.**  Match decisions are pure functions of two signatures
and span segments are pure functions of the packed arrays, so routing
changes nothing about any individual result; matched positions are
re-sorted ascending (the serial visit order) and span segments recombine
through the existing :class:`~repro.parallel.merger.DeterministicMerger`
— shard output is bit-identical to serial, including across deltas.
Token ids *inside* a shard may diverge from the parent's (each process
interns lazily in its own order), which is harmless: interned-token
Jaccard is invariant under any per-process consistent relabeling.

**Recovery** follows the pool's policy, at shard granularity.  A task
failure reported by a live worker falls back to a serial parent
computation of that shard's bucket (identical by purity); a dead or hung
worker is terminated and its bucket recomputed serially, and the slot is
respawned lazily from the engine's *current* state (a fresh fork is
up-to-date by construction).  A failed delta publication kills the
now-stale shard the same way.  Every event lands in the process-wide
degradation log, and the fault sites ``shard.spawn``, ``shard.task`` and
``shard.delta`` make each path deterministically testable.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import weakref
import zlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.er.matching import PendingPairs
from repro.parallel.tasks import GraphResult, compute_span_result
from repro.resilience import DEGRADATION, FaultError, inject

#: How long ``close`` waits for a worker to exit after ``stop`` before
#: escalating to ``terminate`` (seconds).
STOP_JOIN_TIMEOUT_S = 5.0


class ShardUnavailable(RuntimeError):
    """The runtime cannot serve this invocation (spawn failed/closed).

    Callers treat this as "use the per-query pool path instead"; it is
    a routing signal, never a result-correctness problem.
    """


def owner_of(entity_id: Any, shards: int) -> int:
    """The shard owning *entity_id* — stable across processes and runs.

    Integer ids partition by modulus; anything else hashes its string
    form through ``crc32`` (Python's built-in ``hash`` is per-process
    salted for strings, which would break routing stability).
    """
    if shards <= 1:
        return 0
    if isinstance(entity_id, int) and not isinstance(entity_id, bool):
        return entity_id % shards
    data = str(entity_id).encode("utf-8", "surrogatepass")
    return zlib.crc32(data) % shards


class ShardState:
    """What one worker keeps resident: per-table indices and matchers.

    Constructed in the parent immediately before the fork and passed by
    reference (fork does not pickle ``Process`` args), so the child's
    copy is a copy-on-write snapshot of the engine's current state.
    """

    __slots__ = ("tables", "epochs")

    def __init__(
        self,
        tables: Dict[str, Tuple[Any, Any]],
        epochs: Dict[str, int],
    ):
        self.tables = tables
        self.epochs = epochs


class _Shard:
    """Parent-side handle of one live worker."""

    __slots__ = ("process", "conn", "epochs", "stats")

    def __init__(self, process, conn, epochs: Dict[str, int]):
        self.process = process
        self.conn = conn
        #: The worker's applied epoch per table (delta-lag accounting).
        self.epochs = epochs
        self.stats = {
            "tasks": 0,
            "match_tasks": 0,
            "span_tasks": 0,
            "deltas": 0,
        }

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class ShardRuntime:
    """N long-lived hash-partitioned workers serving one engine.

    Parameters
    ----------
    workers:
        Shard count (the engine's resolved worker count).
    state_source:
        Zero-argument callable returning ``{table_key: (index, matcher)}``
        — the state a freshly forked worker keeps resident.  Called at
        every (re)spawn, so a respawn is current by construction.
    epoch_source:
        ``table_key -> epoch`` (the engine's counter); stamps spawn-time
        and delta-time epochs for the lag statistic.
    task_timeout:
        Per-dispatch wall-clock bound in seconds (hang containment): a
        shard not answering within it is terminated and its bucket
        recomputed serially.  ``None`` disables.
    """

    def __init__(
        self,
        workers: int,
        state_source: Callable[[], Dict[str, Tuple[Any, Any]]],
        epoch_source: Optional[Callable[[str], int]] = None,
        task_timeout: Optional[float] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self._state_source = state_source
        self._epoch_source = epoch_source
        self.task_timeout = task_timeout
        self._context = multiprocessing.get_context("fork")
        self._shards: List[Optional[_Shard]] = [None] * workers
        self._ever_spawned = [False] * workers
        self._epochs: Dict[str, int] = {}
        self._seq = 0
        self._lock = threading.Lock()
        self._closed = False
        self.stats = {
            "spawns": 0,
            "respawns": 0,
            "spawn_failures": 0,
            "serial_fallbacks": 0,
            "task_errors": 0,
            "deltas_published": 0,
            "delta_failures": 0,
        }
        # GC safety net: a runtime dropped without close() must not leak
        # worker processes or pipe fds.  The finalizer holds the shard
        # list, never the runtime itself.
        self._finalizer = weakref.finalize(self, _cleanup_shards, self._shards)

    # -- lifecycle -------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether at least one worker is currently alive."""
        return any(s is not None and s.alive for s in self._shards)

    def ensure_started(self) -> bool:
        """Spawn every missing/dead shard from current engine state.

        Returns ``False`` (after recording the degradation) when any
        spawn fails — the invocation then belongs to the per-query pool
        path; the next invocation retries the missing slots.
        """
        if self._closed or self._state_source is None:
            return False
        ok = True
        for shard_id in range(self.workers):
            shard = self._shards[shard_id]
            if shard is not None and shard.alive:
                continue
            if shard is not None:
                self._reap(shard_id)
            if not self._spawn(shard_id):
                ok = False
        return ok

    def _spawn(self, shard_id: int) -> bool:
        try:
            inject("shard.spawn")
            tables = dict(self._state_source())
            epochs = {key: self._current_epoch(key) for key in tables}
            state = ShardState(tables, epochs)
            parent_conn, child_conn = self._context.Pipe(duplex=True)
            # Every parent-end pipe open right now (including this
            # shard's own) is inherited by the fork; hand the child the
            # list so it can close them immediately — the fd-leak story
            # of repeated spawn cycles.
            inherited = [
                s.conn for s in self._shards if s is not None
            ] + [parent_conn]
            process = self._context.Process(
                target=_shard_main,
                args=(shard_id, state, child_conn, inherited),
                daemon=True,
                name=f"repro-shard-{shard_id}",
            )
            process.start()
            child_conn.close()
        except (FaultError, OSError, ValueError, RuntimeError) as error:
            self.stats["spawn_failures"] += 1
            DEGRADATION.record(
                "parallel", "shard_spawn", f"shard {shard_id} spawn failed: {error!r}"
            )
            return False
        if self._ever_spawned[shard_id]:
            self.stats["respawns"] += 1
        self._ever_spawned[shard_id] = True
        self.stats["spawns"] += 1
        self._epochs.update(epochs)
        self._shards[shard_id] = _Shard(process, parent_conn, dict(epochs))
        return True

    def _current_epoch(self, key: str) -> int:
        if self._epoch_source is not None:
            try:
                return int(self._epoch_source(key))
            except Exception:
                return self._epochs.get(key, 0)
        return self._epochs.get(key, 0)

    def reset(self) -> None:
        """Retire every worker; the next query respawns from fresh state.

        Called on register/unregister/adopt — events that change *which*
        tables exist (deltas only cover appends to known tables).
        """
        with self._lock:
            for shard_id in range(self.workers):
                self._stop_shard(shard_id)

    def close(self) -> None:
        """Deterministic teardown: stop, join, close every pipe fd."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for shard_id in range(self.workers):
                self._stop_shard(shard_id)
        self._finalizer.detach()

    def _stop_shard(self, shard_id: int) -> None:
        shard = self._shards[shard_id]
        if shard is None:
            return
        self._shards[shard_id] = None
        _stop_one(shard)

    def _reap(self, shard_id: int) -> None:
        """Join and drop a shard already known dead (close its fds)."""
        shard = self._shards[shard_id]
        if shard is None:
            return
        self._shards[shard_id] = None
        try:
            shard.conn.close()
        except OSError:
            pass
        shard.process.join(timeout=STOP_JOIN_TIMEOUT_S)
        if shard.process.is_alive():  # pragma: no cover - defensive
            shard.process.kill()
            shard.process.join(timeout=STOP_JOIN_TIMEOUT_S)

    def _kill(self, shard_id: int, site: str, error: BaseException) -> None:
        """Terminate a misbehaving shard and record the degradation."""
        shard = self._shards[shard_id]
        if shard is not None:
            self._shards[shard_id] = None
            try:
                shard.conn.close()
            except OSError:
                pass
            if shard.process.is_alive():
                shard.process.terminate()
            shard.process.join(timeout=STOP_JOIN_TIMEOUT_S)
            if shard.process.is_alive():  # pragma: no cover - defensive
                shard.process.kill()
                shard.process.join(timeout=STOP_JOIN_TIMEOUT_S)
        DEGRADATION.record(
            "parallel", site, f"shard {shard_id} retired: {error!r}"
        )

    # -- dispatch --------------------------------------------------------
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _collect(self, shard_id: int, seq: int, site: str) -> Optional[Tuple]:
        """One shard's reply, or ``None`` after containment.

        ``None`` covers three distinct failures, all already handled:
        a task error reported by a live worker (worker survives), a
        hang past ``task_timeout`` (worker terminated), and a dead pipe
        (worker reaped).  The caller's serial fallback runs either way.
        """
        shard = self._shards[shard_id]
        if shard is None:
            return None
        try:
            if self.task_timeout is not None:
                deadline = time.monotonic() + self.task_timeout
                while not shard.conn.poll(max(0.001, deadline - time.monotonic())):
                    if time.monotonic() >= deadline:
                        raise TimeoutError(
                            f"shard {shard_id} exceeded the "
                            f"{self.task_timeout}s task timeout"
                        )
            reply = shard.conn.recv()
        except (TimeoutError, EOFError, OSError) as error:
            self._kill(shard_id, site, error)
            return None
        if reply[0] == "err" and reply[1] == seq:
            # The worker contained the failure itself; it stays alive.
            self.stats["task_errors"] += 1
            DEGRADATION.record(
                "parallel", site, f"shard {shard_id} task failed: {reply[2]!r}"
            )
            return None
        if reply[0] != "ok" or reply[1] != seq:  # pragma: no cover - protocol bug
            self._kill(
                shard_id, site, RuntimeError(f"out-of-protocol reply {reply[:2]!r}")
            )
            return None
        return reply[2:]

    # -- matching --------------------------------------------------------
    def resolve_pending(
        self,
        table_key: str,
        index: Any,
        matcher: Any,
        pairs: Sequence[Tuple[Any, Any]],
        pending: PendingPairs,
    ) -> List[int]:
        """Matched positions of *pending*, bit-identical to the serial stage 3.

        *pending* is the remainder the parent's batched cascade left
        undecided (:class:`~repro.er.matching.PendingPairs`).  Its pairs
        route to the shard owning their left entity; each bucket ships
        as one message (pair sublist + its rows of the remainder,
        re-based onto that sublist).
        Failed buckets are recomputed serially in the parent against the
        live index — pure decisions, so recovery never changes the
        result.  Cascade-counter deltas fold back in shard order
        (integer sums: exact in any order).
        """
        with self._lock:
            if not self.ensure_started():
                raise ShardUnavailable("shard runtime unavailable")
            n = self.workers
            positions = pending.positions.tolist()
            buckets: List[List[int]] = [[] for _ in range(n)]
            for row, position in enumerate(positions):
                buckets[owner_of(pairs[position][0], n)].append(row)
            dispatched: Dict[int, int] = {}
            failed: List[int] = []
            for shard_id, rows in enumerate(buckets):
                if not rows:
                    continue
                shard = self._shards[shard_id]
                try:
                    inject("shard.task")
                    seq = self._next_seq()
                    shard.conn.send(
                        (
                            "match",
                            seq,
                            table_key,
                            [pairs[positions[row]] for row in rows],
                            _rebased(pending.take(rows)),
                        )
                    )
                    dispatched[shard_id] = seq
                except FaultError as error:
                    # Parent-side injected dispatch failure: the worker
                    # never saw the task, so it stays alive.
                    self.stats["task_errors"] += 1
                    DEGRADATION.record(
                        "parallel",
                        "shard_task",
                        f"shard {shard_id} dispatch failed: {error!r}",
                    )
                    failed.append(shard_id)
                except (OSError, ValueError, EOFError) as error:
                    self._kill(shard_id, "shard_task", error)
                    failed.append(shard_id)
            matched: List[int] = []
            for shard_id in sorted(dispatched):
                reply = self._collect(shard_id, dispatched[shard_id], "shard_task")
                if reply is None:
                    failed.append(shard_id)
                    continue
                shard_matched, delta = reply
                rows = buckets[shard_id]
                matched.extend(positions[rows[offset]] for offset in shard_matched)
                if delta:
                    for key, value in delta.items():
                        matcher.cascade_stats[key] = (
                            matcher.cascade_stats.get(key, 0) + value
                        )
                shard = self._shards[shard_id]
                if shard is not None:
                    shard.stats["tasks"] += 1
                    shard.stats["match_tasks"] += 1
            for shard_id in sorted(failed):
                self.stats["serial_fallbacks"] += 1
                DEGRADATION.record(
                    "parallel",
                    "shard_serial_retry",
                    f"shard {shard_id} bucket of {len(buckets[shard_id])} pairs "
                    f"recomputed serially in the parent",
                )
                matched.extend(
                    matcher.resolve_pending(
                        pairs, index.signatures, pending.take(buckets[shard_id])
                    )
                )
            matched.sort()
            return matched

    # -- span graph ------------------------------------------------------
    def run_spans(
        self,
        members: Any,
        indptr: Any,
        n: int,
        in_focus: Optional[bytearray],
        need_arcs: bool,
        partitions: Sequence[Any],
    ) -> List[GraphResult]:
        """Per-partition span segments, shards assigned round-robin.

        Span inputs are per-query packed arrays (not resident state), so
        each shard's batch ships them once; results are the same
        :class:`GraphResult` tuples the pool path produces and merge
        through the unchanged :class:`DeterministicMerger`.
        """
        with self._lock:
            if not self.ensure_started():
                raise ShardUnavailable("shard runtime unavailable")
            buckets: Dict[int, List[Tuple[int, int, int]]] = {}
            for partition in partitions:
                shard_id = partition.index % self.workers
                buckets.setdefault(shard_id, []).append(
                    (partition.index, partition.start, partition.stop)
                )
            dispatched: Dict[int, int] = {}
            failed: List[int] = []
            for shard_id in sorted(buckets):
                shard = self._shards[shard_id]
                try:
                    inject("shard.task")
                    seq = self._next_seq()
                    shard.conn.send(
                        (
                            "spans",
                            seq,
                            members,
                            indptr,
                            n,
                            in_focus,
                            need_arcs,
                            buckets[shard_id],
                        )
                    )
                    dispatched[shard_id] = seq
                except FaultError as error:
                    self.stats["task_errors"] += 1
                    DEGRADATION.record(
                        "parallel",
                        "shard_task",
                        f"shard {shard_id} dispatch failed: {error!r}",
                    )
                    failed.append(shard_id)
                except (OSError, ValueError, EOFError) as error:
                    self._kill(shard_id, "shard_task", error)
                    failed.append(shard_id)
            results: List[GraphResult] = []
            for shard_id in sorted(dispatched):
                reply = self._collect(shard_id, dispatched[shard_id], "shard_task")
                if reply is None:
                    failed.append(shard_id)
                    continue
                results.extend(reply[0])
                shard = self._shards[shard_id]
                if shard is not None:
                    shard.stats["tasks"] += 1
                    shard.stats["span_tasks"] += 1
            for shard_id in sorted(failed):
                self.stats["serial_fallbacks"] += 1
                DEGRADATION.record(
                    "parallel",
                    "shard_serial_retry",
                    f"shard {shard_id} spans recomputed serially in the parent",
                )
                for partition_index, start, stop in buckets[shard_id]:
                    results.append(
                        compute_span_result(
                            members, indptr, start, stop, n, in_focus,
                            need_arcs, partition_index,
                        )
                    )
            return results

    # -- deltas ----------------------------------------------------------
    def publish_delta(self, table_key: str, index: Any, epoch: int, count: int) -> None:
        """Ship one committed batch to every live shard, synchronously.

        Called strictly post-commit (rolled-back inserts never reach
        this), with the engine's already-advanced epoch.  A shard that
        fails to apply the delta is stale and is killed on the spot —
        its lazy respawn forks the parent's current state, which already
        includes the batch.
        """
        self._epochs[table_key] = int(epoch)
        if count <= 0 or self._closed:
            return
        with self._lock:
            live = [
                (shard_id, shard)
                for shard_id, shard in enumerate(self._shards)
                if shard is not None and shard.alive
            ]
            if not live:
                return
            from repro.persist.snapshot import delta_segment_arrays

            table = index.table
            start_row = len(table) - count
            arrays = delta_segment_arrays(index, start_row, len(table))
            for shard_id, shard in live:
                try:
                    inject("shard.delta")
                    seq = self._next_seq()
                    shard.conn.send(
                        ("delta", seq, table_key, int(epoch), start_row, arrays)
                    )
                    reply = self._collect(shard_id, seq, "shard_delta")
                except (FaultError, OSError, ValueError, EOFError) as error:
                    self.stats["delta_failures"] += 1
                    self._kill(shard_id, "shard_delta", error)
                    continue
                if reply is None:
                    # A delta error leaves the worker's state possibly
                    # stale — unlike a task error it cannot stay alive.
                    if self._shards[shard_id] is not None:
                        self._kill(
                            shard_id,
                            "shard_delta",
                            RuntimeError("delta application failed"),
                        )
                    self.stats["delta_failures"] += 1
                    continue
                shard.epochs[table_key] = int(epoch)
                shard.stats["deltas"] += 1
                self.stats["deltas_published"] += 1

    # -- observability ---------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """Serving-grade snapshot: per-shard tasks, delta lag, respawns."""
        shards = []
        for shard_id, shard in enumerate(self._shards):
            if shard is None:
                shards.append(
                    {"id": shard_id, "alive": False, "tasks": 0,
                     "match_tasks": 0, "span_tasks": 0, "deltas": 0,
                     "delta_lag": 0}
                )
                continue
            lag = sum(
                max(0, self._epochs.get(key, 0) - shard.epochs.get(key, 0))
                for key in self._epochs
            )
            shards.append(
                {
                    "id": shard_id,
                    "alive": shard.alive,
                    "delta_lag": lag,
                    **shard.stats,
                }
            )
        return {
            "workers": self.workers,
            "started": self.started,
            "alive": sum(1 for s in self._shards if s is not None and s.alive),
            **self.stats,
            "shards": shards,
        }


def _rebased(pending: PendingPairs) -> PendingPairs:
    """*pending* with positions 0..n-1: rows of a pair list shipped alongside."""
    return PendingPairs(
        np.arange(len(pending)), pending.total_bounds, pending.bounds
    )


# -- teardown helpers (module-level: the GC finalizer must not hold the
# runtime) -------------------------------------------------------------


def _stop_one(shard: _Shard) -> None:
    try:
        shard.conn.send(("stop", 0))
    except (OSError, ValueError, BrokenPipeError):
        pass
    try:
        shard.conn.close()
    except OSError:
        pass
    shard.process.join(timeout=STOP_JOIN_TIMEOUT_S)
    if shard.process.is_alive():
        shard.process.terminate()
        shard.process.join(timeout=STOP_JOIN_TIMEOUT_S)
    if shard.process.is_alive():  # pragma: no cover - defensive
        shard.process.kill()
        shard.process.join(timeout=STOP_JOIN_TIMEOUT_S)


def _cleanup_shards(shards: List[Optional[_Shard]]) -> None:
    for position, shard in enumerate(shards):
        if shard is None:
            continue
        shards[position] = None
        _stop_one(shard)


# -- worker side ------------------------------------------------------------


def _shard_main(
    shard_id: int,
    state: ShardState,
    conn: Any,
    inherited: List[Any],
) -> None:
    """Worker loop: resident state in, task descriptors over the pipe.

    The first act closes every parent-end pipe fd the fork inherited
    (other shards' and this shard's own parent end) — leaving them open
    would keep sibling pipes alive past their owners and leak fds across
    respawn cycles.
    """
    for other in inherited:
        try:
            other.close()
        except OSError:  # pragma: no cover - already closed
            pass
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        op = message[0]
        if op == "stop":
            break
        seq = message[1]
        try:
            if op == "match":
                conn.send(("ok", seq) + _handle_match(state, message))
            elif op == "spans":
                conn.send(("ok", seq) + _handle_spans(message))
            elif op == "delta":
                conn.send(("ok", seq, _handle_delta(state, message)))
            elif op == "ping":
                conn.send(("ok", seq, shard_id))
            else:
                conn.send(("err", seq, f"unknown op {op!r}"))
        except Exception as error:  # contained: parent retries serially
            try:
                conn.send(("err", seq, error))
            except Exception:  # pragma: no cover - unpicklable error
                conn.send(("err", seq, repr(error)))
        except BaseException:  # pragma: no cover - let the parent reap us
            break
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


def _handle_match(state: ShardState, message: Tuple) -> Tuple:
    """Resolve one routed bucket against the resident index/matcher."""
    _, _, table_key, pairs, pending = message
    inject("shard.task")  # fork-inherited plans reach the worker body here
    index, matcher = state.tables[table_key]
    before = dict(matcher.cascade_stats)
    matched = matcher.resolve_pending(pairs, index.signatures, pending)
    delta = {
        key: matcher.cascade_stats[key] - before.get(key, 0)
        for key in matcher.cascade_stats
    }
    return (matched, delta)


def _handle_spans(message: Tuple) -> Tuple:
    """Generate packed span segments for this shard's partitions."""
    _, _, members, indptr, n, in_focus, need_arcs, triples = message
    inject("shard.task")
    results = [
        compute_span_result(
            members, indptr, start, stop, n, in_focus, need_arcs, partition
        )
        for partition, start, stop in triples
    ]
    return (results,)


def _handle_delta(state: ShardState, message: Tuple) -> int:
    """Apply one committed batch to the resident index.

    Idempotent against the respawn race: a worker forked *after* the
    commit already holds the rows (``start_row < len(table)``) and just
    records the epoch; a gap (``start_row > len(table)``) means a missed
    batch and raises — the parent kills and respawns this shard.
    """
    _, _, table_key, epoch, start_row, arrays = message
    from repro.persist.snapshot import decode_delta_segment

    index, _matcher = state.tables[table_key]
    table = index.table
    if start_row > len(table):
        raise RuntimeError(
            f"shard delta gap for {table_key!r}: batch starts at row "
            f"{start_row}, worker holds {len(table)}"
        )
    if start_row == len(table):
        rows, keys_per_row = decode_delta_segment(table.schema, arrays)
        appended = table.append_rows(rows, coerce=False)
        keys_of = {
            row.id: set(keys)
            for row, keys in zip(appended, keys_per_row)
        }
        index.add_records([row.id for row in appended], keys_of=keys_of)
    state.epochs[table_key] = int(epoch)
    return int(epoch)
