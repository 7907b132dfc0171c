"""The engine-as-a-service core: admission, snapshot reads, caching.

:class:`EngineService` wraps one long-lived
:class:`~repro.core.engine.QueryEREngine` and makes it safe and fast to
share.  Transport-agnostic: the HTTP layer (:mod:`repro.serving.http`),
tests and benchmarks all call the same :meth:`query` / :meth:`insert`
entry points.

Concurrency model
-----------------
The engine itself is a single-caller library — a DEDUP execution
mutates shared state (the progressive-cleaning Link Index, matcher
memos, the plan cache), so raw engine calls are serialized
behind one *engine gate*.  Concurrency is won **above** the gate:

* **result cache** — epoch-keyed snapshot answers (an
  :class:`~repro.core.epoch_cache.EpochCache`, keyed on the epochs of
  the tables the statement names) are served without touching the
  engine or its gate at all;
* **single-flight coalescing** — concurrent identical queries share
  one gated execution (:mod:`repro.serving.coalescer`);
* **admission control** — at most ``max_inflight`` requests may hold
  or wait for the gate; the rest are refused immediately with
  :class:`OverloadError` (HTTP 503 + Retry-After) instead of queueing
  into collapse;
* **per-request timeout** — a request gives up (:class:`RequestTimeout`,
  HTTP 504) rather than wait on the gate forever; an execution already
  running always completes, so its result still warms the cache.

Every response is stamped with the epoch map it executed under
(:meth:`QueryEREngine.table_epochs` read *inside* the gate, so the
stamp provably describes the executed snapshot).  ``INSERT INTO`` takes
the same gate, bumps the affected table's epoch, and explicitly evicts
the now-stale cache entries — readers before and after an insert each
see one consistent epoch's answer, never torn state.  An insert into
one table leaves the answers of statements over other tables cached.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Optional, Tuple, Union

from repro.core.engine import QueryEREngine
from repro.core.epoch_cache import EpochCache, epoch_key
from repro.core.planner import ExecutionMode
from repro.er.util import LRUCache
from repro.resilience import DEGRADATION, inject
from repro.serving.coalescer import CoalesceTimeout, SingleFlight
from repro.serving.metrics import ServiceMetrics
from repro.sql import ast, normalize_sql
from repro.sql.parser import parse


@dataclass(frozen=True)
class CachedResult:
    """One served query's immutable answer plus its execution stamp."""

    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Any, ...], ...]
    comparisons: int
    stage_times: Dict[str, float] = field(default_factory=dict)
    #: The epoch map the answer was computed under — the snapshot stamp.
    epochs: Dict[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0
    plan_description: str = ""


class OverloadError(Exception):
    """Admission refused: the service is at its inflight capacity."""

    def __init__(self, inflight: int, limit: int, retry_after: float = 1.0):
        super().__init__(
            f"service overloaded: {inflight} requests in flight (limit {limit})"
        )
        self.retry_after = retry_after


class RequestTimeout(Exception):
    """The request's wait (gate queue or coalesced flight) expired."""


@dataclass(frozen=True)
class ServedQuery:
    """One answered query: the result plus its serving provenance."""

    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Any, ...], ...]
    comparisons: int
    elapsed_s: float
    #: Epoch snapshot the answer describes (see the engine's contract).
    epochs: Dict[str, int]
    #: How the answer was produced: executed fresh ("miss"), shared a
    #: concurrent execution ("coalesced"), or served from cache ("hit").
    cache: str
    normalized_sql: str
    stage_times: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "row_count": len(self.rows),
            "comparisons": self.comparisons,
            "elapsed_s": round(self.elapsed_s, 6),
            "epochs": dict(self.epochs),
            "cache": self.cache,
            "stage_times": {k: round(v, 6) for k, v in self.stage_times.items()},
            "sql": self.normalized_sql,
        }


class EngineService:
    """Concurrent facade over one long-lived :class:`QueryEREngine`.

    Parameters
    ----------
    engine:
        The engine to serve.  The service assumes sole ownership: all
        concurrent access must go through :meth:`query`/:meth:`insert`.
    max_inflight:
        Admission bound — requests needing the engine beyond this many
        are refused with :class:`OverloadError`.  Cache hits are never
        refused (they cost microseconds and touch no engine state).
    default_timeout:
        Per-request seconds a caller waits for the engine gate or a
        coalesced flight before :class:`RequestTimeout`; overridable
        per request, ``None`` waits forever.
    cache_size:
        Result-cache capacity in entries (``0`` disables caching).
    log_stream:
        Where structured per-request JSON lines go (``None`` disables).
    """

    def __init__(
        self,
        engine: QueryEREngine,
        max_inflight: int = 8,
        default_timeout: Optional[float] = 30.0,
        cache_size: int = 256,
        log_stream: Optional[IO[str]] = None,
    ):
        self.engine = engine
        self.max_inflight = max_inflight
        self.default_timeout = default_timeout
        self.metrics = ServiceMetrics()
        self.cache = EpochCache(cache_size)
        #: Normalized SQL → the tables it names, remembered on a miss so
        #: that a hit can build its cache key without a parse.
        self._tables = LRUCache(cache_size)
        self.flights = SingleFlight()
        #: The process-wide degradation log (per-layer graceful
        #: fallbacks), surfaced by /healthz and /metrics.
        self.degradation = DEGRADATION
        self._gate = threading.Lock()
        self._admission = threading.Lock()
        self._inflight = 0
        self._log_stream = log_stream
        self._log_lock = threading.Lock()
        self._started = time.time()

    # -- public entry points --------------------------------------------
    def execute(
        self,
        sql: str,
        mode: Union[ExecutionMode, str] = ExecutionMode.AES,
        timeout: Optional[float] = None,
    ) -> ServedQuery:
        """Serve one SQL statement: SELECTs read, ``INSERT INTO`` writes.

        A statement :meth:`query` has seen is a read, so it is routed
        without a parse; any other is parsed (a ParseError/LexError is
        HTTP 400) to tell an ``INSERT INTO`` from a read.
        """
        started = time.perf_counter()
        normalized = normalize_sql(sql)
        if normalized not in self._tables and isinstance(parse(sql), ast.InsertStatement):
            return self.insert_sql(sql, timeout=timeout)
        return self._read(sql, normalized, mode, timeout, started)

    def query(
        self,
        sql: str,
        mode: Union[ExecutionMode, str] = ExecutionMode.AES,
        timeout: Optional[float] = None,
    ) -> ServedQuery:
        """Answer a read-only query at one consistent epoch snapshot.

        An ``INSERT INTO`` is refused with :class:`ValueError` (HTTP
        400): it is not a read, and only reads are remembered.
        """
        return self._read(sql, normalize_sql(sql), mode, timeout, time.perf_counter())

    def _read(
        self,
        sql: str,
        normalized: str,
        mode: Union[ExecutionMode, str],
        timeout: Optional[float],
        started: float,
    ) -> ServedQuery:
        """:meth:`query` of *sql*, whose normalized text is *normalized*."""
        mode_name = mode.value if isinstance(mode, ExecutionMode) else str(mode)
        timeout = self.default_timeout if timeout is None else timeout
        self.metrics.increment("queries_total")

        # Fast path: a cached answer for the current epochs of the
        # statement's tables needs no admission, no gate, no engine and
        # no parse.  The unlocked epoch read is safe: whatever epochs we
        # observe, the entry they key was computed at exactly those.
        tables = self._tables.get(normalized)
        if tables is None:
            statement = parse(sql)
            if isinstance(statement, ast.InsertStatement):
                raise ValueError("query() serves reads; send INSERT INTO through execute()")
            tables = self.engine.statement_tables(statement)
            self._tables.put(normalized, tables)
        else:
            key = epoch_key(mode_name, normalized, self.engine.epochs_of(tables))
            entry = self.cache.get(key)
            if entry is not None:
                served = self._served(entry, "hit", normalized, started)
                self._record(served)
                return served

        self._admit()
        try:
            outcome, coalesced = self.flights.run(
                (normalized, mode_name),
                lambda: self._execute_gated(sql, normalized, tables, mode_name, timeout),
                timeout=timeout,
            )
        except CoalesceTimeout:
            self.metrics.increment("timeouts")
            raise RequestTimeout(
                f"timed out after {timeout}s waiting for a coalesced execution"
            ) from None
        finally:
            self._release()
        entry, freshly_executed = outcome
        label = "coalesced" if coalesced else ("miss" if freshly_executed else "hit")
        served = self._served(entry, label, normalized, started)
        self._record(served)
        return served

    def insert_sql(self, sql: str, timeout: Optional[float] = None) -> ServedQuery:
        """Run an ``INSERT INTO`` statement with cache invalidation."""
        started = time.perf_counter()
        timeout = self.default_timeout if timeout is None else timeout
        normalized = normalize_sql(sql)
        self.metrics.increment("inserts_total")
        self._admit()
        try:
            self._acquire_gate(timeout)
            try:
                try:
                    result = self.engine.execute(sql)
                except Exception:
                    # A failed INSERT INTO rolled back below the gate
                    # (see IndexMaintainer.append); the epoch did not
                    # advance, so existing cache entries stay valid.
                    self.metrics.increment("insert_errors")
                    raise
                epochs = self.engine.table_epochs()
                # Explicit invalidation: the epoch advance already made
                # stale entries unreachable; this frees their memory now.
                self.cache.evict_stale(epochs)
            finally:
                self._gate.release()
        finally:
            self._release()
        served = ServedQuery(
            columns=tuple(result.columns),
            rows=tuple(tuple(row) for row in result.rows),
            comparisons=result.comparisons,
            elapsed_s=time.perf_counter() - started,
            epochs=epochs,
            cache="write",
            normalized_sql=normalized,
            stage_times=dict(result.stage_times),
        )
        self._record(served)
        return served

    def insert_rows(
        self,
        table: str,
        rows: Any,
        columns: Optional[Any] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Programmatic twin of :meth:`insert_sql` for the /insert endpoint."""
        started = time.perf_counter()
        timeout = self.default_timeout if timeout is None else timeout
        self.metrics.increment("inserts_total")
        self._admit()
        try:
            self._acquire_gate(timeout)
            try:
                try:
                    outcome = self.engine.insert(
                        table, [tuple(row) for row in rows], columns=columns
                    )
                except Exception:
                    self.metrics.increment("insert_errors")
                    raise
                epochs = self.engine.table_epochs()
                self.cache.evict_stale(epochs)
            finally:
                self._gate.release()
        finally:
            self._release()
        payload = {
            "table": outcome.table,
            "inserted": outcome.inserted,
            "touched_blocks": outcome.touched_blocks,
            "invalidated": outcome.invalidated,
            "epochs": epochs,
            "elapsed_s": round(time.perf_counter() - started, 6),
        }
        self._log({"event": "insert", **payload})
        return payload

    # -- observability ---------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        """Liveness plus degradation: ``status`` stays ``ok`` while the
        service can answer at all — ``degraded`` flags that some layer
        has taken a graceful fallback (details under ``/metrics``)."""
        degradation = self.degradation.layer_counts()
        payload = {
            "status": "ok",
            "degraded": bool(degradation),
            "degradation": degradation,
            "uptime_s": round(time.time() - self._started, 3),
            "tables": sorted(self.engine.table_epochs()),
            "epochs": self.engine.table_epochs(),
            "inflight": self._inflight,
        }
        persist = self._persist_status()
        if persist is not None:
            payload["persist"] = {
                "snapshot_epoch_map": persist["snapshot_epoch_map"],
                "last_checkpoint_age_s": persist["last_checkpoint_age_s"],
                "delta_segments": persist["delta_segments"],
            }
        return payload

    def metrics_snapshot(self) -> Dict[str, Any]:
        snapshot = self.metrics.snapshot()
        snapshot["cache"] = self.cache.snapshot()
        # The engine's plan LRU (hits/misses/evictions/invalidations of
        # plans) — plans are reused
        # across requests, so their churn is a serving-level signal like
        # the result cache's.
        snapshot["plan_cache"] = self.engine.plan_cache.snapshot()
        snapshot["coalescer"] = dict(self.flights.stats)
        snapshot["inflight"] = self._inflight
        snapshot["max_inflight"] = self.max_inflight
        snapshot["epochs"] = self.engine.table_epochs()
        snapshot["degradation"] = self.degradation.snapshot()
        persist = self._persist_status()
        if persist is not None:
            snapshot["persist"] = persist
        return snapshot

    def _persist_status(self) -> Optional[Dict[str, Any]]:
        """The checkpointer's health block, when one is attached.

        How far the on-disk snapshot lags the live engine is readable
        from ``snapshot_epoch_map`` (vs ``epochs``), the last-checkpoint
        age, and the delta-segment count (how much replay a restart
        would concatenate before the next compaction folds it away).
        """
        checkpointer = getattr(self.engine, "checkpointer", None)
        return checkpointer.status() if checkpointer is not None else None

    # -- internals -------------------------------------------------------
    def _execute_gated(
        self,
        sql: str,
        normalized: str,
        tables: Tuple[str, ...],
        mode_name: str,
        timeout: Optional[float],
    ) -> Tuple[CachedResult, bool]:
        """Leader body: execute under the gate at a provable snapshot.

        Returns ``(entry, freshly_executed)`` — the double-check inside
        the gate can still find a cache entry another leader stored
        while this request waited, in which case nothing executes.
        """
        self._acquire_gate(timeout)
        try:
            epochs = self.engine.table_epochs()
            key = epoch_key(mode_name, normalized, self.engine.epochs_of(tables))
            entry = self.cache.get(key)
            if entry is not None:
                return entry, False
            try:
                inject("serving.handler")  # handler exception mid-request
                inject("serving.slow")  # slow execution (hang kind)
                result = self.engine.execute(sql, mode_name)
            except Exception as error:
                # The gate and the admission slot are both released by
                # the enclosing finally blocks; all that is left to do
                # is make the failure observable before it propagates
                # (to this leader and every coalesced follower).
                self.metrics.increment("execution_errors")
                DEGRADATION.record(
                    "serving", "execution_error", f"query execution failed: {error!r}"
                )
                raise
            entry = CachedResult(
                columns=tuple(result.columns),
                rows=tuple(tuple(row) for row in result.rows),
                comparisons=result.comparisons,
                stage_times=dict(result.stage_times),
                epochs=epochs,
                elapsed_s=result.elapsed,
                plan_description=result.plan_description,
            )
            self.cache.put(key, entry)
            self.metrics.increment("executions")
            return entry, True
        finally:
            self._gate.release()

    def _acquire_gate(self, timeout: Optional[float]) -> None:
        acquired = (
            self._gate.acquire()
            if timeout is None
            else self._gate.acquire(timeout=timeout)
        )
        if not acquired:
            self.metrics.increment("timeouts")
            raise RequestTimeout(f"timed out after {timeout}s waiting for the engine")

    def _admit(self) -> None:
        with self._admission:
            if self._inflight >= self.max_inflight:
                self.metrics.increment("rejected_overload")
                raise OverloadError(self._inflight, self.max_inflight)
            self._inflight += 1

    def _release(self) -> None:
        with self._admission:
            self._inflight -= 1

    def _served(
        self, entry: CachedResult, label: str, normalized: str, started: float
    ) -> ServedQuery:
        return ServedQuery(
            columns=entry.columns,
            rows=entry.rows,
            comparisons=entry.comparisons,
            elapsed_s=time.perf_counter() - started,
            epochs=dict(entry.epochs),
            cache=label,
            normalized_sql=normalized,
            stage_times=dict(entry.stage_times),
        )

    def _record(self, served: ServedQuery) -> None:
        self.metrics.increment(f"cache_{served.cache}")
        # Stage latencies only for fresh executions: a cache hit has no
        # stages, and double-counting the leader's breakdown for every
        # coalesced follower would skew the percentiles.
        stage_times = served.stage_times if served.cache == "miss" else {}
        self.metrics.observe_stages(served.elapsed_s, stage_times)
        self._log(
            {
                "event": "query",
                "sql": served.normalized_sql,
                "cache": served.cache,
                "rows": len(served.rows),
                "comparisons": served.comparisons,
                "elapsed_ms": round(1000.0 * served.elapsed_s, 3),
                "epochs": served.epochs,
            }
        )

    def _log(self, record: Dict[str, Any]) -> None:
        if self._log_stream is None:
            return
        line = json.dumps(
            {"ts": round(time.time(), 3), **record}, sort_keys=False, default=str
        )
        with self._log_lock:
            self._log_stream.write(line + "\n")
            self._log_stream.flush()
