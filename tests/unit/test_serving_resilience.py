"""Serving-layer resilience: faults never wedge the service or leak slots.

Covers the failure surface of :mod:`repro.serving` end to end: handler
exceptions (injected via ``serving.handler``), slow executions
(``serving.slow``), coalesced-follower timeouts, the 503/504 wire
contract with ``error_kind`` and ``Retry-After``, epoch-correct caching
around a timed-out execution that later completes, and the
:class:`RetryingClient` recovery discipline against a genuinely faulty
server.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.engine import QueryEREngine
from repro.datagen import generate_people
from repro.datagen.people import people_schema
from repro.resilience import DEGRADATION, FaultError, FaultPlan, clear_plan, install_plan
from repro.serving import (
    EngineService,
    GaveUp,
    RequestTimeout,
    RetryingClient,
    make_server,
)
from repro.storage.table import Table

SQL = "SELECT DEDUP id, given_name, surname FROM PPL WHERE state = 'nsw'"


@pytest.fixture(autouse=True)
def _isolated():
    clear_plan()
    DEGRADATION.clear()
    yield
    clear_plan()
    DEGRADATION.clear()


@pytest.fixture()
def rows():
    table, _ = generate_people(155, seed=21, name="PPL")
    values = [tuple(row.values) for row in table]
    return values[:150], values[150:]


@pytest.fixture()
def service(rows):
    base, _ = rows
    engine = QueryEREngine()
    engine.register(Table("PPL", people_schema(), base))
    return EngineService(engine, max_inflight=4, cache_size=64)


@pytest.fixture()
def served(service):
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield host, port, service
    server.shutdown()
    server.server_close()


def _slots_are_clean(service: EngineService) -> bool:
    """No leaked admission slot, and the engine gate is acquirable."""
    if service._inflight != 0:
        return False
    if not service._gate.acquire(blocking=False):
        return False
    service._gate.release()
    return True


def _http_error(host, port, method, path, body=None):
    """Issue one request expected to fail; returns (status, payload)."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestServiceFaultContainment:
    def test_handler_fault_releases_every_slot(self, service):
        install_plan(FaultPlan().add("serving.handler", times=1))
        with pytest.raises(FaultError):
            service.query(SQL)
        assert _slots_are_clean(service)
        assert service.metrics.counter("execution_errors") == 1
        assert DEGRADATION.count("serving") == 1
        # The fault is spent: the very next request answers normally.
        assert service.query(SQL).cache == "miss"

    def test_failed_insert_releases_slots_and_keeps_cache_valid(self, service, rows):
        _, extra = rows
        epochs_before = service.engine.table_epochs()
        warmed = service.query(SQL)
        install_plan(FaultPlan().add("dml.before_commit", times=1))
        with pytest.raises(Exception) as excinfo:
            service.insert_rows("PPL", extra)
        assert getattr(excinfo.value, "rolled_back", False)
        assert _slots_are_clean(service)
        assert service.metrics.counter("insert_errors") == 1
        # No epoch advance happened, so the warmed entry still serves.
        assert service.engine.table_epochs() == epochs_before
        replay = service.query(SQL)
        assert replay.cache == "hit"
        assert replay.rows == warmed.rows

    def test_follower_timeout_while_leader_completes(self, service, rows):
        _, extra = rows
        epochs_before = service.engine.table_epochs()
        install_plan(FaultPlan().add("serving.slow", kind="hang", delay=1.0, times=1))
        leader_error = []

        def lead():
            try:
                service.query(SQL)
            except Exception as error:  # pragma: no cover - fails the test below
                leader_error.append(error)

        leader = threading.Thread(target=lead)
        leader.start()
        time.sleep(0.3)  # leader is now sleeping inside the gate
        with pytest.raises(RequestTimeout):
            service.query(SQL, timeout=0.1)  # coalesced follower gives up
        leader.join()
        assert not leader_error
        assert service.metrics.counter("timeouts") == 1
        assert _slots_are_clean(service)

        # The leader's completed execution was cached under the epoch
        # map read inside the gate — the 504 must not have poisoned it.
        hit = service.query(SQL)
        assert hit.cache == "hit"
        assert hit.epochs == epochs_before

        # After an insert advances the epoch, the old entry is stale by
        # key construction: the same query re-executes, never serving
        # the pre-insert answer under the new epochs.
        service.insert_rows("PPL", extra)
        fresh = service.query(SQL)
        assert fresh.cache == "miss"
        assert fresh.epochs != epochs_before


class TestHTTPErrorContract:
    def test_handler_fault_maps_to_500_injected_fault(self, served):
        host, port, service = served
        install_plan(FaultPlan().add("serving.handler", times=1))
        status, payload = _http_error(host, port, "POST", "/query", {"sql": SQL})
        assert status == 500
        assert payload["error_kind"] == "injected_fault"
        # The per-connection thread answered instead of dying: the
        # server keeps serving on the same socket.
        status, payload = _http_error(host, port, "POST", "/query", {"sql": SQL})
        assert status == 200
        metrics = service.metrics_snapshot()
        assert metrics["degradation"]["total"] >= 1

    def test_overload_carries_retry_after_header_and_kind(self, served):
        host, port, service = served
        with service._admission:
            service._inflight = service.max_inflight
        try:
            request = urllib.request.Request(
                f"http://{host}:{port}/query",
                data=json.dumps({"sql": SQL}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            error = excinfo.value
            payload = json.loads(error.read())
            assert error.code == 503
            assert payload["error_kind"] == "overload"
            assert float(error.headers["Retry-After"]) >= 1
            assert payload["retry_after_s"] > 0
        finally:
            with service._admission:
                service._inflight = 0

    def test_follower_timeout_maps_to_504(self, served):
        host, port, service = served
        install_plan(FaultPlan().add("serving.slow", kind="hang", delay=1.0, times=1))
        leader = threading.Thread(
            target=lambda: _http_error(host, port, "POST", "/query", {"sql": SQL})
        )
        leader.start()
        time.sleep(0.3)
        status, payload = _http_error(
            host, port, "POST", "/query", {"sql": SQL, "timeout": 0.1}
        )
        leader.join()
        assert status == 504
        assert payload["error_kind"] == "timeout"

    def test_bad_request_and_not_found_kinds(self, served):
        host, port, _ = served
        status, payload = _http_error(host, port, "POST", "/query", {"sql": ""})
        assert (status, payload["error_kind"]) == (400, "bad_request")
        status, payload = _http_error(host, port, "GET", "/nope")
        assert (status, payload["error_kind"]) == (404, "not_found")


class TestRetryingClient:
    def test_recovers_from_transient_handler_faults(self, served):
        host, port, _ = served
        install_plan(FaultPlan().add("serving.handler", times=2))
        client = RetryingClient(host, port, max_attempts=5, base_backoff=0.01, seed=3)
        status, payload = client.query(SQL)
        assert status == 200
        assert payload["rows"]
        assert client.stats["attempts"] == 3
        assert client.stats["retries"] == 2

    def test_gives_up_on_persistent_faults(self, served):
        host, port, _ = served
        install_plan(FaultPlan().add("serving.handler", times=None))
        client = RetryingClient(host, port, max_attempts=2, base_backoff=0.01, seed=3)
        with pytest.raises(GaveUp) as excinfo:
            client.query(SQL)
        assert excinfo.value.attempts == 2
        assert excinfo.value.status == 500

    def test_retries_rolled_back_insert_without_duplicating_rows(self, served, rows):
        host, port, service = served
        _, extra = rows
        install_plan(FaultPlan().add("dml.before_commit", times=1))
        client = RetryingClient(host, port, max_attempts=4, base_backoff=0.01, seed=3)
        status, payload = client.insert("PPL", extra)
        assert status == 200
        assert payload["inserted"] == len(extra)
        assert client.stats["attempts"] == 2  # one rollback, one commit
        # The rollback really left nothing behind: exactly one batch landed.
        assert len(service.engine.index_of("PPL").table) == 150 + len(extra)

    def test_retry_policy_table(self):
        client = RetryingClient("localhost", 1, seed=0)
        retryable = client._retryable
        assert retryable(200, {}, True) is None  # success is conclusive
        assert retryable(400, {"error_kind": "bad_request"}, True) is None
        assert retryable(503, {"retry_after_s": 2.5}, False) == 2.5  # pre-admission
        assert retryable(504, {}, True) == 0.0
        assert retryable(504, {}, False) is None  # write may have landed
        assert retryable(500, {"error_kind": "internal"}, True) == 0.0
        assert retryable(500, {"error_kind": "internal"}, False) is None
        assert retryable(500, {"error_kind": "ingest_failed"}, False) == 0.0

    def test_backoff_honors_retry_after_floor_and_jitters(self):
        sleeps = []
        client = RetryingClient(
            "localhost", 1, base_backoff=0.01, max_backoff=0.05,
            seed=5, sleeper=sleeps.append,
        )
        client._backoff(0, 0.5)
        assert sleeps and sleeps[0] >= 0.5  # server hint is a floor
        sleeps.clear()
        for attempt in range(8):
            client._backoff(attempt, None)
        assert all(s <= 0.05 for s in sleeps)  # capped by max_backoff
        # Deterministic under the seed: same schedule every run.
        replay = []
        twin = RetryingClient(
            "localhost", 1, base_backoff=0.01, max_backoff=0.05,
            seed=5, sleeper=replay.append,
        )
        twin._backoff(0, 0.5)
        for attempt in range(8):
            twin._backoff(attempt, None)
        assert replay == [0.5] + sleeps
