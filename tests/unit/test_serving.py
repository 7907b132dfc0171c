"""Unit tests of the serving subsystem (repro.serving) and engine epochs."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.engine import QueryEREngine
from repro.core.epoch_cache import EpochCache, epoch_key
from repro.datagen import generate_people
from repro.er.meta_blocking import MetaBlockingConfig
from repro.serving import (
    CachedResult,
    CoalesceTimeout,
    EngineService,
    LatencyRecorder,
    OverloadError,
    RequestTimeout,
    ServiceMetrics,
    SingleFlight,
    make_server,
)
from repro.serving import service as service_module
from repro.storage.table import Table


# -- engine epochs ----------------------------------------------------------
class TestEngineEpochs:
    @pytest.fixture
    def engine(self):
        table, _ = generate_people(60, seed=11, name="PPL")
        engine = QueryEREngine()
        engine.register(table)
        return engine

    def test_register_opens_epoch(self, engine):
        assert engine.epoch_of("PPL") == 1
        assert engine.epoch_of("ppl") == 1  # case-insensitive
        assert engine.epoch_of("unknown") == 0

    def test_insert_advances_epoch(self, engine):
        before = engine.epoch_of("PPL")
        engine.insert("PPL", [(9001, "Ann", "Li", "1", "x", "y", "2000", "nsw",
                               "1990-01-01", 34, "1", "a@b.c", "Acme")])
        assert engine.epoch_of("PPL") == before + 1

    def test_empty_append_does_not_advance(self, engine):
        before = engine.epoch_of("PPL")
        engine.note_appended("PPL", 0)
        assert engine.epoch_of("PPL") == before

    def test_replace_registration_advances_epoch(self, engine):
        table, _ = generate_people(30, seed=12, name="PPL")
        engine.register(table, replace=True)
        assert engine.epoch_of("PPL") == 2

    def test_table_epochs_is_a_snapshot(self, engine):
        snapshot = engine.table_epochs()
        engine.insert("PPL", [(9002, "Bo", "Xu", "2", "x", "y", "2000", "vic",
                               "1991-01-01", 33, "2", "b@c.d", "Acme")])
        assert snapshot == {"ppl": 1}
        assert engine.table_epochs() == {"ppl": 2}


class TestDedupFollowsEpochs:
    """An engine follows its epochs: candidates are re-derived per query,
    so after an insert or a replacing registration it answers as a fresh
    engine over the same final rows."""

    SQL = "SELECT DEDUP id, given_name, surname, state FROM P WHERE state IN ('nsw', 'vic')"

    @staticmethod
    def _engine(table):
        # Link Index off: the frontier alone decides which rows are
        # cleaned, the regime where stale candidates would show.
        engine = QueryEREngine(
            meta_blocking=MetaBlockingConfig.none(),
            use_link_index=False,
        )
        engine.register(table)
        return engine

    @staticmethod
    def _table(rows, schema):
        return Table("P", schema, rows, coerce=False)

    def test_dedup_after_insert_equals_fresh_engine(self):
        people, _ = generate_people(90, seed=13, name="P")
        rows = [tuple(row.values) for row in people]
        with self._engine(self._table(rows[:60], people.schema)) as engine:
            before = engine.execute(self.SQL).sorted_rows()
            engine.insert("P", rows[60:])
            assert engine.epoch_of("P") == 2
            after = engine.execute(self.SQL).sorted_rows()
        with self._engine(self._table(rows, people.schema)) as fresh:
            assert after == fresh.execute(self.SQL).sorted_rows()
        assert after != before

    def test_dedup_after_replace_registration_equals_fresh_engine(self):
        first, _ = generate_people(60, seed=13, name="P")
        second, _ = generate_people(60, seed=14, name="P")
        rows = [tuple(row.values) for row in second]
        with self._engine(first) as engine:
            before = engine.execute(self.SQL).sorted_rows()
            engine.register(self._table(rows, second.schema), replace=True)
            assert engine.epoch_of("P") == 2
            after = engine.execute(self.SQL).sorted_rows()
        with self._engine(self._table(rows, second.schema)) as fresh:
            assert after == fresh.execute(self.SQL).sorted_rows()
        assert after != before


# -- metrics ----------------------------------------------------------------
class TestLatencyRecorder:
    def test_percentiles(self):
        recorder = LatencyRecorder()
        for ms in range(1, 101):
            recorder.record(ms / 1000.0)
        assert recorder.percentile(50) == pytest.approx(0.050)
        assert recorder.percentile(99) == pytest.approx(0.099)

    def test_window_slides(self):
        recorder = LatencyRecorder(capacity=4)
        for value in (1.0, 1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0):
            recorder.record(value)
        assert recorder.percentile(50) == 5.0

    def test_empty_snapshot(self):
        assert LatencyRecorder().snapshot() == {"count": 0}


class TestServiceMetrics:
    def test_counters_and_stages(self):
        metrics = ServiceMetrics()
        metrics.increment("queries_total")
        metrics.increment("queries_total", 2)
        metrics.observe_stages(0.5, {"block-join": 0.2})
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["queries_total"] == 3
        assert snapshot["latency"]["total"]["count"] == 1
        assert snapshot["latency"]["block-join"]["p50_ms"] == pytest.approx(200.0)


class TestResourceBlocks:
    """``/metrics`` and ``/healthz`` report a block per long-lived engine
    resource; a plain engine has none to report."""

    BASE_BLOCKS = {
        "counters", "latency", "cache", "plan_cache", "coalescer",
        "inflight", "max_inflight", "epochs", "degradation", "uptime_s",
    }

    @staticmethod
    def _service():
        table, _ = generate_people(40, seed=17, name="PPL")
        engine = QueryEREngine()
        engine.register(table)
        return EngineService(engine)

    def test_plain_engine_reports_only_the_base_blocks(self):
        service = self._service()
        service.query("SELECT DEDUP id, surname FROM PPL")
        assert set(service.metrics_snapshot()) == self.BASE_BLOCKS
        assert "persist" not in service.healthz()

    def test_checkpointing_engine_adds_the_persist_block(self, tmp_path):
        service = self._service()
        with service.engine:
            service.engine.enable_checkpointing(tmp_path)
            template = service.engine.index_of("PPL").table[0].values
            service.insert_rows("PPL", [(9001,) + tuple(template[1:])])
            metrics = service.metrics_snapshot()
            assert set(metrics) == self.BASE_BLOCKS | {"persist"}
            assert metrics["persist"]["snapshot_epoch_map"] == metrics["epochs"]
            assert service.healthz()["persist"]["delta_segments"] == 1


# -- result cache -----------------------------------------------------------
def _entry(epochs):
    return CachedResult(columns=("a",), rows=((1,),), comparisons=0, epochs=epochs)


class TestResultCache:
    """The serving result cache is an :class:`EpochCache`."""

    def test_epoch_in_key_separates_snapshots(self):
        cache = EpochCache(8)
        cache.put(epoch_key("q", "aes", {"t": 1}), _entry({"t": 1}))
        assert cache.get(epoch_key("q", "aes", {"t": 1})) is not None
        assert cache.get(epoch_key("q", "aes", {"t": 2})) is None
        assert cache.get(epoch_key("q", "nes", {"t": 1})) is None

    def test_lru_eviction(self):
        cache = EpochCache(2)
        for i in range(3):
            cache.put(("q%d" % i, "aes", frozenset()), _entry({}))
        assert cache.get(("q0", "aes", frozenset())) is None
        assert cache.get(("q2", "aes", frozenset())) is not None
        assert cache.stats["evictions"] == 1

    def test_evict_stale_drops_old_epochs_only(self):
        cache = EpochCache(8)
        cache.put(epoch_key("q1", "aes", {"t": 1}), _entry({"t": 1}))
        cache.put(epoch_key("q2", "aes", {"t": 2, "u": 1}), _entry({"t": 2, "u": 1}))
        dropped = cache.evict_stale({"t": 2, "u": 1})
        assert dropped == 1
        assert len(cache) == 1
        assert cache.stats["invalidations"] == 1
        assert cache.get(epoch_key("q2", "aes", {"t": 2, "u": 1})) is not None

    def test_zero_capacity_disables(self):
        cache = EpochCache(0)
        cache.put(("q", "aes", frozenset()), _entry({}))
        assert cache.get(("q", "aes", frozenset())) is None

    def test_answers_key_on_the_tables_the_statement_names(self):
        left, _ = generate_people(60, seed=11, name="L")
        right, _ = generate_people(40, seed=12, name="R")
        engine = QueryEREngine()
        engine.register(left)
        engine.register(right)
        service = EngineService(engine)
        sql = "SELECT DEDUP id, surname FROM L WHERE state = 'nsw'"
        first = service.query(sql)
        extra = list(right[0].values)
        extra[0] = 9001
        service.insert_rows("R", [extra])
        again = service.query(sql)
        assert again.cache == "hit"
        assert again.rows == first.rows
        # An insert into L itself still evicts the answer.
        extra[0] = 9002
        service.insert_rows("L", [extra])
        assert service.query(sql).cache == "miss"


# -- single flight ----------------------------------------------------------
class TestSingleFlight:
    def test_concurrent_identical_calls_share_one_execution(self):
        flights = SingleFlight()
        executions = []
        gate = threading.Event()

        def slow():
            executions.append(1)
            gate.wait(5)
            return "answer"

        outcomes = []

        def call():
            outcomes.append(flights.run("k", slow, timeout=10))

        threads = [threading.Thread(target=call) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.1)
        gate.set()
        for thread in threads:
            thread.join()
        assert len(executions) == 1
        assert {value for value, _ in outcomes} == {"answer"}
        assert sorted(coalesced for _, coalesced in outcomes) == [False, True, True, True]
        assert flights.stats["coalesced"] == 3

    def test_sequential_calls_both_execute(self):
        flights = SingleFlight()
        assert flights.run("k", lambda: 1) == (1, False)
        assert flights.run("k", lambda: 2) == (2, False)

    def test_leader_error_propagates_to_followers(self):
        flights = SingleFlight()
        gate = threading.Event()
        outcomes = []

        def boom():
            gate.wait(5)
            raise RuntimeError("leader failed")

        def call():
            try:
                flights.run("k", boom, timeout=10)
            except RuntimeError as error:
                outcomes.append(str(error))

        threads = [threading.Thread(target=call) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.1)
        gate.set()
        for thread in threads:
            thread.join()
        assert outcomes == ["leader failed"] * 3

    def test_follower_timeout(self):
        flights = SingleFlight()
        release = threading.Event()
        started = threading.Event()

        def slow():
            started.set()
            release.wait(5)
            return "late"

        leader = threading.Thread(target=lambda: flights.run("k", slow))
        leader.start()
        started.wait(5)
        with pytest.raises(CoalesceTimeout):
            flights.run("k", slow, timeout=0.05)
        release.set()
        leader.join()
        assert flights.stats["timeouts"] == 1


# -- the service over HTTP --------------------------------------------------
@pytest.fixture(scope="module")
def served():
    table, _ = generate_people(150, seed=21, name="PPL")
    engine = QueryEREngine()
    engine.register(table)
    service = EngineService(engine, max_inflight=8, cache_size=64)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.url, service, engine
    server.shutdown()
    server.server_close()


def _post(url, path, body, timeout=60):
    request = urllib.request.Request(
        url + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.load(response)


def _get(url, path, timeout=10):
    with urllib.request.urlopen(url + path, timeout=timeout) as response:
        return json.load(response)


SQL = "SELECT DEDUP id, given_name, surname FROM PPL WHERE state = 'nsw'"


class TestHTTPService:
    def test_query_roundtrip_matches_library_mode(self, served):
        url, _, engine = served
        payload = _post(url, "/query", {"sql": SQL})
        expected = engine.execute(SQL)
        assert payload["columns"] == list(expected.columns)
        assert sorted(map(tuple, payload["rows"]), key=repr) == sorted(
            (tuple(map(_jsonify, row)) for row in expected.rows), key=repr
        )
        assert payload["epochs"] == engine.table_epochs()

    def test_normalized_spellings_share_a_cache_entry(self, served):
        url, service, _ = served
        first = _post(url, "/query", {"sql": SQL})
        variant = _post(
            url, "/query", {"sql": "select  dedup ID, given_name,surname from ppl where state='nsw'"}
        )
        assert variant["cache"] == "hit"
        assert variant["rows"] == first["rows"]

    def test_insert_bumps_epoch_and_invalidates(self, served):
        url, service, engine = served
        before = _post(url, "/query", {"sql": SQL})
        outcome = _post(
            url,
            "/insert",
            {"table": "PPL", "rows": [[77001, "Zed", "Zanner", "9", "High St",
                                       "Newtown", "2042", "nsw", "1980-02-03",
                                       44, "555", "z@z.org", "Acme"]]},
        )
        assert outcome["inserted"] == 1
        assert outcome["epochs"]["ppl"] == before["epochs"]["ppl"] + 1
        after = _post(url, "/query", {"sql": SQL})
        assert after["cache"] == "miss"  # stale entry unreachable + evicted
        assert after["epochs"]["ppl"] == outcome["epochs"]["ppl"]

    def test_insert_sql_routes_to_write_path(self, served):
        url, _, engine = served
        epoch = engine.epoch_of("PPL")
        payload = _post(
            url,
            "/query",
            {"sql": "INSERT INTO PPL (id, given_name, surname, state) "
                    "VALUES (77002, 'Amy', 'Stone', 'vic')"},
        )
        assert payload["cache"] == "write"
        assert payload["epochs"]["ppl"] == epoch + 1

    def test_healthz_and_metrics(self, served):
        url, _, engine = served
        _post(url, "/query", {"sql": SQL})  # at least one query on the books
        health = _get(url, "/healthz")
        assert health["status"] == "ok"
        assert health["epochs"] == engine.table_epochs()
        metrics = _get(url, "/metrics")
        assert metrics["counters"]["queries_total"] >= 1
        assert metrics["cache"]["size"] >= 1
        assert "total" in metrics["latency"]

    def test_bad_sql_is_400(self, served):
        url, _, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(url, "/query", {"sql": "SELEC nonsense"})
        assert excinfo.value.code == 400

    def test_missing_body_is_400(self, served):
        url, _, _ = served
        request = urllib.request.Request(url + "/query", data=b"", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_unknown_path_is_404(self, served):
        url, _, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(url, "/nope")
        assert excinfo.value.code == 404


class TestStatementRouting:
    """``execute`` parses only the statements ``query`` has not seen."""

    INSERT = "INSERT INTO PPL (id, surname, state) VALUES ({}, 'stone', 'nsw')"

    @staticmethod
    def _service():
        table, _ = generate_people(60, seed=31, name="PPL")
        engine = QueryEREngine()
        engine.register(table)
        return EngineService(engine)

    def test_a_hit_through_execute_never_parses(self, monkeypatch):
        service = self._service()
        first = service.execute(SQL)
        calls = []
        parse = service_module.parse
        monkeypatch.setattr(service_module, "parse", lambda sql: calls.append(sql) or parse(sql))
        second = service.execute(SQL)
        assert calls == []
        assert (first.cache, second.cache) == ("miss", "hit")
        assert second.rows == first.rows

    def test_insert_through_execute_goes_to_insert_sql(self, monkeypatch):
        service = self._service()
        service.execute(SQL)
        calls = []
        insert_sql = EngineService.insert_sql

        def counting(self, sql, timeout=None):
            calls.append(sql)
            return insert_sql(self, sql, timeout=timeout)

        monkeypatch.setattr(EngineService, "insert_sql", counting)
        statement = self.INSERT.format(77003)
        assert service.execute(statement).cache == "write"
        assert calls == [statement]
        assert service.engine.epoch_of("PPL") == 2
        assert service.execute(SQL).cache == "miss"

    def test_query_refuses_an_insert(self):
        service = self._service()
        statement = self.INSERT.format(77004)
        with pytest.raises(ValueError, match="INSERT INTO"):
            service.query(statement)
        assert service.engine.epoch_of("PPL") == 1
        # Refused, so not remembered as a read: execute still writes it.
        assert service.execute(statement).cache == "write"
        assert service.engine.epoch_of("PPL") == 2


def _jsonify(value):
    """What a JSON round trip does to a result value."""
    return json.loads(json.dumps(value, default=str))


class TestAdmissionAndTimeouts:
    def _service(self, **kwargs):
        table, _ = generate_people(60, seed=31, name="PPL")
        engine = QueryEREngine()
        engine.register(table)
        return EngineService(engine, **kwargs)

    def test_overload_refused_with_retry_after(self):
        service = self._service(max_inflight=1)
        with service._admission:
            service._inflight = 1
        try:
            with pytest.raises(OverloadError) as excinfo:
                service.query("SELECT COUNT(*) AS n FROM PPL")
            assert excinfo.value.retry_after > 0
            assert service.metrics.counter("rejected_overload") == 1
        finally:
            with service._admission:
                service._inflight = 0

    def test_overload_maps_to_http_503(self):
        service = self._service(max_inflight=1)
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with service._admission:
                service._inflight = 1
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(server.url, "/query", {"sql": "SELECT COUNT(*) AS n FROM PPL"})
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] is not None
        finally:
            with service._admission:
                service._inflight = 0
            server.shutdown()
            server.server_close()

    def test_gate_timeout_raises_request_timeout(self):
        service = self._service()
        acquired = service._gate.acquire()
        assert acquired
        try:
            with pytest.raises(RequestTimeout):
                service.query("SELECT COUNT(*) AS n FROM PPL", timeout=0.05)
        finally:
            service._gate.release()

    def test_cache_hits_bypass_admission(self):
        service = self._service(max_inflight=1)
        sql = "SELECT COUNT(*) AS n FROM PPL"
        service.query(sql)  # populate
        with service._admission:
            service._inflight = 1  # saturated
        try:
            served = service.query(sql)
            assert served.cache == "hit"
        finally:
            with service._admission:
                service._inflight = 0


class TestPlanCacheInMetrics:
    """Satellite: the engine plan cache surfaces in /metrics, and
    EXPLAIN never shares a result-cache entry with its query."""

    def test_metrics_snapshot_includes_plan_cache(self, served):
        url, service, _ = served
        _post(url, "/query", {"sql": SQL})
        _post(url, "/query", {"sql": SQL})  # result-cache hit; plan reused
        metrics = _get(url, "/metrics")
        assert "plan_cache" in metrics
        for key in ("size", "hits", "misses", "evictions", "invalidations"):
            assert key in metrics["plan_cache"], key

    def test_plan_cache_counts_hits_across_requests(self, served):
        url, service, engine = served
        probe = SQL + " LIMIT 7"  # unique spelling: bypass the result cache
        _post(url, "/query", {"sql": probe})
        before = engine.plan_cache.snapshot()["hits"]
        service.cache.invalidate()  # force re-execution, not a cached answer
        _post(url, "/query", {"sql": probe})
        assert engine.plan_cache.snapshot()["hits"] > before

    def test_explain_and_query_use_distinct_cache_entries(self, served):
        url, service, _ = served
        plain = _post(url, "/query", {"sql": SQL})
        explained = _post(url, "/query", {"sql": "EXPLAIN " + SQL})
        assert explained["columns"] == ["plan"]
        assert explained["rows"] != plain["rows"]
        # A repeat EXPLAIN hits its own entry, not the query's.
        again = _post(url, "/query", {"sql": "explain " + SQL})
        assert again["cache"] == "hit"
        assert again["rows"] == explained["rows"]
