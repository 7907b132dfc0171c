"""Serving-layer load benchmark: latency/throughput under concurrency.

Starts the real HTTP service (:mod:`repro.serving`) in-process over a
datagen PPL table and drives it with N concurrent keep-alive clients
through four phases:

1. ``cold-sequential`` — every pool query once, empty caches: the
   library-mode baseline cost, plus the first identity gate (served
   rows vs a fresh single-caller engine, byte-identical).
2. ``warm-concurrent`` — N clients × R requests over the warmed result
   cache: the steady-state regime the cache exists for.
3. ``cold-concurrent`` — caches dropped, N clients fire the *same*
   query simultaneously: single-flight coalescing shares one execution.
4. ``insert-mid-run`` — N clients query while the bench inserts rows
   mid-run: the snapshot gate.  Every response carries its epoch stamp;
   responses stamped with the pre-insert epoch must be byte-identical
   to a fresh engine over the pre-insert table, post-insert stamps to a
   fresh engine over the grown table — never torn state.

Identity is gated (exit 1 on divergence); latency/qps are reported,
never gated.  Emits ``BENCH_serving.json``.

Usage::

    PYTHONPATH=src python -m repro.bench.serving_load
    PYTHONPATH=src python -m repro.bench.serving_load --quick \
        --output /tmp/serving.json --check BENCH_serving.json
"""

from __future__ import annotations

import argparse
import http.client
import json
import socket
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.reporting import format_table
from repro.bench.workload import sp_queries
from repro.core.engine import QueryEREngine
from repro.datagen import generate_people
from repro.datagen.people import people_schema
from repro.parallel import ExecutionConfig
from repro.parallel.config import usable_cores
from repro.serving import EngineService, make_server
from repro.storage.table import Table

SCHEMA = "repro/bench/serving-load/v1"

#: Fixed dataset size (same in --quick) so the committed result shape —
#: per-query row counts at both epochs — is comparable across machines.
ENTITIES = 2000
#: Rows ingested mid-run by phase 4 (ids ENTITIES+1 ...).
INSERT_ROWS = 40

CLIENT_SETTINGS: Sequence[int] = (4, 8)
QUICK_CLIENT_SETTINGS: Sequence[int] = (4,)
REQUESTS_PER_CLIENT = 24
QUICK_REQUESTS_PER_CLIENT = 6


def _pool(quick: bool):
    queries = sp_queries("PPL")
    return [queries[0], queries[2], queries[4]] if not quick else [queries[0], queries[4]]


def canonical(rows: Any) -> str:
    """Byte-identity form of a result: canonical JSON of sorted rows."""
    normalized = sorted([list(map(str, row)) for row in rows])
    return json.dumps(normalized, separators=(",", ":"))


# -- library-mode references ------------------------------------------------
def _split_dataset() -> Tuple[List[tuple], List[tuple]]:
    table, _ = generate_people(ENTITIES + INSERT_ROWS, seed=90, name="PPL")
    values = [row.values for row in table]
    return values[:ENTITIES], values[ENTITIES:]


def _library_rows(base: List[tuple], extra: Optional[List[tuple]], sql: str) -> str:
    """A fresh single-caller engine's answer (canonical form)."""
    engine = QueryEREngine(execution=ExecutionConfig.serial())
    engine.register(Table("PPL", people_schema(), base))
    if extra:
        engine.insert("PPL", extra)
    return canonical(engine.execute(sql).rows)


# -- HTTP clients -----------------------------------------------------------
class _Client(threading.Thread):
    """One keep-alive client working through a fixed request schedule."""

    def __init__(self, host: str, port: int, schedule: List[Tuple[str, str]]):
        super().__init__(daemon=True)
        self.host, self.port = host, port
        self.schedule = schedule
        self.samples: List[Dict[str, Any]] = []
        self.errors: List[str] = []

    def _connect(self) -> http.client.HTTPConnection:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=120)
        connection.connect()
        # The server side disables Nagle too: without this, the small
        # request/response pairs pay ~40 ms of delayed-ACK per round trip.
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection

    def run(self) -> None:
        connection = self._connect()
        try:
            for qid, sql in self.schedule:
                body = json.dumps({"sql": sql})
                started = time.perf_counter()
                try:
                    connection.request(
                        "POST", "/query", body, {"Content-Type": "application/json"}
                    )
                    response = connection.getresponse()
                    payload = json.loads(response.read())
                    status = response.status
                except Exception as error:  # connection-level failure
                    self.errors.append(f"{qid}: {error}")
                    connection.close()
                    connection = self._connect()
                    continue
                elapsed = time.perf_counter() - started
                if status != 200:
                    self.errors.append(f"{qid}: HTTP {status}: {payload.get('error')}")
                    continue
                self.samples.append(
                    {
                        "qid": qid,
                        "latency_s": elapsed,
                        "cache": payload["cache"],
                        "epoch": payload["epochs"].get("ppl"),
                        "rows": canonical(payload["rows"]),
                    }
                )
        finally:
            connection.close()


def _run_clients(
    host: str, port: int, schedules: List[List[Tuple[str, str]]]
) -> Tuple[List[Dict[str, Any]], List[str], float]:
    clients = [_Client(host, port, schedule) for schedule in schedules]
    started = time.perf_counter()
    for client in clients:
        client.start()
    for client in clients:
        client.join()
    duration = time.perf_counter() - started
    samples = [sample for client in clients for sample in client.samples]
    errors = [error for client in clients for error in client.errors]
    return samples, errors, duration


def _percentile(values: List[float], p: int) -> float:
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[min(rank, len(ordered)) - 1]


def _phase_stats(
    name: str, clients: int, samples: List[Dict[str, Any]], duration: float
) -> Dict[str, Any]:
    latencies = [sample["latency_s"] for sample in samples]
    cache_counts: Dict[str, int] = {}
    for sample in samples:
        cache_counts[sample["cache"]] = cache_counts.get(sample["cache"], 0) + 1
    return {
        "phase": name,
        "clients": clients,
        "requests": len(samples),
        "duration_s": round(duration, 4),
        "qps": round(len(samples) / duration, 2) if duration > 0 else None,
        "p50_ms": round(1000.0 * _percentile(latencies, 50), 3) if latencies else None,
        "p99_ms": round(1000.0 * _percentile(latencies, 99), 3) if latencies else None,
        "cache": dict(sorted(cache_counts.items())),
    }


# -- the benchmark ----------------------------------------------------------
def run(quick: bool = False) -> Dict[str, Any]:
    base, extra = _split_dataset()
    pool = _pool(quick)
    client_settings = QUICK_CLIENT_SETTINGS if quick else CLIENT_SETTINGS
    requests_per_client = QUICK_REQUESTS_PER_CLIENT if quick else REQUESTS_PER_CLIENT
    widest = max(client_settings)

    # Library-mode references at both epochs (pre/post the mid-run insert).
    pre_reference = {q.qid: _library_rows(base, None, q.sql) for q in pool}
    post_reference = {q.qid: _library_rows(base, extra, q.sql) for q in pool}

    engine = QueryEREngine(execution=ExecutionConfig.serial())
    engine.register(Table("PPL", people_schema(), base))
    service = EngineService(engine, max_inflight=4 * widest, default_timeout=300.0)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    pre_epoch = engine.epoch_of("PPL")

    phases: List[Dict[str, Any]] = []
    problems: List[str] = []
    try:
        # Phase 1: cold sequential + identity vs library mode.
        samples, errors, duration = _run_clients(
            host, port, [[(q.qid, q.sql) for q in pool]]
        )
        problems += errors
        cold_identical = True
        for sample in samples:
            if sample["rows"] != pre_reference[sample["qid"]]:
                cold_identical = False
                problems.append(f"cold: served {sample['qid']} diverged from library mode")
        phases.append(
            {**_phase_stats("cold-sequential", 1, samples, duration),
             "identical_to_library": cold_identical}
        )

        # Phase 2: warm concurrent traffic over the now-populated cache.
        for clients in client_settings:
            schedules = [
                [(pool[i % len(pool)].qid, pool[i % len(pool)].sql)
                 for i in range(requests_per_client)]
                for _ in range(clients)
            ]
            samples, errors, duration = _run_clients(host, port, schedules)
            problems += errors
            warm_identical = all(
                sample["rows"] == pre_reference[sample["qid"]] for sample in samples
            )
            if not warm_identical:
                problems.append(f"warm@{clients}: served rows diverged from library mode")
            phases.append(
                {**_phase_stats(f"warm-concurrent@{clients}", clients, samples, duration),
                 "identical_to_library": warm_identical}
            )

        # Phase 3: cold concurrent burst of one query — coalescing visible.
        service.cache.clear()
        engine.clear_caches()
        engine.reset_link_indexes()
        burst = pool[-1]
        coalesced_before = service.flights.stats["coalesced"]
        schedules = [[(burst.qid, burst.sql)] * 2 for _ in range(widest)]
        samples, errors, duration = _run_clients(host, port, schedules)
        problems += errors
        burst_identical = all(sample["rows"] == pre_reference[burst.qid] for sample in samples)
        if not burst_identical:
            problems.append("burst: served rows diverged from library mode")
        phases.append(
            {**_phase_stats(f"cold-concurrent@{widest}", widest, samples, duration),
             "identical_to_library": burst_identical,
             "coalesced": service.flights.stats["coalesced"] - coalesced_before}
        )

        # Phase 4: concurrent readers race an INSERT INTO — snapshot gate.
        service.cache.clear()
        schedules = [
            [(pool[i % len(pool)].qid, pool[i % len(pool)].sql)
             for i in range(requests_per_client)]
            for _ in range(widest)
        ]
        inserted = threading.Event()

        def _insert_midway() -> None:
            time.sleep(0.05)
            service.insert_rows("PPL", extra)
            inserted.set()

        inserter = threading.Thread(target=_insert_midway, daemon=True)
        inserter.start()
        samples, errors, duration = _run_clients(host, port, schedules)
        inserter.join()
        problems += errors
        post_epoch = engine.epoch_of("PPL")
        epochs_seen = sorted({sample["epoch"] for sample in samples})
        snapshot_consistent = bool(samples) and inserted.is_set()
        for sample in samples:
            if sample["epoch"] == pre_epoch:
                expected = pre_reference[sample["qid"]]
            elif sample["epoch"] == post_epoch:
                expected = post_reference[sample["qid"]]
            else:
                snapshot_consistent = False
                problems.append(f"unknown epoch stamp {sample['epoch']}")
                continue
            if sample["rows"] != expected:
                snapshot_consistent = False
                problems.append(
                    f"mid-insert: {sample['qid']}@epoch{sample['epoch']} "
                    "diverged from that epoch's library answer"
                )
        phases.append(
            {**_phase_stats(f"insert-mid-run@{widest}", widest, samples, duration),
             "epochs_observed": epochs_seen,
             "snapshot_consistent": snapshot_consistent}
        )
    finally:
        server.shutdown()
        server.server_close()

    identity = {
        "cold_identical": all(
            p.get("identical_to_library", True) for p in phases
        ),
        "snapshot_consistent": all(
            p.get("snapshot_consistent", True) for p in phases
        ),
        "problems": problems,
    }
    return {
        "schema": SCHEMA,
        "generated_unix": int(time.time()),
        "python": "%d.%d" % sys.version_info[:2],
        "cpu_count": usable_cores(),
        "quick": quick,
        "config": {
            "entities": ENTITIES,
            "insert_rows": INSERT_ROWS,
            "client_settings": list(client_settings),
            "requests_per_client": requests_per_client,
            "queries": {q.qid: q.sql for q in pool},
        },
        "reference_rows": {
            qid: {
                "pre_insert": len(json.loads(pre_reference[qid])),
                "post_insert": len(json.loads(post_reference[qid])),
            }
            for qid in pre_reference
        },
        "phases": phases,
        "metrics": service.metrics_snapshot(),
        "aggregate": {
            "identical_results": identity["cold_identical"]
            and identity["snapshot_consistent"]
            and not problems,
            **identity,
        },
    }


def render(report: Dict[str, Any]) -> str:
    rows = []
    for phase in report["phases"]:
        gate = phase.get("identical_to_library", phase.get("snapshot_consistent"))
        rows.append(
            (
                phase["phase"],
                phase["clients"],
                phase["requests"],
                phase["qps"],
                phase["p50_ms"],
                phase["p99_ms"],
                json.dumps(phase["cache"]),
                "yes" if gate else "NO",
            )
        )
    table = format_table(
        ["phase", "clients", "requests", "qps", "p50 ms", "p99 ms", "cache", "identical"],
        rows,
        title="Serving-layer load benchmark (PPL%d)" % report["config"]["entities"],
    )
    aggregate = report["aggregate"]
    return table + (
        f"\nidentical={aggregate['identical_results']}  "
        f"snapshot_consistent={aggregate['snapshot_consistent']}  "
        f"cpu_count={report['cpu_count']}"
    )


def check_shape(report: Dict[str, Any], baseline: Dict[str, Any]) -> List[str]:
    """Deterministic-field drift vs the committed baseline.

    Row counts at both epochs and the identity invariants must match;
    qps/latency are machine properties and never gated.  A quick run
    checks only the queries it executed.
    """
    problems: List[str] = []
    if report.get("schema") != baseline.get("schema"):
        return [f"schema drift: {report.get('schema')!r} != {baseline.get('schema')!r}"]
    if not report["aggregate"]["identical_results"]:
        problems.append("served results diverged from library mode")
    if report["config"]["entities"] != baseline["config"]["entities"]:
        problems.append("dataset size drifted")
    baseline_rows = baseline.get("reference_rows", {})
    for qid, counts in report["reference_rows"].items():
        reference = baseline_rows.get(qid)
        if reference is None:
            problems.append(f"query {qid} not in baseline")
            continue
        for epoch in ("pre_insert", "post_insert"):
            if counts[epoch] != reference[epoch]:
                problems.append(
                    f"{qid}: {epoch} rows drifted {reference[epoch]} -> {counts[epoch]}"
                )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.serving_load", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--output",
        default="BENCH_serving.json",
        help="where to write the JSON report (default: %(default)s)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke subset: 4 clients, 2 queries, fewer requests",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare deterministic result fields against a committed "
        "baseline JSON; exit 1 on drift (timings are never gated)",
    )
    args = parser.parse_args(argv)

    report = run(quick=args.quick)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(render(report))
    print(f"\nreport written to {args.output}")

    if not report["aggregate"]["identical_results"]:
        print("FAIL: served results diverged from library-mode execution", file=sys.stderr)
        for problem in report["aggregate"]["problems"]:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        problems = check_shape(report, baseline)
        if problems:
            print(f"\nresult-shape drift vs {args.check}:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print(f"result shape matches {args.check}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
