"""End-to-end chaos: ``repro serve`` under ``REPRO_FAULTS``, as a subprocess.

The CI ``chaos-smoke`` job runs this: launch the real CLI server with a
fault plan armed through the environment (the resilience module arms it
at import, no code changes in the server), drive it with the retrying
client, and assert the server (a) answers structured errors instead of
dying, (b) recovers to exact answers once the plan's faults are spent,
and (c) surfaces everything through /healthz and /metrics.  Hard
timeouts everywhere — a wedged server must fail fast, not hang CI.

The fault budget is per-server-process, so one module-scoped fixture
drives all the fault-consuming traffic exactly once and the tests
assert against its captured outcomes.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.core.engine import QueryEREngine
from repro.datagen import generate_people
from repro.serving import GaveUp, RetryingClient
from repro.storage.csv_io import read_csv, write_csv

STARTUP_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 20.0

SQL = "SELECT DEDUP id, given_name, surname FROM PPL WHERE state IN ('nsw', 'vic')"

#: The subprocess's fault plan: the first two query executions crash in
#: the handler, and one ingest batch dies before commit (rolled back).
FAULT_SPEC = "serving.handler:times=2,dml.before_commit:times=1"


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    table, _ = generate_people(400, seed=77, name="PPL")
    path = tmp_path_factory.mktemp("serving_faults") / "ppl.csv"
    write_csv(table, path)
    return path


@pytest.fixture(scope="module")
def server(csv_path):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    env["REPRO_FAULTS"] = FAULT_SPEC
    env["REPRO_FAULTS_SEED"] = "7"
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--csv",
            f"PPL={csv_path}",
            "--port",
            "0",
            "--quiet",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    url = None
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    try:
        for line in process.stdout:
            match = re.search(r"serving on http://([\d.]+):(\d+)", line)
            if match:
                url = (match.group(1), int(match.group(2)))
                break
            if time.monotonic() > deadline or process.poll() is not None:
                break
        if url is None:
            stderr = process.stderr.read() if process.stderr else ""
            pytest.fail(f"server never announced its address; stderr:\n{stderr}")
        yield url, process
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)


@pytest.fixture(scope="module")
def traffic(server):
    """Drive the whole fault budget once; capture every outcome."""
    (host, port), process = server
    outcomes = {}

    # 1. One-shot probe — consumes handler fault #1, sees a raw 500.
    naive = RetryingClient(host, port, timeout=REQUEST_TIMEOUT_S, max_attempts=1, seed=0)
    try:
        naive.query(SQL)
        outcomes["probe"] = None
    except GaveUp as gave_up:
        outcomes["probe"] = gave_up
    outcomes["alive_after_probe"] = process.poll() is None

    # 2. Retrying read — consumes handler fault #2, then succeeds.
    reader = RetryingClient(
        host, port, timeout=REQUEST_TIMEOUT_S,
        max_attempts=5, base_backoff=0.02, seed=42,
    )
    outcomes["query"] = reader.query(SQL)
    outcomes["query_attempts"] = reader.stats["attempts"]

    # 3. Retrying write — first attempt rolls back (dml.before_commit),
    # the retry commits.
    _, health = reader.get("/healthz")
    outcomes["epoch_before_insert"] = health["epochs"]["ppl"]
    extra_table, _ = generate_people(403, seed=77, name="PPL")
    rows = [list(row.values) for row in extra_table][400:]
    writer = RetryingClient(
        host, port, timeout=REQUEST_TIMEOUT_S,
        max_attempts=5, base_backoff=0.02, seed=9,
    )
    outcomes["insert"] = writer.insert("PPL", rows)
    outcomes["insert_rows"] = len(rows)
    outcomes["insert_attempts"] = writer.stats["attempts"]
    return outcomes


def _request(host, port, method, path, body=None):
    connection = HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    connection.sock = socket.create_connection((host, port), timeout=REQUEST_TIMEOUT_S)
    connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _canonical(rows):
    return sorted([list(map(str, row)) for row in rows])


def test_injected_faults_surface_as_structured_500s(traffic):
    probe = traffic["probe"]
    assert probe is not None, "the first query should have hit handler fault #1"
    assert probe.status == 500
    assert probe.payload["error_kind"] == "injected_fault"
    assert traffic["alive_after_probe"]  # the server survived its own fault


def test_retrying_client_recovers_the_exact_answer(traffic, csv_path):
    status, payload = traffic["query"]
    assert status == 200
    assert traffic["query_attempts"] == 2  # handler fault #2, then success

    engine = QueryEREngine()
    engine.register(read_csv(csv_path, name="PPL"))
    assert _canonical(payload["rows"]) == _canonical(engine.execute(SQL).rows)


def test_rolled_back_insert_retries_to_exactly_one_batch(traffic):
    status, inserted = traffic["insert"]
    assert status == 200
    assert inserted["inserted"] == traffic["insert_rows"]
    # One commit, not two: the rolled-back attempt advanced no epoch.
    assert inserted["epochs"]["ppl"] == traffic["epoch_before_insert"] + 1
    assert traffic["insert_attempts"] >= 2


def test_degradation_is_surfaced_end_to_end(server, traffic):
    (host, port), _ = server
    status, health = _request(host, port, "GET", "/healthz")
    assert status == 200
    assert health["status"] == "ok"  # alive: degraded, not down
    assert health["degraded"] is True
    assert health["degradation"].get("serving", 0) >= 2
    assert health["degradation"].get("dml", 0) >= 1

    status, metrics = _request(host, port, "GET", "/metrics")
    assert status == 200
    degradation = metrics["degradation"]
    assert degradation["total"] >= 3
    sites = set(degradation["by_site"])
    assert "serving/execution_error" in sites
    assert "dml/rollback" in sites
    assert metrics["counters"].get("execution_errors", 0) >= 2
    assert metrics["counters"].get("insert_errors", 0) >= 1
