"""End-to-end smoke test for ``repro serve`` as a real subprocess.

This is the test the CI serving job runs: launch the CLI against a
datagen CSV, fire concurrent queries at the HTTP endpoint, and assert
(a) every served answer is byte-identical to library mode and (b) the
``/metrics`` counters account for the traffic.  Everything is bounded
by hard timeouts so a wedged server fails fast instead of hanging CI.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.core.engine import QueryEREngine
from repro.datagen import generate_people
from repro.storage.csv_io import read_csv, write_csv

STARTUP_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 20.0
CLIENTS = 4
REQUESTS_PER_CLIENT = 5

SQL = "SELECT DEDUP id, given_name, surname FROM PPL WHERE state IN ('nsw', 'vic')"


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    table, _ = generate_people(400, seed=77, name="PPL")
    path = tmp_path_factory.mktemp("serving_smoke") / "ppl.csv"
    write_csv(table, path)
    return path


@pytest.fixture(scope="module")
def server(csv_path):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
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
        yield url
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)


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


def test_served_answers_match_library_mode_under_concurrency(server, csv_path):
    host, port = server

    status, health = _request(host, port, "GET", "/healthz")
    assert status == 200
    assert health["status"] == "ok"
    assert health["epochs"] == {"ppl": 1}

    engine = QueryEREngine()
    engine.register(read_csv(csv_path, name="PPL"))
    expected = _canonical(engine.execute(SQL).rows)
    assert expected  # the smoke data must actually produce an answer

    results = []
    errors = []

    def client():
        try:
            for _ in range(REQUESTS_PER_CLIENT):
                status, payload = _request(
                    host, port, "POST", "/query", {"sql": SQL}
                )
                results.append((status, payload))
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    start = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=REQUEST_TIMEOUT_S * REQUESTS_PER_CLIENT)
    assert time.monotonic() - start < REQUEST_TIMEOUT_S * REQUESTS_PER_CLIENT
    assert not errors
    assert len(results) == CLIENTS * REQUESTS_PER_CLIENT

    for status, payload in results:
        assert status == 200
        assert payload["epochs"] == {"ppl": 1}
        assert _canonical(payload["rows"]) == expected
        assert payload["cache"] in {"hit", "miss", "coalesced"}

    status, metrics = _request(host, port, "GET", "/metrics")
    assert status == 200
    counters = metrics["counters"]
    assert counters["queries_total"] >= CLIENTS * REQUESTS_PER_CLIENT
    served = (
        counters.get("cache_hit", 0)
        + counters.get("cache_miss", 0)
        + counters.get("cache_coalesced", 0)
    )
    assert served >= CLIENTS * REQUESTS_PER_CLIENT
    assert counters.get("cache_miss", 0) >= 1  # someone executed for real
    assert counters.get("cache_hit", 0) >= 1  # and the cache got exercised
    assert metrics["latency"]["total"]["count"] >= 1
    assert metrics["cache"]["size"] >= 1


def test_insert_over_http_advances_epoch_and_answers(server):
    host, port = server
    status, before = _request(host, port, "POST", "/query", {"sql": SQL})
    assert status == 200

    extra_table, _ = generate_people(403, seed=77, name="PPL")
    rows = [list(row.values) for row in extra_table][400:]
    status, inserted = _request(
        host, port, "POST", "/insert", {"table": "PPL", "rows": rows}
    )
    assert status == 200
    assert inserted["inserted"] == 3
    assert inserted["epochs"]["ppl"] == before["epochs"]["ppl"] + 1

    status, after = _request(host, port, "POST", "/query", {"sql": SQL})
    assert status == 200
    assert after["epochs"]["ppl"] == inserted["epochs"]["ppl"]
    assert after["cache"] in {"miss", "coalesced"}  # old epoch's entry is stale


def test_malformed_requests_are_client_errors(server):
    host, port = server
    status, payload = _request(host, port, "POST", "/query", {"sql": "SELECT FROM"})
    assert status == 400
    assert "error" in payload
    status, _ = _request(host, port, "GET", "/nope")
    assert status == 404
