"""End-to-end warm restart: ``repro serve --data-dir`` across process lives.

The CI ``persist-smoke`` job runs this.  Three server generations share
one snapshot directory:

1. **Builder, then crash.** Boots from CSV with ``--data-dir`` (writes
   the base snapshot), answers a query, takes an insert whose delta
   checkpoint dies mid-write (``REPRO_FAULTS=persist.write`` armed past
   the base save), and is then SIGKILLed — the crash-mid-checkpoint
   scenario.  The directory must still hold the complete base snapshot:
   manifest-last ordering means a torn checkpoint is invisible.
2. **Restart after the crash.** Boots from the same directory, reports
   ``/healthz`` ok, and answers the query byte-identically to a fresh
   library-mode engine over the snapshot's rows (the crashed insert
   never reached disk, so it is — correctly — gone).
3. **Graceful cycle.** Takes an insert, waits for the background delta
   checkpoint to land (``/healthz`` epoch map), shuts down cleanly; a
   final generation serves base + delta, byte-identical to loading the
   snapshot in-process.

Hard timeouts everywhere — a wedged server fails fast, not CI.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.core.engine import QueryEREngine
from repro.datagen import generate_people
from repro.persist import read_manifest
from repro.storage.csv_io import read_csv, write_csv

STARTUP_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 20.0
CHECKPOINT_WAIT_S = 20.0

SQL = "SELECT DEDUP id, given_name, surname FROM PPL WHERE state IN ('nsw', 'vic')"

#: The builder's plan: the base snapshot is 3 atomic writes (segment,
#: state, manifest); the 4th write is the insert's delta checkpoint,
#: which dies before its temp file starts.
BUILDER_FAULTS = "persist.write:times=1:after=3"


def _spawn(args, faults=None):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    env.pop("REPRO_FAULTS", None)
    if faults:
        env["REPRO_FAULTS"] = faults
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *args, "--port", "0"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    for line in process.stdout:
        match = re.search(r"serving on http://([\d.]+):(\d+)", line)
        if match:
            return process, match.group(1), int(match.group(2))
        if time.monotonic() > deadline or process.poll() is not None:
            break
    stderr = process.stderr.read() if process.stderr else ""
    process.kill()
    pytest.fail(f"server never announced its address; stderr:\n{stderr}")


def _stop(process, sig=signal.SIGINT):
    if process.poll() is None:
        process.send_signal(sig)
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)


def _request(host, port, method, path, body=None):
    connection = HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
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


def _wait_for_checkpoint(host, port, epoch):
    deadline = time.monotonic() + CHECKPOINT_WAIT_S
    while time.monotonic() < deadline:
        status, health = _request(host, port, "GET", "/healthz")
        if status == 200 and health.get("persist", {}).get(
            "snapshot_epoch_map", {}
        ).get("ppl") == epoch:
            return health
        time.sleep(0.2)
    pytest.fail(f"background checkpoint never reached epoch {epoch}")


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("persist_restart")
    table, _ = generate_people(430, seed=61, name="PPL")
    csv_path = root / "ppl.csv"
    write_csv(table, csv_path)
    all_rows = [list(row.values) for row in table]
    # The CSV holds 430 rows; the first 430 are the base, the insert
    # batch is generated separately so ids never collide.
    extra_table, _ = generate_people(440, seed=61, name="PPL")
    insert_rows = [list(row.values) for row in extra_table][430:]
    return {"dir": root / "snap", "csv": csv_path, "insert_rows": insert_rows}


@pytest.fixture(scope="module")
def journey(dataset):
    """Run all three server generations once; capture every outcome."""
    outcomes = {}
    data_dir = str(dataset["dir"])

    # -- generation 1: build, checkpoint-crash, SIGKILL ------------------
    process, host, port = _spawn(
        ["--csv", f"PPL={dataset['csv']}", "--data-dir", data_dir],
        faults=BUILDER_FAULTS,
    )
    try:
        status, answer = _request(host, port, "POST", "/query", {"sql": SQL})
        outcomes["gen1_query"] = (status, answer)
        status, inserted = _request(
            host, port, "POST", "/insert",
            {"table": "PPL", "rows": dataset["insert_rows"]},
        )
        outcomes["gen1_insert"] = (status, inserted)
        # The delta checkpoint runs on a background writer; wait until
        # its failure is observable, then crash the process hard.
        deadline = time.monotonic() + CHECKPOINT_WAIT_S
        failures = 0
        while time.monotonic() < deadline and not failures:
            status, metrics = _request(host, port, "GET", "/metrics")
            failures = metrics.get("persist", {}).get("checkpoint_failures", 0)
            time.sleep(0.1)
        outcomes["gen1_checkpoint_failures"] = failures
        status, health = _request(host, port, "GET", "/healthz")
        outcomes["gen1_health"] = health
    finally:
        _stop(process, sig=signal.SIGKILL)

    outcomes["manifest_after_crash"] = read_manifest(dataset["dir"])

    # -- generation 2: restart from the crashed directory ----------------
    process, host, port = _spawn(["--data-dir", data_dir])
    try:
        outcomes["gen2_health"] = _request(host, port, "GET", "/healthz")
        outcomes["gen2_query"] = _request(host, port, "POST", "/query", {"sql": SQL})
        # Re-apply the insert; this time the delta checkpoint lands.
        status, inserted = _request(
            host, port, "POST", "/insert",
            {"table": "PPL", "rows": dataset["insert_rows"]},
        )
        outcomes["gen2_insert"] = (status, inserted)
        _wait_for_checkpoint(host, port, epoch=inserted["epochs"]["ppl"])
        outcomes["manifest_after_delta"] = read_manifest(dataset["dir"])
    finally:
        _stop(process)  # graceful SIGINT

    # -- generation 3: serve base + delta --------------------------------
    process, host, port = _spawn(["--data-dir", data_dir])
    try:
        outcomes["gen3_health"] = _request(host, port, "GET", "/healthz")
        outcomes["gen3_query"] = _request(host, port, "POST", "/query", {"sql": SQL})
    finally:
        _stop(process)
    return outcomes


def test_crash_mid_checkpoint_leaves_base_snapshot_intact(journey):
    assert journey["gen1_query"][0] == 200
    assert journey["gen1_insert"][0] == 200  # the commit itself succeeded
    assert journey["gen1_checkpoint_failures"] >= 1
    manifest = journey["manifest_after_crash"]
    assert manifest is not None, "crash destroyed the manifest"
    entry = manifest["tables"]["ppl"]
    assert [s["kind"] for s in entry["segments"]] == ["base"]
    assert entry["epoch"] == 1  # the failed delta is invisible


def test_restart_after_crash_is_healthy_and_identical(journey, dataset):
    status, health = journey["gen2_health"]
    assert status == 200 and health["status"] == "ok"
    assert health["persist"]["snapshot_epoch_map"] == {"ppl": 1}

    status, answer = journey["gen2_query"]
    assert status == 200
    engine = QueryEREngine()
    engine.register(read_csv(dataset["csv"], name="PPL"))
    assert _canonical(answer["rows"]) == _canonical(engine.execute(SQL).rows)


def test_committed_delta_survives_graceful_restart(journey, dataset):
    manifest = journey["manifest_after_delta"]
    entry = manifest["tables"]["ppl"]
    assert "delta" in [s["kind"] for s in entry["segments"]]
    assert entry["epoch"] == 2

    status, health = journey["gen3_health"]
    assert status == 200 and health["status"] == "ok"
    assert health["persist"]["snapshot_epoch_map"] == {"ppl": 2}
    assert health["epochs"] == {"ppl": 2}

    status, answer = journey["gen3_query"]
    assert status == 200
    warm = QueryEREngine.load(dataset["dir"])
    assert _canonical(answer["rows"]) == _canonical(warm.execute(SQL).rows)
