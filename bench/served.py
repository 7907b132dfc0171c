"""``serve_mix``: reads beside writes through ``python -m repro serve``.

One server process (product defaults: no ``--workers``, no ``--shards``)
is booted from a CSV to create its snapshot, stopped, and warm-restarted;
two closed-loop keep-alive clients in this process then draw reads
Zipf(1.1) from ten statements while client 0 slips an insert batch of
ten dirty duplicates in after every :data:`READS_PER_INSERT` of its own
reads.  Each client waits for every answer before sending the next
request, so a slower server simply receives less load.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import QueryEREngine, read_csv, write_csv

import library
from inputs import Inputs, Spec
from metrics import (
    OP_TIMEOUT_S,
    REPEATS,
    OpLog,
    median,
    rows_digest,
    strip_overrides,
    tree_usage,
    undersampled,
)

ROOT = Path(__file__).resolve().parent.parent

CLIENTS = 2
ZIPF_EXPONENT = 1.1
#: Client 0 sends one insert batch after this many of its own reads.
READS_PER_INSERT = 120
BOOT_TIMEOUT_S = 60.0


def work_dir(label: str) -> Path:
    """A scratch directory inside the checkout (the only place a run may write)."""
    path = ROOT / ".bench_tmp" / f"{label}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def write_tables(inputs: Inputs, directory: Path) -> List[str]:
    """Write every table as CSV; returns the ``--csv NAME=PATH`` specs."""
    specs = []
    for table in inputs.tables:
        path = directory / f"{table.name}.csv"
        write_csv(table, path)
        specs.append(f"{table.name}={path}")
    return specs


class Server:
    """One ``repro serve`` child process, always reaped."""

    def __init__(self, csv_specs: List[str], data_dir: Path, log_path: Path):
        environ = dict(os.environ)
        strip_overrides(environ)
        environ["PYTHONPATH"] = str(ROOT / "src")
        command = [sys.executable, "-m", "repro", "serve", "--data-dir", str(data_dir),
                   "--port", "0", "--quiet"]
        for spec in csv_specs:
            command += ["--csv", spec]
        self._log_path = log_path
        self.client: Optional[Client] = None
        started = time.perf_counter()
        with open(log_path, "ab") as log:
            self.process = subprocess.Popen(
                command, env=environ, stdout=subprocess.PIPE, stderr=log, text=True
            )
        try:
            self.host, self.port = self._await_address()
            self.client = Client(self.host, self.port)
            status, health, _ = self.client.request("GET", "/healthz")
            if status != 200 or health.get("status") != "ok":
                raise RuntimeError(f"server unhealthy after boot: {status} {health}")
        except BaseException:
            # Nobody holds a handle to a half-built server: reap it here.
            self.stop()
            raise
        #: Spawn → ``/healthz`` answers ok.
        self.boot_s = time.perf_counter() - started

    def _await_address(self) -> Tuple[str, int]:
        # A watchdog rather than a read timeout: the pipe read blocks.
        watchdog = threading.Timer(BOOT_TIMEOUT_S, self.process.kill)
        watchdog.start()
        try:
            for line in self.process.stdout:  # type: ignore[union-attr]
                match = re.search(r"serving on http://([\d.]+):(\d+)", line)
                if match:
                    return match.group(1), int(match.group(2))
        finally:
            watchdog.cancel()
        tail = self._log_path.read_text(errors="replace")[-2000:]
        raise RuntimeError(f"server never announced its address; stderr:\n{tail}")

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.process.poll() is None:
            # Ctrl-C is how ``repro serve`` is stopped; a process started
            # with SIGINT ignored (any background job of a non-interactive
            # shell) hands that down to the server, which then never sees it.
            ignored = signal.getsignal(signal.SIGINT) is signal.SIG_IGN
            self.process.send_signal(signal.SIGTERM if ignored else signal.SIGINT)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        if self.process.stdout is not None:
            self.process.stdout.close()


class Client:
    """A keep-alive JSON client: one connection, one request at a time."""

    def __init__(self, host: str, port: int):
        self._connection = HTTPConnection(host, port, timeout=OP_TIMEOUT_S)
        self._connection.connect()
        # Small request/response pairs: Nagle would add ~40 ms to each.
        self._connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def request(self, method: str, path: str, body: Any = None) -> Tuple[int, Any, int]:
        """``(status, decoded JSON, response bytes)``."""
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        self._connection.request(method, path, body=payload, headers=headers)
        response = self._connection.getresponse()
        raw = response.read()
        return response.status, json.loads(raw), len(raw)

    def close(self) -> None:
        self._connection.close()


def client_rng(number: int, seed: int) -> random.Random:
    """The statement draws of client *number*: its own seeded stream."""
    return random.Random(f"client:{number}:{seed}")


class Traffic:
    """What the clients share: the log, the schedule and the epoch floor."""

    def __init__(self, inputs: Inputs, seed: int):
        self.inputs = inputs
        self.log = OpLog()
        self.lock = threading.Lock()
        self.table = inputs.target.lower()
        #: Highest epoch an insert has been acknowledged at: no read sent
        #: afterwards may report an older one.
        self.acked_epoch = 0
        self.batches_sent = 0
        self.miss_comparisons: List[int] = []
        self.labels: Dict[str, int] = {}
        self.refused = 0
        #: When each successful operation completed (slice throughput).
        self.completed: List[float] = []
        #: Statement i is the (i+1)-th most popular.
        self.weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(inputs.statements))]

    def read(self, client: Client, index: int) -> None:
        statement = self.inputs.statements[index]
        floor = self.acked_epoch
        start = time.perf_counter()
        try:
            status, body, _ = client.request("POST", "/query", {"sql": statement.sql})
        except (OSError, ValueError) as error:
            with self.lock:
                self.log.record("cold", time.perf_counter() - start, index, ok=False, why=repr(error))
            return
        elapsed = time.perf_counter() - start
        digest = rows_digest(body["rows"]) if status == 200 else None
        with self.lock:
            if status != 200:
                self.refused += status in (503, 504)
                self.log.record("cold", elapsed, index, ok=False, why=f"HTTP {status}: {body}")
                return
            epoch = body["epochs"].get(self.table, 0)
            label = body["cache"]
            self.labels[label] = self.labels.get(label, 0) + 1
            if label == "miss":
                self.miss_comparisons.append(body["comparisons"])
            # cold = the engine executed for this caller; warm = served
            # from the result cache; a coalesced read rode along on
            # someone else's execution for part of its length and is
            # counted as an operation but in neither latency.
            if self.log.record(
                {"miss": "cold", "hit": "warm"}.get(label, label),
                elapsed,
                index,
                ok=epoch >= floor,
                why=f"read after insert at epoch {floor} answered at epoch {epoch}",
                checks=(((index, epoch), digest),),
            ):
                self.completed.append(start + elapsed)

    def insert(self, client: Client) -> None:
        batch = self.inputs.batches[self.batches_sent]
        self.batches_sent += 1
        start = time.perf_counter()
        try:
            status, body, _ = client.request(
                "POST", "/insert", {"table": self.inputs.target, "rows": [list(r) for r in batch]}
            )
        except (OSError, ValueError) as error:
            with self.lock:
                self.log.record("insert", time.perf_counter() - start, ok=False, why=repr(error))
            return
        elapsed = time.perf_counter() - start
        with self.lock:
            ok = status == 200 and body.get("inserted") == len(batch)
            if ok:
                self.acked_epoch = max(self.acked_epoch, body["epochs"][self.table])
            else:
                self.refused += status in (503, 504)
            if self.log.record("insert", elapsed, ok=ok, why=f"HTTP {status}: {body}"):
                self.completed.append(start + elapsed)

    def client_loop(self, number: int, server: Server, seed: int, deadline: float) -> None:
        rng = client_rng(number, seed)
        indices = range(len(self.inputs.statements))
        client = Client(server.host, server.port)
        try:
            reads = 0
            while time.perf_counter() < deadline:
                self.read(client, rng.choices(indices, weights=self.weights)[0])
                reads += 1
                if (
                    number == 0
                    and reads % READS_PER_INSERT == 0
                    and self.batches_sent < len(self.inputs.batches)
                ):
                    self.insert(client)
        finally:
            client.close()

    def run(self, server: Server, seed: int, seconds: float) -> float:
        """Drive the clients for *seconds*; returns operations per second.

        The rate is the median over the window's whole one-second
        slices, so one disturbed second does not move it.
        """
        started = time.perf_counter()
        threads = [
            threading.Thread(
                target=self.client_loop, args=(n, server, seed, started + seconds), daemon=True
            )
            for n in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 2 * OP_TIMEOUT_S)
            if thread.is_alive():
                with self.lock:
                    self.log.record("cold", OP_TIMEOUT_S, ok=False, why="client never returned")
        slices = [0] * max(1, int(seconds))
        for moment in self.completed:
            if 0 <= moment - started < len(slices):
                slices[int(moment - started)] += 1
        elapsed = time.perf_counter() - started
        return median(slices) if seconds >= 1 else len(self.completed) / elapsed


def first_answers(server: Server, inputs: Inputs) -> List[Tuple[str, int]]:
    """Issue every statement once; returns ``(rows digest, comparisons)`` each."""
    answers = []
    for statement in inputs.statements:
        status, body, _ = server.client.request("POST", "/query", {"sql": statement.sql})
        if status != 200:
            raise RuntimeError(f"HTTP {status} for {statement.sql!r}: {body}")
        answers.append((rows_digest(body["rows"]), body["comparisons"]))
    return answers


def reference_engine(inputs: Inputs, csv_specs: List[str]) -> QueryEREngine:
    """An in-process engine over the very CSV the server read."""
    engine = QueryEREngine()
    for spec in csv_specs:
        name, _, path = spec.partition("=")
        engine.register(read_csv(path, name=name))
    return engine


def verify(
    inputs: Inputs, csv_specs: List[str], served_first: List[Tuple[str, int]],
    served_final: Dict[int, str], batches_sent: int,
) -> Tuple[List[str], float, float]:
    """Check served answers against an in-process engine; measure link quality.

    Two samples are deterministic whatever the two clients' interleaving
    was, and only those are compared: the first answer to every
    statement (fresh Link Index, fixed order — rows *and* comparisons
    must match), and the plain ``SELECT``s after the same insert batches
    (they never read the Link Index).  A later DEDUP answer depends on
    which queries resolved what before it, which two racing clients do
    not repeat.
    """
    problems = []
    engine = reference_engine(inputs, csv_specs)
    try:
        for index, statement in enumerate(inputs.statements):
            result = engine.execute(statement.sql)
            if (rows_digest(result.rows), result.comparisons) != served_first[index]:
                problems.append(f"first answer to statement {index} differs from in-process")
        # Before the inserts: the table every seed shares, so it repeats exactly.
        recall, precision = library.link_quality(engine, inputs)
        for batch in inputs.batches[:batches_sent]:
            engine.insert(inputs.target, batch)
        for index, digest in served_final.items():
            result = engine.execute(inputs.statements[index].sql)
            if rows_digest(result.rows) != digest:
                problems.append(f"post-insert answer to statement {index} differs from in-process")
    finally:
        engine.close()
    return problems, recall, precision


@dataclass
class Drive:
    """What one boot-and-drive of ``repro serve`` observed."""

    csv_specs: List[str]
    #: Spawn → ``/healthz`` ok, from the CSVs and from the snapshot.
    boot_cold_s: float
    boot_warm_s: float
    #: Per warm restart: spawn → every statement answered once.
    setups: List[float]
    served_first: List[Tuple[str, int]]
    traffic: Traffic
    ops_per_s: float
    #: CPU seconds of the server's process tree over the traffic.
    cpu_s: float
    peak_rss_mb: float
    #: Digest of each plain ``SELECT``'s answer after the last insert.
    served_final: Dict[int, str]
    health: Dict[str, Any]


def boot_and_drive(
    inputs: Inputs, seed: int, seconds: float, directory: Path, restarts: int = 1
) -> Drive:
    """Cold boot (writes the snapshot), warm restart(s), then the mix for *seconds*.

    With ``seconds == 0`` no traffic is sent: the boots alone are measured.
    """
    csv_specs = write_tables(inputs, directory)
    data_dir, log_path = directory / "snapshot", directory / "server.log"
    cold = Server(csv_specs, data_dir, log_path)
    cold.stop()
    server: Optional[Server] = None
    try:
        setups = []
        for _ in range(restarts):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            server = Server(csv_specs, data_dir, log_path)
            served_first = first_answers(server, inputs)
            setups.append(time.perf_counter() - started)

        traffic = Traffic(inputs, seed)
        cpu_before, _ = tree_usage(server.pid)
        ops_per_s = traffic.run(server, seed, seconds) if seconds > 0 else 0.0
        cpu_after, peak_rss = tree_usage(server.pid)

        served_final = {}
        for index, statement in enumerate(inputs.statements):
            if not statement.dedup:
                status, body, _ = server.client.request("POST", "/query", {"sql": statement.sql})
                served_final[index] = rows_digest(body["rows"]) if status == 200 else f"HTTP {status}"
        _, health, _ = server.client.request("GET", "/healthz")
    finally:
        if server is not None:
            server.stop()
    return Drive(
        csv_specs, cold.boot_s, server.boot_s, setups, served_first, traffic, ops_per_s,
        cpu_after - cpu_before, peak_rss, served_final, health,
    )


def run(spec: Spec) -> Dict[str, Any]:
    """One untraced ``serve_mix`` run."""
    inputs = spec.inputs()
    directory = work_dir("serve_mix")
    try:
        drive = boot_and_drive(
            inputs, spec.seed, spec.seconds, directory, 1 if spec.smoke else REPEATS
        )
        problems, recall, precision = verify(
            inputs, drive.csv_specs, drive.served_first, drive.served_final,
            drive.traffic.batches_sent,
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if drive.health.get("degraded"):
        problems.append(f"server degraded: {drive.health.get('degradation')}")

    log = drive.traffic.log
    operations = log.count(*log.ms)
    metrics = {
        "setup_s": median(drive.setups),
        "ops_per_s": drive.ops_per_s,
        "cold_query_ms_p50": log.typical_ms("cold"),
        "warm_query_ms_p50": log.typical_ms("warm"),
        "insert_ms_p50": log.typical_ms("insert"),
        # Which reads miss after an insert depends on how the two clients
        # interleave, so the paper's cost metric is counted where it
        # repeats exactly: the first issue of every statement after the
        # warm restart.  (The traced run keeps the misses' own mean.)
        "comparisons_per_cold_query": (
            sum(n for _, n in drive.served_first) / len(drive.served_first)
        ),
        "cpu_s_per_op": drive.cpu_s / operations if operations else None,
        "peak_rss_mb": drive.peak_rss_mb,
        "link_recall": recall,
        "link_precision": precision,
    }
    return {
        "metrics": metrics,
        "correct": not problems,
        "attempted": log.attempted,
        "failed": log.failed,
        "failures": log.failures + problems,
        "samples": {kind: log.count(kind) for kind in log.ms},
        "undersampled": undersampled(log),
        "input_digest": inputs.digest,
    }
