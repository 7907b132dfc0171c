"""Persistence benchmark: cold build vs warm restart from a snapshot.

Builds an engine over a datagen PPL table, answers a query pool (the
cold leg: registration + first answers), snapshots it with
:func:`repro.persist.save_engine`, appends a delta checkpoint from a
committed ``INSERT INTO`` batch, then loads the snapshot back and
answers the same pool (the warm leg).  Two invariants are gated (exit
1 on violation); wall-clock is reported and recorded, and the
committed baseline check gates only deterministic result shape:

* **Identity** — every warm answer is byte-identical to the live
  engine's answer over the same final table state.
* **Warm beats cold** — load + first answers from the snapshot is
  faster than register + first answers from raw rows (the reason the
  subsystem exists: tokenization, blocking builds and resolved-entity
  matching are all skipped).

Emits ``BENCH_persist.json``.

Usage::

    PYTHONPATH=src python -m repro.bench.persist_restart
    PYTHONPATH=src python -m repro.bench.persist_restart --quick \
        --output /tmp/persist.json --check BENCH_persist.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.bench.reporting import format_table
from repro.bench.workload import sp_queries
from repro.core.engine import QueryEREngine
from repro.datagen import generate_people
from repro.persist import read_manifest, snapshot_size_bytes
from repro.sql.ast import Literal
from repro.storage.table import Table

SCHEMA = "repro/bench/persist-restart/v1"

#: Fixed dataset size (same in --quick) so the committed result shape —
#: per-query row counts — is comparable across machines and runs.
ENTITIES = 6000
#: Rows committed after the base snapshot; they land as a delta segment.
INSERT_ROWS = 40


def canonical(rows: Any) -> str:
    """Byte-identity form of a result: canonical JSON of sorted rows."""
    normalized = sorted([list(map(str, row)) for row in rows])
    return json.dumps(normalized, separators=(",", ":"))


def _insert_sql(rows: Sequence[tuple]) -> str:
    rendered = ", ".join(
        "(" + ", ".join(str(Literal(value)) for value in row) + ")" for row in rows
    )
    return f"INSERT INTO PPL VALUES {rendered}"


def _engine() -> QueryEREngine:
    return QueryEREngine()


def run(quick: bool = False) -> Dict[str, Any]:
    entities = ENTITIES
    pool = sp_queries("PPL")
    pool = [pool[0], pool[2]] if quick else [pool[0], pool[2], pool[4]]

    table, _ = generate_people(entities + INSERT_ROWS, seed=90, name="PPL")
    values = [tuple(row.values) for row in table]
    base_rows, delta_rows = values[:entities], values[entities:]

    phases: List[Dict[str, Any]] = []
    problems: List[str] = []

    # -- cold leg: register the *final* rows, answer the pool ------------
    started = time.perf_counter()
    cold = _engine()
    cold.register(Table("PPL", table.schema, values, coerce=False))
    register_s = time.perf_counter() - started
    cold_answers: Dict[str, str] = {}
    reference_rows: Dict[str, int] = {}
    query_started = time.perf_counter()
    for query in pool:
        result = cold.execute(query.sql)
        cold_answers[query.qid] = canonical(result.rows)
        reference_rows[query.qid] = len(result)
    cold_query_s = time.perf_counter() - query_started
    cold_s = time.perf_counter() - started
    phases.append(
        {
            "phase": "cold-build",
            "duration_s": round(cold_s, 4),
            "register_s": round(register_s, 4),
            "query_s": round(cold_query_s, 4),
        }
    )

    with tempfile.TemporaryDirectory(prefix="bench_persist_") as directory:
        # -- live leg: base rows, checkpointing, committed delta ---------
        live = _engine()
        live.register(Table("PPL", table.schema, base_rows, coerce=False))
        started = time.perf_counter()
        live.enable_checkpointing(directory)
        base_save_s = time.perf_counter() - started
        started = time.perf_counter()
        live.execute(_insert_sql(delta_rows))
        delta_s = time.perf_counter() - started
        live_answers = {q.qid: canonical(live.execute(q.sql).rows) for q in pool}
        # Graceful shutdown: persist the Link-Index work those answers
        # resolved, so the warm leg reloads it instead of re-matching.
        started = time.perf_counter()
        live.save(directory)
        final_save_s = time.perf_counter() - started
        manifest = read_manifest(directory)
        entry = manifest["tables"]["ppl"]
        phases.append(
            {
                "phase": "snapshot",
                "base_save_s": round(base_save_s, 4),
                "delta_checkpoint_s": round(delta_s, 4),
                "final_save_s": round(final_save_s, 4),
                "bytes": snapshot_size_bytes(directory),
                "epoch": entry["epoch"],
                "segments": [segment["kind"] for segment in entry["segments"]],
            }
        )

        # -- warm leg: load + answer the same pool -----------------------
        started = time.perf_counter()
        warm = QueryEREngine.load(directory)
        load_s = time.perf_counter() - started
        warm_answers: Dict[str, str] = {}
        query_started = time.perf_counter()
        for query in pool:
            warm_answers[query.qid] = canonical(warm.execute(query.sql).rows)
        warm_query_s = time.perf_counter() - query_started
        warm_s = load_s + warm_query_s
        phases.append(
            {
                "phase": "warm-restart",
                "duration_s": round(warm_s, 4),
                "load_s": round(load_s, 4),
                "query_s": round(warm_query_s, 4),
            }
        )

    for query in pool:
        if warm_answers[query.qid] != live_answers[query.qid]:
            problems.append(f"{query.qid}: warm answer diverged from live engine")
        if warm_answers[query.qid] != cold_answers[query.qid]:
            problems.append(f"{query.qid}: warm answer diverged from cold engine")
    warm_faster = warm_s < cold_s
    if not warm_faster:
        problems.append(
            f"warm restart ({warm_s:.2f}s) did not beat cold build ({cold_s:.2f}s)"
        )

    return {
        "schema": SCHEMA,
        "generated_unix": int(time.time()),
        "python": ".".join(map(str, sys.version_info[:2])),
        "cpu_count": os.cpu_count(),
        "quick": quick,
        "config": {
            "entities": entities,
            "insert_rows": INSERT_ROWS,
            "queries": {q.qid: q.sql for q in pool},
        },
        "reference_rows": reference_rows,
        "phases": phases,
        "aggregate": {
            "identical_results": not any("diverged" in p for p in problems),
            "warm_faster": warm_faster,
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "speedup": round(cold_s / warm_s, 2) if warm_s > 0 else None,
            "problems": problems,
        },
    }


def render(report: Dict[str, Any]) -> str:
    rows = []
    for phase in report["phases"]:
        detail = ", ".join(
            f"{key}={value}"
            for key, value in phase.items()
            if key not in ("phase", "duration_s")
        )
        rows.append((phase["phase"], str(phase.get("duration_s", "")), detail))
    table = format_table(
        ["phase", "duration s", "detail"],
        rows,
        title="Persistence benchmark (PPL%d)" % report["config"]["entities"],
    )
    aggregate = report["aggregate"]
    return table + (
        f"\nidentical={aggregate['identical_results']}  "
        f"warm_faster={aggregate['warm_faster']}  "
        f"speedup={aggregate['speedup']}x  cpu_count={report['cpu_count']}"
    )


def check_shape(report: Dict[str, Any], baseline: Dict[str, Any]) -> List[str]:
    """Deterministic-field drift vs the committed baseline.

    Row counts and the identity/ordering invariants must match;
    wall-clock is a machine property and never gated.  A quick run
    checks only the queries it executed.
    """
    problems: List[str] = []
    if report.get("schema") != baseline.get("schema"):
        return [f"schema drift: {report.get('schema')!r} != {baseline.get('schema')!r}"]
    if not report["aggregate"]["identical_results"]:
        problems.append("warm answers diverged from live/cold execution")
    if not report["aggregate"]["warm_faster"]:
        problems.append("warm restart no longer beats cold build")
    baseline_rows = baseline.get("reference_rows", {})
    for qid, count in report["reference_rows"].items():
        reference = baseline_rows.get(qid)
        if reference is None:
            problems.append(f"query {qid} not in baseline")
        elif count != reference:
            problems.append(f"{qid}: rows drifted {reference} -> {count}")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.persist_restart", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--output",
        default="BENCH_persist.json",
        help="where to write the JSON report (default: %(default)s)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke subset: 2 queries instead of 3 (same dataset size)",
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

    aggregate = report["aggregate"]
    if aggregate["problems"]:
        print("FAIL:", file=sys.stderr)
        for problem in aggregate["problems"]:
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
