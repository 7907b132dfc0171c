"""Shard-runtime benchmark: resident workers vs serial.

Measures the *warm repeated-query* path — the serving pattern the
shard runtime (:mod:`repro.parallel.shards`) exists for — in two
execution modes over the same fig10-style PPL ladder:

* ``serial``  — the single-process reference (the engine default);
* ``shards``  — long-lived hash-partitioned workers spawned once and
  reused, state advanced by per-commit delta segments.

Between warm repetitions the Link Index and similarity caches are
cleared, so every repetition re-runs full Comparison-Execution; the
first shard-mode query (which pays the one-time fork) is recorded
separately as ``cold_s`` and excluded from warm statistics.  The gated
claim is **identity**: rows, comparison counts and link sets are
identical across both modes, including after a mid-sequence ``INSERT
INTO`` (delta shipping) and under an injected ``shard.task`` fault
(serial-retry recovery).  Timings and the warm overhead versus serial
are machine properties, reported with ``cpu_count`` context and never
gated.

Usage::

    PYTHONPATH=src python -m repro.bench.shard_scaling
    PYTHONPATH=src python -m repro.bench.shard_scaling --quick \
        --output /tmp/shards.json --check BENCH_shards.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.bench.reporting import format_table
from repro.bench.workload import sp_queries
from repro.core.engine import QueryEREngine
from repro.datagen import generate_people
from repro.parallel import ExecutionConfig
from repro.parallel.config import fork_available, usable_cores
from repro.resilience import FaultPlan, clear_plan, install_plan

SCHEMA = "repro/bench/shard-scaling/v2"

LADDER: Sequence[int] = (1500, 3000)
QUICK_LADDER: Sequence[int] = (1500,)

WORKER_SETTINGS: Sequence[int] = (2, 4)
QUICK_WORKER_SETTINGS: Sequence[int] = (2,)

#: Low thresholds: the ladder's lower rungs must take the shard path
#: rather than stay serial.
BENCH_MIN_PAIRS = 256
BENCH_MIN_COMPARISONS = 4096


def _config(mode: str, workers: int) -> ExecutionConfig:
    if mode == "serial":
        return ExecutionConfig.serial()
    return ExecutionConfig(
        workers=workers,
        min_parallel_pairs=BENCH_MIN_PAIRS,
        min_parallel_comparisons=BENCH_MIN_COMPARISONS,
    )


def _observe(engine: QueryEREngine, sql: str) -> Dict[str, Any]:
    engine.clear_caches()
    start = time.perf_counter()
    result = engine.execute(sql)
    elapsed = time.perf_counter() - start
    return {
        "elapsed_s": elapsed,
        "rows": len(result),
        "comparisons": result.comparisons,
        "links": sorted(engine.index_of("PPL").link_index.links, key=repr),
    }


def _insert_rows(size: int, count: int = 4) -> List[tuple]:
    extra, _ = generate_people(count, seed=7177)
    return [
        (size + 5000 + offset,) + tuple(row.values[1:])
        for offset, row in enumerate(extra)
    ]


def run_mode(
    table, sql: str, mode: str, workers: int, reps: int, fault: Optional[str] = None
) -> Dict[str, Any]:
    """One mode's full warm sequence over a private engine.

    cold query → ``reps`` warm queries (caches cleared between) →
    ``INSERT INTO`` → one post-insert query.  Identity fields cover the
    warm result and the post-insert result.  The engine gets a private
    copy of *table*: registration is by reference and the insert would
    otherwise leak into the next mode's run.
    """
    if fault:
        install_plan(FaultPlan.parse(fault))
    engine = QueryEREngine(execution=_config(mode, workers))
    try:
        size = len(table)
        engine.register(
            type(table)(table.name, table.schema, [row.values for row in table])
        )
        cold = _observe(engine, sql)
        warm = [_observe(engine, sql) for _ in range(reps)]
        engine.insert("PPL", _insert_rows(size))
        after_insert = _observe(engine, sql)
        executor = engine.parallel_executor
        shard_status = executor.shard_status() if executor is not None else None
        warm_times = [w["elapsed_s"] for w in warm]
        return {
            "mode": mode,
            "workers": 1 if mode == "serial" else workers,
            "fault": fault,
            "cold_s": round(cold["elapsed_s"], 6),
            "warm_s": round(min(warm_times), 6),
            "warm_mean_s": round(sum(warm_times) / len(warm_times), 6),
            "rows": warm[0]["rows"],
            "comparisons": warm[0]["comparisons"],
            "links": warm[0]["links"],
            "rows_after_insert": after_insert["rows"],
            "comparisons_after_insert": after_insert["comparisons"],
            "links_after_insert": after_insert["links"],
            "scheduling": dict(executor.stats) if executor is not None else None,
            "shards": shard_status,
        }
    finally:
        engine.close()
        if fault:
            clear_plan()


def _identity(entry: Dict[str, Any], reference: Dict[str, Any]) -> bool:
    return (
        entry["rows"] == reference["rows"]
        and entry["comparisons"] == reference["comparisons"]
        and entry["links"] == reference["links"]
        and entry["rows_after_insert"] == reference["rows_after_insert"]
        and entry["comparisons_after_insert"] == reference["comparisons_after_insert"]
        and entry["links_after_insert"] == reference["links_after_insert"]
    )


def bench_dataset(size: int, sql: str, worker_settings: Sequence[int], reps: int) -> Dict[str, Any]:
    """One ladder rung: identity gates + warm-overhead comparison."""
    table, _ = generate_people(size, seed=90, name="PPL")
    reference = run_mode(table, sql, "serial", 1, reps)
    runs: List[Dict[str, Any]] = []
    identical = True
    serial_warm = reference["warm_s"]
    for workers in worker_settings:
        entry = run_mode(table, sql, "shards", workers, reps)
        identical = identical and _identity(entry, reference)
        entry["warm_overhead_vs_serial_s"] = round(entry["warm_s"] - serial_warm, 6)
        runs.append(entry)
    # Recovery identity: a task fault on the shard path must not change bits.
    faulted = run_mode(table, sql, "shards", worker_settings[0], 1,
                       fault="shard.task:times=1")
    identical = identical and _identity(faulted, reference)

    serial_entry = dict(reference)
    serial_entry["warm_overhead_vs_serial_s"] = 0.0
    for entry in [serial_entry] + runs + [faulted]:
        entry.pop("links", None)
        entry.pop("links_after_insert", None)
    return {
        "dataset": f"PPL{size}",
        "entities": size,
        "rows": reference["rows"],
        "comparisons": reference["comparisons"],
        "link_count": len(reference["links"]),
        "rows_after_insert": reference["rows_after_insert"],
        "comparisons_after_insert": reference["comparisons_after_insert"],
        "identical_results": identical,
        "serial": serial_entry,
        "runs": runs,
        "faulted_shards_run": faulted,
    }


def run(quick: bool = False, reps: int = 3) -> Dict[str, Any]:
    if not fork_available():
        raise SystemExit("shard benchmark needs fork (shard workers are forked processes)")
    query = sp_queries("PPL")[4]  # Q5, S≈80%: the broad-frontier probe
    ladder = QUICK_LADDER if quick else LADDER
    worker_settings = QUICK_WORKER_SETTINGS if quick else WORKER_SETTINGS
    reps = 2 if quick else reps
    datasets = [bench_dataset(size, query.sql, worker_settings, reps) for size in ladder]

    cpu_count = usable_cores()
    widest = max(worker_settings)
    return {
        "schema": SCHEMA,
        "generated_unix": int(time.time()),
        "python": "%d.%d" % sys.version_info[:2],
        "cpu_count": cpu_count,
        "quick": quick,
        "workload": {"family": "PPL", "qid": query.qid, "sql": query.sql},
        "worker_settings": list(worker_settings),
        "warm_reps": reps,
        "datasets": datasets,
        "aggregate": {
            "identical_results": all(d["identical_results"] for d in datasets),
            "note": (
                "warm_s is best-of warm repetitions with caches cleared "
                "between; cold_s for shards includes the one-time worker "
                "fork. Overheads measure this machine "
                f"({cpu_count} usable cores"
                + ("" if cpu_count >= widest else
                   f", fewer than the widest setting of {widest} — parallel "
                   "columns include oversubscription")
                + "); only result identity is gated."
            ),
        },
    }


def render(report: Dict[str, Any]) -> str:
    rows = []
    for dataset in report["datasets"]:
        for entry in [dataset["serial"]] + dataset["runs"]:
            rows.append(
                (
                    dataset["dataset"],
                    entry["mode"],
                    entry["workers"],
                    entry["cold_s"],
                    entry["warm_s"],
                    entry["warm_overhead_vs_serial_s"],
                    dataset["comparisons"],
                    "yes" if dataset["identical_results"] else "NO",
                )
            )
    table = format_table(
        ["dataset", "mode", "workers", "cold s", "warm s", "overhead s", "comparisons", "identical"],
        rows,
        title="Resident shards vs serial (warm repeated Q5)",
    )
    aggregate = report["aggregate"]
    summary = (
        f"cpu_count={report['cpu_count']}  identical={aggregate['identical_results']}"
        f"\nnote: {aggregate['note']}"
    )
    return table + "\n" + summary


def check_shape(report: Dict[str, Any], baseline: Dict[str, Any]) -> List[str]:
    """Deterministic-field drift between a fresh run and the baseline.

    Rows, comparisons, link counts (cold and post-insert) and the
    identity invariant must match; timings and overhead magnitudes are
    machine properties and are never gated.  A quick run checks the
    rung subset it executed.
    """
    problems: List[str] = []
    if report.get("schema") != baseline.get("schema"):
        return [f"schema drift: {report.get('schema')!r} != {baseline.get('schema')!r}"]
    if not report["aggregate"]["identical_results"]:
        problems.append("shard/serial outputs diverged")
    baseline_datasets = {d["dataset"]: d for d in baseline["datasets"]}
    for dataset in report["datasets"]:
        reference = baseline_datasets.get(dataset["dataset"])
        if reference is None:
            problems.append(f"dataset {dataset['dataset']} not in baseline")
            continue
        for field in (
            "entities",
            "rows",
            "comparisons",
            "link_count",
            "rows_after_insert",
            "comparisons_after_insert",
        ):
            if dataset[field] != reference[field]:
                problems.append(
                    f"{dataset['dataset']}: {field} drifted "
                    f"{reference[field]} -> {dataset[field]}"
                )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.shard_scaling", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--output",
        default="BENCH_shards.json",
        help="where to write the JSON report (default: %(default)s)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke subset: smallest rung, workers {2}, two warm reps",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=3,
        help="warm repetitions per mode, best-of (default: 3)",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare deterministic result fields against a committed "
        "baseline JSON; exit 1 on drift (timings are never gated)",
    )
    args = parser.parse_args(argv)

    report = run(quick=args.quick, reps=args.reps)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(render(report))
    print(f"\nreport written to {args.output}")

    if not report["aggregate"]["identical_results"]:
        print("FAIL: shard/serial outputs diverged", file=sys.stderr)
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
