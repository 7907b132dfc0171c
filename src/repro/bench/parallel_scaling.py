"""Parallel-scaling benchmark: partitioned Comparison-Execution.

Runs a fig10-style scalability ladder — one broad SP DEDUP query (Q5,
S≈80%) over growing PPL tables — serially and at workers ∈ {2, 4}
(fork-based process pool), asserts the outputs are **bit-identical**
across widths (rows, link sets, comparison counts), and emits
``BENCH_parallel_scaling.json`` as the subsystem's committed trajectory
record.

Determinism is gated; timings are reported, never gated.  Speedup is a
property of the hardware the harness runs on: the report records
``cpu_count`` next to every ratio, and the ``meets_2x_at_4`` flag is
meaningful only where at least 4 cores are usable (on a single-core
runner the parallel columns measure pure scheduling overhead — the
honest number is ≤ 1x there, and the JSON says so).

Usage::

    PYTHONPATH=src python -m repro.bench.parallel_scaling
    PYTHONPATH=src python -m repro.bench.parallel_scaling --quick \
        --output /tmp/parallel.json --check BENCH_parallel_scaling.json
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
from repro.parallel.config import usable_cores

SCHEMA = "repro/bench/parallel-scaling/v1"

#: Ladder sizes are fixed (independent of REPRO_SCALE) so the committed
#: result shape is comparable across machines.
LADDER: Sequence[int] = (1500, 3000, 6000)
QUICK_LADDER: Sequence[int] = (1500,)

WORKER_SETTINGS: Sequence[int] = (1, 2, 4)
QUICK_WORKER_SETTINGS: Sequence[int] = (1, 2)

#: Bench-specific thresholds: the ladder's lower rungs must exercise the
#: pool too, not fall back to serial.
BENCH_MIN_PAIRS = 256
BENCH_MIN_COMPARISONS = 4096


def _config(workers: int) -> ExecutionConfig:
    if workers == 1:
        return ExecutionConfig.serial()
    return ExecutionConfig(
        workers=workers,
        backend="process",
        min_parallel_pairs=BENCH_MIN_PAIRS,
        min_parallel_comparisons=BENCH_MIN_COMPARISONS,
    )


def _run_once(table, sql: str, workers: int) -> Dict[str, Any]:
    engine = QueryEREngine(execution=_config(workers))
    engine.register(table)
    engine.clear_caches()
    start = time.perf_counter()
    result = engine.execute(sql)
    elapsed = time.perf_counter() - start
    links = sorted(engine.index_of("PPL").link_index.links, key=repr)
    executor = engine.parallel_executor
    return {
        "workers": workers,
        "backend": engine.execution.resolved_backend() if workers > 1 else "serial",
        "total_s": elapsed,
        "stage_s": {k: round(v, 6) for k, v in result.stage_times.items()},
        "rows": len(result),
        "comparisons": result.comparisons,
        "links": links,
        "scheduling": dict(executor.stats) if executor is not None else None,
    }


def bench_dataset(size: int, sql: str, worker_settings: Sequence[int], repeat: int) -> Dict[str, Any]:
    """One ladder rung: identical-output check + per-width timings."""
    table, _ = generate_people(size, seed=90, name="PPL")
    runs: List[Dict[str, Any]] = []
    reference: Optional[Dict[str, Any]] = None
    identical = True
    for workers in worker_settings:
        best: Optional[Dict[str, Any]] = None
        for _ in range(repeat):
            current = _run_once(table, sql, workers)
            if best is None or current["total_s"] < best["total_s"]:
                best = current
        if reference is None:
            reference = best
        else:
            identical = identical and (
                best["rows"] == reference["rows"]
                and best["comparisons"] == reference["comparisons"]
                and best["links"] == reference["links"]
            )
        entry = dict(best)
        entry.pop("links")
        entry["total_s"] = round(entry["total_s"], 6)
        runs.append(entry)
    serial_s = runs[0]["total_s"]
    for entry in runs:
        entry["speedup_vs_serial"] = (
            round(serial_s / entry["total_s"], 2) if entry["total_s"] else None
        )
    return {
        "dataset": f"PPL{size}",
        "entities": size,
        "rows": reference["rows"],
        "comparisons": reference["comparisons"],
        "link_count": len(reference["links"]),
        "identical_results": identical,
        "runs": runs,
    }


def run(quick: bool = False, repeat: int = 2) -> Dict[str, Any]:
    query = sp_queries("PPL")[4]  # Q5, S≈80%: the broad-frontier probe
    ladder = QUICK_LADDER if quick else LADDER
    worker_settings = QUICK_WORKER_SETTINGS if quick else WORKER_SETTINGS
    repeat = 1 if quick else repeat
    datasets = [bench_dataset(size, query.sql, worker_settings, repeat) for size in ladder]

    cpu_count = usable_cores()
    widest = max(worker_settings)
    top = datasets[-1]
    speedup_at_widest = next(
        (r["speedup_vs_serial"] for r in top["runs"] if r["workers"] == widest), None
    )
    return {
        "schema": SCHEMA,
        "generated_unix": int(time.time()),
        "python": "%d.%d" % sys.version_info[:2],
        "cpu_count": cpu_count,
        "quick": quick,
        "workload": {"family": "PPL", "qid": query.qid, "sql": query.sql},
        "worker_settings": list(worker_settings),
        "datasets": datasets,
        "aggregate": {
            "identical_results": all(d["identical_results"] for d in datasets),
            "widest_workers": widest,
            "speedup_at_widest": speedup_at_widest,
            "meets_2x_at_4": (
                widest >= 4
                and speedup_at_widest is not None
                and speedup_at_widest >= 2.0
            ),
            "note": (
                "speedups measure this machine; with fewer usable cores than "
                "workers the parallel columns record scheduling overhead, not "
                "scaling" if cpu_count < widest else
                "cores >= widest worker setting; speedups reflect real scaling"
            ),
        },
    }


def render(report: Dict[str, Any]) -> str:
    rows = []
    for dataset in report["datasets"]:
        for entry in dataset["runs"]:
            rows.append(
                (
                    dataset["dataset"],
                    dataset["entities"],
                    entry["workers"],
                    entry["backend"],
                    entry["total_s"],
                    entry["speedup_vs_serial"],
                    dataset["comparisons"],
                    "yes" if dataset["identical_results"] else "NO",
                )
            )
    table = format_table(
        ["dataset", "|E|", "workers", "backend", "total s", "speedup", "comparisons", "identical"],
        rows,
        title="Parallel Comparison-Execution scaling (fig10-style Q5 ladder)",
    )
    aggregate = report["aggregate"]
    summary = (
        f"cpu_count={report['cpu_count']}  widest={aggregate['widest_workers']} "
        f"workers  speedup={aggregate['speedup_at_widest']}x  "
        f"identical={aggregate['identical_results']}\nnote: {aggregate['note']}"
    )
    return table + "\n" + summary


def check_shape(report: Dict[str, Any], baseline: Dict[str, Any]) -> List[str]:
    """Deterministic-field drift between a fresh run and the baseline.

    Rows, comparisons, link counts and the identical-results invariant
    must match; timings and speedups are machine properties and are
    never gated.  A quick run checks the rung subset it executed.
    """
    problems: List[str] = []
    if report.get("schema") != baseline.get("schema"):
        return [f"schema drift: {report.get('schema')!r} != {baseline.get('schema')!r}"]
    if not report["aggregate"]["identical_results"]:
        problems.append("parallel and serial outputs diverged")
    baseline_datasets = {d["dataset"]: d for d in baseline["datasets"]}
    for dataset in report["datasets"]:
        reference = baseline_datasets.get(dataset["dataset"])
        if reference is None:
            problems.append(f"dataset {dataset['dataset']} not in baseline")
            continue
        for field in ("entities", "rows", "comparisons", "link_count"):
            if dataset[field] != reference[field]:
                problems.append(
                    f"{dataset['dataset']}: {field} drifted "
                    f"{reference[field]} -> {dataset[field]}"
                )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.parallel_scaling", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--output",
        default="BENCH_parallel_scaling.json",
        help="where to write the JSON report (default: %(default)s)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke subset: smallest rung, workers {1, 2}, single repeat",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="timing repetitions per configuration, best-of (default: 2)",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare deterministic result fields against a committed "
        "baseline JSON; exit 1 on drift (timings are never gated)",
    )
    args = parser.parse_args(argv)

    report = run(quick=args.quick, repeat=args.repeat)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(render(report))
    print(f"\nreport written to {args.output}")

    if not report["aggregate"]["identical_results"]:
        print("FAIL: parallel and serial outputs diverged", file=sys.stderr)
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
