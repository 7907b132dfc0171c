#!/usr/bin/env python3
"""The repo's one benchmark: four workloads over the whole query path.

Driver form (one workload, one JSON object as the last stdout line)::

    python3 bench/run.py --workload sp_cold --seed 1 --seconds 10 --trace 0

Without ``--workload`` every workload runs, untraced then traced, each
in a fresh interpreter, and every metric is printed by name with its
unit; ``--out FILE`` keeps the results for ``bench/compare.py``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

# The script's own directory is on sys.path, the program's is added in run_one.
from metrics import strip_overrides  # noqa: E402

#: A workload child that has not finished by then is killed.
CHILD_TIMEOUT_S = 900


def contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: metric names, units, bounds, default run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1 = traced run reporting the per-layer metrics "
                        "(default without --workload: both)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="without --trace 0/1 on one workload: runs per workload, "
                        "on seeds SEED, SEED+1, … (compare.py reads their spread)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up, for a quick local check")
    parser.add_argument("--out", default=None,
                        help="write results (and the spans of traced runs) to this JSON file")
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run one workload in this interpreter; returns the full result."""
    sys.path.insert(0, str(SOURCE))
    import inputs
    import layers
    import library
    import served

    if args.workload[0] not in inputs.WORKLOADS:
        raise SystemExit(f"unknown workload; known: {', '.join(inputs.WORKLOADS)}")
    spec = inputs.Spec(args.workload[0], args.seed, seconds, args.smoke)
    if trace:
        return layers.run(spec)
    if spec.workload == "serve_mix":
        return served.run(spec)
    return library.run(spec)


#: Driver-line value of a per-layer metric whose entry point is gone
#: (the contract wants numbers; the reason goes to stderr).
MISSING = -1.0


def driver_line(result: Dict[str, Any], names: List[Dict[str, str]], trace: bool) -> Dict[str, Any]:
    """The contract's result object: every listed metric, value and unit.

    A missing end-to-end metric makes the run incorrect; a missing
    per-layer metric only reads :data:`MISSING`.
    """
    metrics = {}
    complete = True
    for entry in names:
        value = result["metrics"].get(entry["name"])
        if value is None:
            complete = complete and trace
            value = MISSING
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": bool(result.get("correct", True)) and result["failed"] == 0 and complete,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def single(args: argparse.Namespace) -> int:
    stripped = strip_overrides(os.environ)
    benchmark = contract()
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    trace = bool(args.trace)
    result = run_one(args, seconds, trace)
    names = benchmark["per_layer" if trace else "end_to_end"]
    line = driver_line(result, names, trace)
    for failure in result.get("failures", ()):
        print(f"FAILED {failure}", file=sys.stderr)
    for kind in result.get("undersampled", ()):
        print(f"NOTE the {kind} median rests on fewer than 20 samples", file=sys.stderr)
    print(
        f"[{args.workload[0]} seed={args.seed} trace={int(trace)}] "
        f"samples={result.get('samples')} input_digest={result.get('input_digest')} "
        f"stripped_env={stripped}",
        file=sys.stderr,
    )
    if args.out:
        Path(args.out).write_text(json.dumps({**result, "line": line}, default=str))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_child(command: List[str], environ: Dict[str, str], scratch: Path) -> Tuple[Optional[int], str]:
    """Run one workload child to the end; ``(exit status, stdout)``.

    The child leads its own process group, so that when it overruns or
    this process is interrupted the whole group — a ``repro serve``
    grandchild included — is killed, and what it left in *scratch* goes.
    The status is ``None`` when the child was killed.
    """
    with subprocess.Popen(
        command, env=environ, stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as child:
        try:
            output, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
            return child.returncode, output
        except subprocess.TimeoutExpired:
            return None, ""
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)  # whoever is left in the group
            except ProcessLookupError:
                pass
            for left in scratch.glob(f"*-{child.pid}"):
                shutil.rmtree(left, ignore_errors=True)


def everything(args: argparse.Namespace) -> int:
    """All requested workloads, each run in a fresh child interpreter."""
    benchmark = contract()
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    environ = dict(os.environ)
    stripped = strip_overrides(environ)
    runs = []
    status = 0
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    detail = scratch / f"result-{os.getpid()}.json"
    jobs = [
        (workload, trace, args.seed + repeat)
        for workload in args.workload or workloads
        for trace in ((0, 1) if args.trace is None else (args.trace,))
        for repeat in range(args.repeat)
    ]
    for workload, trace, seed in jobs:
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--trace", str(trace), "--out", str(detail)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.smoke:
            command.append("--smoke")
        returncode, output = run_child(command, environ, scratch)
        lines = output.strip().splitlines()
        if returncode is None or not lines or not detail.exists():
            print(f"{workload} trace={trace} seed={seed}: no result (exit {returncode})")
            detail.unlink(missing_ok=True)
            status = 1
            continue
        line = json.loads(lines[-1])
        full = json.loads(detail.read_text())
        detail.unlink()
        status = status or returncode
        runs.append({
            "workload": workload, "seed": seed, "trace": trace, **line,
            "input_digest": full["input_digest"], "samples": full["samples"],
            "bases": full.get("bases", {}), "spans": full.get("spans", []),
        })
        print(f"\n== {workload} seed={seed} ({'traced' if trace else 'untraced'}) "
              f"correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']} samples={full['samples']}")
        for name, metric in line["metrics"].items():
            print(f"  {name:34s} {metric['value']!s:>24s} {metric['unit']}")
    try:
        scratch.rmdir()
    except OSError:
        pass  # another run is using it
    if args.out:
        envelope = {
            "python": platform.python_version(),
            "cpus": len(os.sched_getaffinity(0)),
            "seconds": args.seconds if args.seconds is not None else benchmark["run_seconds"],
            "stripped_env": stripped,
            "runs": runs,
        }
        Path(args.out).write_text(json.dumps(envelope, indent=1))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"error: the program under test is missing ({SOURCE}/repro)", file=sys.stderr)
        return 2
    if len(args.workload) == 1 and args.trace is not None and args.repeat == 1:
        return single(args)
    return everything(args)


if __name__ == "__main__":
    sys.exit(main())
