#!/usr/bin/env python3
"""Judge result set B against result set A with the benchmark's own bounds.

    python3 bench/compare.py A.json B.json [--same-commit]

A and B are files written by ``bench/run.py --out`` (use ``--repeat`` so
that A holds several runs per workload).  One row per (workload,
end-to-end metric), each with one verdict:

``worse``       B's median is worse than A's by more than the bound (a
                share of A's median; for the two link-quality ratios
                the bound is absolute)
``unresolved``  A's own runs spread wider than the bound, so nothing
                smaller than that spread can be told from noise
``better``      B's median is better than A's by more than both the
                bound and A's spread
``unchanged``   anything else

Exit status is non-zero on any ``worse``, on a failed share that went
up, and — with ``--same-commit``, for two sets from one commit and one
seed — on differing input digests or ``comparisons_per_cold_query``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Counts that must repeat exactly between two runs of one commit.
EXACT = ("comparisons_per_cold_query",)
#: Ratios whose bound is a difference, not a share of the parent's value.
ABSOLUTE = ("link_recall", "link_precision")


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 with < 2 values)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return abs((quartiles[2] - quartiles[0]) / middle) if middle else 0.0


def verdict(
    parent: List[float], change: List[float], better: str, bound: float, absolute: bool = False
) -> Tuple[str, float, float]:
    """``(verdict, change, parent spread)``; positive change = worse.

    Change and spread are shares of the parent's median, or with
    *absolute* plain differences.
    """
    before, after = statistics.median(parent), statistics.median(change)
    scale = 1.0 if absolute else abs(before)
    worsening = (after - before) / scale if scale else 0.0
    if better == "higher":
        worsening = -worsening
    noise = spread(parent) * (abs(before) if absolute else 1.0)
    if worsening > bound:
        return "worse", worsening, noise
    if noise > bound:
        return "unresolved", worsening, noise
    if -worsening > max(bound, noise):
        return "better", worsening, noise
    return "unchanged", worsening, noise


def untraced(path: str) -> Dict[str, List[Dict[str, Any]]]:
    """The untraced runs of a result file, by workload."""
    by_workload: Dict[str, List[Dict[str, Any]]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if not run["trace"]:
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def compare(
    parent: Dict[str, List[Dict[str, Any]]],
    change: Dict[str, List[Dict[str, Any]]],
    end_to_end: List[Dict[str, Any]],
    same_commit: bool = False,
) -> Tuple[List[Tuple[str, str, str, float, float]], List[str]]:
    """Rows ``(workload, metric, verdict, change, spread)`` and blocking problems."""
    rows = []
    problems = []
    for workload in sorted(set(parent) & set(change)):
        before, after = parent[workload], change[workload]
        for metric in end_to_end:
            name = metric["name"]
            values = [
                [run["metrics"][name]["value"] for run in runs] for runs in (before, after)
            ]
            outcome, delta, noise = verdict(
                values[0], values[1], metric["better"], metric["bound"], name in ABSOLUTE
            )
            rows.append((workload, name, outcome, delta, noise))
            if outcome == "worse":
                problems.append(f"{workload}: {name} worse by {delta:.2%} (bound {metric['bound']:.1%})")
            if same_commit and name in EXACT and values[0] != values[1]:
                problems.append(f"{workload}: {name} differs between two runs of one commit")
        shares = [
            sum(run["failed"] for run in runs) / max(1, sum(run["attempted"] for run in runs))
            for runs in (before, after)
        ]
        if shares[1] > shares[0]:
            problems.append(f"{workload}: failed share rose from {shares[0]:.4f} to {shares[1]:.4f}")
        digests = [sorted({run.get("input_digest") for run in runs}) for runs in (before, after)]
        if same_commit and digests[0] != digests[1]:
            problems.append(f"{workload}: input digests differ")
    for workload in sorted(set(parent) ^ set(change)):
        problems.append(f"{workload}: present in only one result set")
    return rows, problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--same-commit", action="store_true",
                        help="both sets come from one commit and one seed: also require "
                        "identical input digests and exact counts")
    args = parser.parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows, problems = compare(
        untraced(args.parent), untraced(args.change), end_to_end, args.same_commit
    )
    print(f"{'workload':14s} {'metric':28s} {'verdict':11s} {'change':>9s} {'A spread':>9s}")
    for workload, name, outcome, delta, noise in rows:
        print(f"{workload:14s} {name:28s} {outcome:11s} {delta:+9.1%} {noise:9.1%}")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
