"""Benchmark substrate: dataset registry, workload Q1–Q13, harness.

Everything the ``benchmarks/`` suite shares lives here so each paper
table/figure module stays a thin driver.
"""

from repro.bench.datasets import DatasetRegistry, scaled_size, SCALE
from repro.bench.workload import (
    SELECTIVITIES,
    WorkloadQuery,
    sp_queries,
    q9_query,
    range_queries,
    join_query,
)
from repro.bench.harness import Measurement, fresh_engine, run_query
from repro.bench.reporting import format_table

__all__ = [
    "DatasetRegistry",
    "scaled_size",
    "SCALE",
    "SELECTIVITIES",
    "WorkloadQuery",
    "sp_queries",
    "q9_query",
    "range_queries",
    "join_query",
    "Measurement",
    "fresh_engine",
    "run_query",
    "format_table",
]
