"""Fig. 9 — QueryER vs the Batch Approach on SP queries Q1–Q5.

Six panels in the paper: TT and executed comparisons on DSD, OAP and
OAGP2M for selectivities ≈5% → ≈80%.  Expected shapes: QueryER beats BA
on both metrics for every query, and the gap narrows as selectivity
grows (the query-relevant part of the data approaches the whole
dataset).
"""

import pytest

from repro.cli import format_table

from _support.harness import fresh_engine, run_query
from _support.workload import sp_queries

PANELS = [("DSD", "DSD"), ("OAP", "OAP"), ("OAGP2M", "OAGP")]


def run_panel(registry, dataset_key: str, family: str):
    engine = fresh_engine([registry.get(dataset_key)])
    measurements = []
    for query in sp_queries(family):
        queryer = run_query(engine, query.qid, dataset_key, query.sql, "aes")
        batch = run_query(engine, query.qid, dataset_key, query.sql, "batch")
        measurements.append((query, queryer, batch))
    return measurements


@pytest.mark.parametrize("dataset_key,family", PANELS, ids=[p[0] for p in PANELS])
def test_fig9_queryer_vs_ba(benchmark, registry, report, dataset_key, family):
    measurements = benchmark.pedantic(
        lambda: run_panel(registry, dataset_key, family), rounds=1, iterations=1
    )
    rows = [
        [
            query.qid,
            f"{query.selectivity:.0%}",
            round(queryer.total_time, 4),
            round(batch.total_time, 4),
            queryer.comparisons,
            batch.comparisons,
            round(queryer.comparisons / batch.comparisons, 3) if batch.comparisons else None,
        ]
        for query, queryer, batch in measurements
    ]
    report(
        f"fig9_{dataset_key}",
        format_table(
            ["Q", "S", "QueryER TT", "BA TT", "QueryER comp.", "BA comp.", "ratio"],
            rows,
            title=f"Fig 9 — QueryER vs BA on {dataset_key}",
        ),
    )
    # Shape 1: QueryER executes at most as many comparisons as BA (a 5%
    # tolerance absorbs threshold adaptivity of meta-blocking over the
    # query-scoped block collection at the highest selectivity).
    for query, queryer, batch in measurements:
        assert queryer.comparisons <= 1.05 * batch.comparisons, query.qid
    # At low selectivity the win must be decisive.
    first = measurements[0]
    last = measurements[-1]
    assert first[1].comparisons < first[2].comparisons
    # Shape 2: the relative gap narrows as selectivity grows
    # (compare the lowest- and highest-selectivity queries).
    ratio_first = first[1].comparisons / max(1, first[2].comparisons)
    ratio_last = last[1].comparisons / max(1, last[2].comparisons)
    assert ratio_first <= ratio_last + 0.05
    # Shape 3: TT correlates with executed comparisons (paper §9.2) —
    # within QueryER, more comparisons at Q5 than at Q1.
    assert last[1].comparisons >= first[1].comparisons
