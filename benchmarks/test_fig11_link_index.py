"""Fig. 11 — effect of the Link Index on consecutive overlapping queries.

Four overlapping range queries (Q10–Q13, each containing the previous
plus ≈30% more entities) run consecutively on OAGP2M under three
configurations:

* **With LI** — progressive cleaning: per-query TT *decreases* toward 0
  as more of the table is already resolved.
* **Without LI** — every query re-resolves its selection: TT *increases*
  with the growing range, approaching BA.
* **BA** — re-cleans the whole table per query: roughly constant.
"""

from repro.cli import format_table

from _support.datasets import registry as _registry  # noqa: F401 (doc pointer)
from _support.harness import fresh_engine, run_query
from _support.workload import range_queries

DATASET = "OAGP2M"


def run_series(registry):
    queries = range_queries("OAGP", registry.size_of(DATASET))
    with_li = fresh_engine([registry.get(DATASET)], use_link_index=True)
    without_li = fresh_engine([registry.get(DATASET)], use_link_index=False)
    batch_engine = fresh_engine([registry.get(DATASET)])
    series = []
    for query in queries:
        series.append(
            (
                query,
                run_query(with_li, query.qid, DATASET, query.sql, "aes", reset_link_index=False),
                run_query(without_li, query.qid, DATASET, query.sql, "aes", reset_link_index=False),
                run_query(batch_engine, query.qid, DATASET, query.sql, "batch"),
            )
        )
    return series


def test_fig11_link_index(benchmark, registry, report):
    series = benchmark.pedantic(lambda: run_series(registry), rounds=1, iterations=1)
    rows = [
        [
            query.qid,
            f"{query.selectivity:.0%}",
            round(with_li.total_time, 4),
            round(without_li.total_time, 4),
            round(batch.total_time, 4),
            with_li.comparisons,
            without_li.comparisons,
        ]
        for query, with_li, without_li, batch in series
    ]
    report(
        "fig11_link_index",
        format_table(
            ["Q", "range", "With LI TT", "Without LI TT", "BA TT",
             "With LI comp.", "Without LI comp."],
            rows,
            title=f"Fig 11 — consecutive overlapping queries on {DATASET}",
        ),
    )
    with_li_comparisons = [s[1].comparisons for s in series]
    without_li_comparisons = [s[2].comparisons for s in series]
    # With LI, each query only pays for the ~30% new entities — its cost
    # stays below the first query's full cost and far below no-LI.
    assert with_li_comparisons[-1] < without_li_comparisons[-1]
    # Without LI, the growing range makes queries monotonically pricier.
    assert without_li_comparisons[-1] >= without_li_comparisons[0]
    # With LI, later queries resolve only the increment: every follow-up
    # is cheaper than re-resolving its whole range (no-LI cost).
    for with_li_cost, without_li_cost in list(zip(with_li_comparisons, without_li_comparisons))[1:]:
        assert with_li_cost <= without_li_cost
