"""Table 5 — executed comparisons by cleaning order (motivating example).

The paper's Table 5: on the query ``P ⋈ V WHERE P.venue='EDBT'`` over
Tables 1/2, cleaning V first costs 15 comparisons (V: 12, P: 3) while
cleaning P first costs 18 (P: 17, V: 1); the planner must pick the
cheaper order.  We measure both orders with the real operators and check
the AES planner's choice is the cheaper one.
"""

import pytest

from repro.cli import format_table
from repro.core.engine import QueryEREngine
from repro.core.planner import ExecutionMode
from repro.storage.schema import Schema
from repro.storage.table import Table

SQL = (
    "SELECT DEDUP P.Title, P.Year, V.Rank "
    "FROM P INNER JOIN V ON P.venue = V.title WHERE P.venue = 'EDBT'"
)


def motivating_tables():
    publications = Table(
        "P",
        Schema.of("id", "title", "author", "venue", "year"),
        [
            ("P1", "Collective Entity Resolution", None, "EDBT", "2008"),
            ("P2", "Collective E.R.", "Allan Blake",
             "International Conference on Extending Database Technology", "2008"),
            ("P3", "Entity Resolution on Big Data", "Jane Davids, John Doe", "ACM Sigmod", "2017"),
            ("P4", "E.R on Big Data", "J. Davids, J. Doe", "Sigmod", None),
            ("P5", "Entity Resolution on Big Data", "J. Davids, John Doe.", "Proc of ACM SIGMOD", "2017"),
            ("P6", "E.R for consumer data", "Allan Blake, Lisa Davidson", "EDBT", "2015"),
            ("P7", "Entity-Resolution for consumer data", "A. Blake, L. Davidson",
             "International Conference on Extending Database Technology", None),
            ("P8", "Entity-Resolution for consumer data", "Allan Blake , Davidson Lisa", "EDBT", "2015"),
        ],
    )
    venues = Table(
        "V",
        Schema.of("id", "title", "description", "rank", "frequency", "est"),
        [
            ("V1", "International Conference on Extending Database Technology",
             "Extending Database Technology", "1", "annual", "1984"),
            ("V2", "SIGMOD", "ACM SIGMOD Conference", "1", None, "1975"),
            ("V3", "ACM SIGMOD", None, "1", "annual", "1975"),
            ("V4", "EDBT", "International Conference on Extending Database Technology",
             None, "yearly", None),
            ("V5", "CIDR", "Conference on Innovative Data Systems Research", None, "biennial", "2002"),
            ("V6", "Conference on Innovative Data Systems Research", None, "2", "biyearly", "2002"),
        ],
    )
    return publications, venues


def engine_with_tables():
    publications, venues = motivating_tables()
    engine = QueryEREngine(match_threshold=0.70)
    engine.register(publications)
    engine.register(venues)
    return engine


def measure_order(clean_first: str) -> dict:
    """Run the SPJ with a forced cleaning order; return comparison counts."""
    from repro.core.planner import DedupQueryExecutor, DedupQueryPlanner
    from repro.sql.parser import parse
    from repro.sql.physical import ExecutionContext

    engine = engine_with_tables()
    plan = DedupQueryPlanner(engine).plan(parse(SQL), ExecutionMode.AES)
    plan.clean_first = clean_first  # force the order under study
    context = ExecutionContext()
    DedupQueryExecutor(engine)._execute_joins(plan, context)
    return {"clean_first": clean_first, "total": context.comparisons}


def test_table5_cleaning_order(benchmark, report):
    orders = benchmark.pedantic(
        lambda: [measure_order("P"), measure_order("V")], rounds=1, iterations=1
    )
    engine = engine_with_tables()
    chosen_plan = engine.plan_for(SQL, ExecutionMode.AES)

    rows = [
        [order["clean_first"], order["total"], "chosen" if order["clean_first"] == chosen_plan.clean_first else ""]
        for order in orders
    ]
    report(
        "table5_cleaning_order",
        format_table(
            ["Clean first", "Total comparisons", "AES choice"],
            rows,
            title=(
                "Table 5 — executed comparisons by cleaning order "
                f"(estimates: {chosen_plan.estimates})"
            ),
        ),
    )

    by_order = {order["clean_first"]: order["total"] for order in orders}
    chosen_cost = by_order[chosen_plan.clean_first]
    other_cost = by_order["P" if chosen_plan.clean_first == "V" else "V"]
    # The paper's point: the cost-based choice must not lose to the
    # alternative placement.
    assert chosen_cost <= other_cost
