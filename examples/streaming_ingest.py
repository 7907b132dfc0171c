"""Streaming ingestion: an append → query → append loop on a live engine.

A feed of dirty person records arrives in small batches while an analyst
keeps querying.  Each ``INSERT INTO`` batch is absorbed with delta-aware
index maintenance (no TBI/ITBI rebuild) and targeted Link-Index
invalidation, so every query sees the records ingested so far — with
results identical to re-registering the grown table from scratch, at a
fraction of the cost (see ``benchmarks/test_incremental_ingest.py``).

Run:  python examples/streaming_ingest.py
"""

from repro import QueryEREngine, Table
from repro.datagen import generate_people
from repro.sql.ast import Literal


def insert_sql(table: str, rows) -> str:
    rendered = ", ".join(
        "(" + ", ".join(str(Literal(value)) for value in row) + ")" for row in rows
    )
    return f"INSERT INTO {table} VALUES {rendered}"


def main() -> None:
    people, _ = generate_people(1200, seed=19)
    rows = [tuple(r.values) for r in people]
    base, feed = rows[:900], rows[900:]

    engine = QueryEREngine()
    engine.register(Table("PPL", people.schema, base, coerce=False))
    print(f"registered {len(base)} rows; {len(feed)} more will stream in\n")

    sql = "SELECT DEDUP id, given_name, surname FROM PPL WHERE state = 'nsw'"
    batch_size = 60
    for step in range(0, len(feed), batch_size):
        batch = feed[step : step + batch_size]
        result = engine.execute(sql)
        print(
            f"query  : {len(result):>4} rows, {result.comparisons:>6} comparisons, "
            f"{result.elapsed:.3f}s"
        )
        ingest = engine.execute(insert_sql("PPL", batch))
        inserted, touched, invalidated = ingest.rows[0]
        print(
            f"ingest : +{inserted} rows in {ingest.elapsed:.3f}s — "
            f"{touched} blocks touched, {invalidated} entities un-resolved"
        )

    final = engine.execute(sql)
    fresh = QueryEREngine()
    fresh.register(Table("PPL", people.schema, rows, coerce=False))
    fresh_result = fresh.execute(sql)
    print(
        f"\nfinal  : {len(final)} rows after {len(feed)} streamed records; "
        f"fresh re-registration returns {len(fresh_result)} rows — "
        + ("results agree" if final.sorted_rows() == fresh_result.sorted_rows() else "MISMATCH")
    )


if __name__ == "__main__":
    main()
