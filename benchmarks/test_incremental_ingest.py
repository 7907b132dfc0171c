"""Incremental ingest vs. full re-registration (new-subsystem study).

For each append ratio r over a dirty people table of N rows: register
the first N·(1−r) rows, resolve them once (warm Link Index — the
progressive-cleaning state a live system accumulates), then let the
remaining N·r rows arrive as one ``INSERT`` batch.

* **Incremental** — delta-aware maintenance (``engine.insert``: storage
  append, TBI/ITBI amendment, targeted LI invalidation) plus the
  follow-up whole-table DEDUP query, which only re-resolves the
  invalidated and new entities.
* **Full** — what the frozen seed engine would require: re-register the
  grown table from scratch (index rebuild) and re-resolve the same query
  with a cold Link Index.

Small append ratios (≤10%) must favour the incremental path: its cost
tracks the batch, not the table.
"""

import time

from repro.cli import format_table
from repro.datagen import generate_people
from repro.storage.table import Table

from _support.datasets import SCALE
from _support.harness import fresh_engine, run_query

RATIOS = (0.01, 0.05, 0.10, 0.25)
QUERY = "SELECT DEDUP id, surname, state FROM PPL"
N_ROWS = max(300, int(600 * SCALE))


def run_study():
    table, _ = generate_people(N_ROWS, seed=29)
    rows = [tuple(r.values) for r in table]
    results = []
    for ratio in RATIOS:
        appended = max(1, int(N_ROWS * ratio))
        split = N_ROWS - appended

        engine = fresh_engine([Table("PPL", table.schema, rows[:split], coerce=False)])
        run_query(engine, "warm", "PPL", QUERY, "aes", reset_link_index=False)
        outcome = engine.insert("PPL", rows[split:])
        incremental = run_query(
            engine, f"inc@{ratio:.0%}", "PPL", QUERY, "aes", reset_link_index=False
        )

        start = time.perf_counter()
        full_engine = fresh_engine([Table("PPL", table.schema, rows, coerce=False)])
        register_time = time.perf_counter() - start
        full = run_query(
            full_engine, f"full@{ratio:.0%}", "PPL", QUERY, "aes", reset_link_index=False
        )

        results.append((ratio, outcome, incremental, full, register_time))
    return results


def test_incremental_ingest(benchmark, report):
    results = benchmark.pedantic(run_study, rounds=1, iterations=1)
    table_rows = []
    for ratio, outcome, incremental, full, register_time in results:
        incremental_total = outcome.elapsed + incremental.total_time
        full_total = register_time + full.total_time
        table_rows.append(
            [
                f"{ratio:.0%}",
                outcome.inserted,
                outcome.invalidated,
                round(outcome.elapsed, 4),
                round(incremental.total_time, 4),
                round(incremental_total, 4),
                round(register_time, 4),
                round(full.total_time, 4),
                round(full_total, 4),
                round(full_total / incremental_total, 1) if incremental_total else float("inf"),
            ]
        )
    report(
        "incremental_ingest",
        format_table(
            [
                "append", "rows", "invalidated", "maintain", "inc query",
                "inc total", "re-register", "full query", "full total", "speedup",
            ],
            table_rows,
            title=(
                f"Incremental ingest vs full re-registration — "
                f"{N_ROWS}-row PPL, warm LI, one batch per ratio"
            ),
        ),
    )
    for ratio, outcome, incremental, full, register_time in results:
        if ratio <= 0.10:
            assert outcome.elapsed + incremental.total_time < register_time + full.total_time, (
                f"incremental path lost at append ratio {ratio:.0%}"
            )
