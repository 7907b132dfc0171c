"""Warm restart: snapshot a working engine, 'restart', skip the rebuild.

A 10,000-row dirty people table lives in an engine with checkpointing
enabled: the base snapshot is written up front, a committed ``INSERT
INTO`` batch appends an epoch-tagged delta segment (not a base
rewrite), and a final ``engine.save`` at graceful shutdown also
persists the Link-Index resolutions the queries built up.  "Restarting"
is just ``QueryEREngine.load`` — no re-tokenization, no blocking
rebuild, no re-matching of resolved entities — and the loaded engine
answers the benchmark query bit-identically to the engine it was saved
from, far faster than a cold re-registration.

Run:  python examples/warm_restart.py
"""

import tempfile
import time

from repro import QueryEREngine, Table
from repro.datagen import generate_people
from repro.persist import read_manifest, snapshot_size_bytes
from repro.sql.ast import Literal


def insert_sql(table: str, rows) -> str:
    rendered = ", ".join(
        "(" + ", ".join(str(Literal(value)) for value in row) + ")" for row in rows
    )
    return f"INSERT INTO {table} VALUES {rendered}"


def main() -> None:
    people, _ = generate_people(10000, seed=23)
    rows = [tuple(r.values) for r in people]
    base, delta = rows[:9950], rows[9950:]
    sql = "SELECT DEDUP id, given_name, surname FROM PPL WHERE state = 'nsw'"

    engine = QueryEREngine()
    engine.register(Table("PPL", people.schema, base, coerce=False))

    with tempfile.TemporaryDirectory() as directory:
        engine.enable_checkpointing(directory)  # writes the base snapshot
        engine.execute(insert_sql("PPL", delta))  # commit → delta checkpoint

        manifest = read_manifest(directory)
        entry = manifest["tables"]["ppl"]
        print(
            f"checkpoints: segments {[s['kind'] for s in entry['segments']]}, "
            f"epoch {entry['epoch']}, {snapshot_size_bytes(directory):,} bytes"
        )

        result = engine.execute(sql)  # resolves entities into the Link-Index
        engine.save(directory)  # graceful shutdown: persist that work too
        print(f"live query : {len(result)} rows, {result.comparisons:,} comparisons")

        # ── the process "restarts" here ──────────────────────────────
        started = time.perf_counter()
        warm = QueryEREngine.load(directory)
        warm_result = warm.execute(sql)
        warm_s = time.perf_counter() - started

        started = time.perf_counter()
        cold = QueryEREngine()
        cold.register(Table("PPL", people.schema, rows, coerce=False))
        cold_result = cold.execute(sql)
        cold_s = time.perf_counter() - started

        agree = (
            warm_result.sorted_rows()
            == cold_result.sorted_rows()
            == result.sorted_rows()
        )
        print(
            f"warm start : {warm_s:.2f}s to first answer "
            f"({warm_result.comparisons:,} comparisons — resolved entities reload)"
        )
        print(
            f"cold start : {cold_s:.2f}s to first answer "
            f"({cold_result.comparisons:,} comparisons re-executed)"
        )
        print(
            f"verdict    : {cold_s / max(warm_s, 1e-9):.1f}x faster warm — "
            + ("all three answers bit-identical" if agree else "MISMATCH")
        )


if __name__ == "__main__":
    main()
