"""Resident worker shards: warm repeated queries without per-query forks.

Serves the same DEDUP workload two ways — serial (the engine default)
and on two resident shard workers (``ExecutionConfig(workers=2)``) —
and shows:

* identical results (rows, comparisons) on both paths;
* the shard runtime paying its fork cost *once* (the cold query), then
  answering warm repetitions without forking again;
* ``INSERT INTO`` keeping resident workers current via epoch-tagged
  delta segments (watch ``deltas_published`` and ``delta_lag``) — each
  insert waits for every live shard to apply the batch;
* the per-shard observability block (also exported at ``/metrics`` by
  ``repro serve --workers N`` and in ``EXPLAIN ANALYZE`` scheduling
  lines).

Run:  python examples/sharded_serving.py
"""

import time

from repro import QueryEREngine
from repro.datagen import generate_people
from repro.parallel import ExecutionConfig

SQL = "SELECT DEDUP id, given_name, surname, state FROM PPL"
WARM_QUERIES = 4


def build_engine(mode: str) -> QueryEREngine:
    table, _ = generate_people(1500, seed=90, name="PPL")
    if mode == "serial":
        execution = ExecutionConfig.serial()
    else:
        execution = ExecutionConfig(
            workers=2,
            min_parallel_pairs=256,
            min_parallel_comparisons=4096,
        )
    engine = QueryEREngine(execution=execution)
    engine.register(table)
    return engine


def warm_loop(engine: QueryEREngine) -> tuple:
    """Cold query, then warm repetitions with caches cleared between."""
    start = time.perf_counter()
    result = engine.execute(SQL)
    cold = time.perf_counter() - start
    times = []
    for _ in range(WARM_QUERIES):
        engine.clear_caches()  # every repetition re-runs Comparison-Execution
        start = time.perf_counter()
        result = engine.execute(SQL)
        times.append(time.perf_counter() - start)
    return cold, min(times), result


def main() -> None:
    print(f"Workload: {SQL}")
    print(f"{'mode':>8}  {'cold s':>8}  {'warm s':>8}  rows  comparisons")
    reference = None
    engines = {}
    for mode in ("serial", "shards"):
        engine = build_engine(mode)
        engines[mode] = engine
        cold, warm, result = warm_loop(engine)
        print(
            f"{mode:>8}  {cold:8.3f}  {warm:8.3f}  {len(result):>4}  "
            f"{result.comparisons:>11}"
        )
        if reference is None:
            reference = (len(result), result.comparisons)
        else:
            assert (len(result), result.comparisons) == reference, mode
    print("both paths returned identical results\n")

    # Delta shipping: the insert commits, then fans out to resident
    # workers as a self-contained columnar segment — no respawn.
    shards = engines["shards"]
    shards.execute(
        "INSERT INTO PPL VALUES (9001, 'jamie', 'smyth', '12', 'high street', "
        "'sydney', '2000', 'nsw', '1983-04-12', '43', '02 5550 1234', "
        "'jamie.smyth@example.org', 'acme pty')"
    )
    shards.clear_caches()
    shards.execute(SQL)
    status = shards.parallel_executor.shard_status()
    print("shard runtime after INSERT INTO:")
    print(
        f"  alive={status['alive']}/{status['workers']}  "
        f"spawns={status['spawns']}  respawns={status['respawns']}  "
        f"deltas_published={status['deltas_published']}"
    )
    for shard in status["shards"]:
        print(
            f"  shard {shard['id']}: tasks={shard['tasks']} "
            f"deltas={shard['deltas']} delta_lag={shard['delta_lag']}"
        )

    for engine in engines.values():
        engine.close()  # joins workers, closes pipes — deterministic teardown
    print("\nengines closed; all shard workers reaped")


if __name__ == "__main__":
    main()
