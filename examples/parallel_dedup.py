"""Parallel DEDUP: sharding Comparison-Execution across a worker pool.

The same deduplicating query runs three ways — strictly serial, and on
2- and 4-worker pools (fork-based processes, threaded fallback where
fork is unavailable) — and the outputs are compared field by field.
The parallel execution subsystem guarantees they are *bit-identical*:
partitions are contiguous spans of the canonical candidate-pair order
and the merger recombines per-partition results in that same order, so
parallelism changes wall-clock time, never answers.

Speedup depends on the machine: with W usable cores the graph-build and
matching stages approach W-fold scaling, while on a single core the
parallel runs simply measure scheduling overhead.

Run:  python examples/parallel_dedup.py
"""

import time

from repro import ExecutionConfig, QueryEREngine
from repro.datagen import generate_people
from repro.parallel.config import usable_cores

SQL = (
    "SELECT DEDUP id, given_name, surname, state FROM PPL "
    "WHERE state IN ('nsw', 'vic', 'qld', 'wa', 'sa')"
)


def run(table, config: ExecutionConfig):
    engine = QueryEREngine(execution=config)
    engine.register(table)
    engine.clear_caches()  # cold caches: comparable timings
    start = time.perf_counter()
    result = engine.execute(SQL)
    elapsed = time.perf_counter() - start
    links = sorted(engine.index_of("PPL").link_index.links, key=repr)
    return result, links, elapsed


def main() -> None:
    people, _ = generate_people(3000, seed=7)
    cores = usable_cores()
    print(f"deduplicating {len(people)} dirty people records ({cores} usable cores)\n")

    configurations = [
        ("serial", ExecutionConfig.serial()),
        # min_parallel_pairs below the default so this mid-size demo
        # actually exercises the pool; production configs keep the
        # higher threshold and let small queries stay serial.
        ("2 workers", ExecutionConfig(workers=2, min_parallel_pairs=256)),
        ("4 workers", ExecutionConfig(workers=4, min_parallel_pairs=256)),
    ]

    baseline = None
    serial_elapsed = None
    for label, config in configurations:
        result, links, elapsed = run(people, config)
        state = (sorted(result.rows, key=repr), links, result.comparisons)
        if baseline is None:
            baseline, serial_elapsed = state, elapsed
            verdict = "(reference)"
        else:
            identical = state == baseline
            verdict = (
                f"bit-identical to serial, {serial_elapsed / elapsed:.2f}x"
                if identical
                else "DIVERGED — this is a bug"
            )
        print(
            f"{label:>9}: {len(result):>4} rows, {result.comparisons:>6} comparisons, "
            f"{len(links):>4} links, {elapsed:.3f}s  {verdict}"
        )

    print(
        "\nEvery configuration returns the same rows, links and comparison"
        "\ncount; `workers` (or the REPRO_WORKERS env var, or `repro"
        "\n--workers N`) only changes how fast they arrive."
    )


if __name__ == "__main__":
    main()
