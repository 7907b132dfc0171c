"""Parallel DEDUP: Comparison-Execution on resident shard workers.

The same deduplicating query runs three ways — serial (the engine
default), and on engines with 2 and 4 resident shard workers — and the
outputs are compared field by field.  The parallel execution subsystem
guarantees they are *bit-identical*: match decisions are pure functions
of two signatures, and graph-build spans are contiguous block ranges
the merger recombines in block order, so workers change wall-clock
time, never answers.

Speedup depends on the machine and the query: the matcher's array
cascade settles most candidate pairs in the calling process, so only a
large scalar remainder is worth shipping, and on few cores the shard
runs mostly measure the one-time fork and the routing overhead.

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
    with QueryEREngine(execution=config) as engine:
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
        # actually exercises the shards; production configs keep the
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
        "\n--workers N`) only changes where the work runs."
    )


if __name__ == "__main__":
    main()
