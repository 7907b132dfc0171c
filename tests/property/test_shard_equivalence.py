"""Property: sharded DEDUP ≡ serial DEDUP, bit for bit, under churn.

The persistent shard runtime replays Comparison-Execution on long-lived
hash-partitioned workers whose resident state advances by epoch-tagged
delta segments.  Its contract: the same rows, links and comparison
counts as a serial run — across worker
widths, across ``INSERT INTO`` boundaries (where stale shard state is
the one new way to go quietly wrong), and across injected spawn/task
faults (where the serial-retry recovery path must preserve the bits it
recomputes).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import QueryEREngine
from repro.datagen import generate_people
from repro.parallel import ExecutionConfig
from repro.parallel.config import fork_available
from repro.resilience import FaultPlan, clear_plan, install_plan
from repro.storage.table import Table

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="persistent shards need the fork backend"
)

WORKER_COUNTS = (1, 2, 4)
SQL = "SELECT DEDUP id, given_name, surname, state FROM PPL"


@pytest.fixture(autouse=True)
def _clean_faults():
    clear_plan()
    yield
    clear_plan()


def sharded_config(workers: int) -> ExecutionConfig:
    """Thresholds at the floor: tiny hypothesis tables take the shards."""
    return ExecutionConfig(
        workers=workers,
        min_parallel_pairs=1,
        min_parallel_comparisons=1,
    )


def build_engine(table: Table, workers: int) -> QueryEREngine:
    config = (
        ExecutionConfig.serial() if workers == 1 else sharded_config(workers)
    )
    engine = QueryEREngine(execution=config)
    engine.register(table)
    return engine


def history(table: Table, insert_batches, workers: int):
    """Replay register → query → (insert → query)* and observe the bits.

    Every worker width replays the identical engine history; the
    observation covers result rows, link sets and comparison counts at
    each step — any divergence is the shard runtime's.
    """
    engine = build_engine(
        Table(table.name, table.schema, [row.values for row in table]), workers
    )
    try:
        observed = []

        def observe():
            result = engine.execute(SQL)
            links = engine.index_of("PPL").link_index.links
            observed.append(
                (
                    sorted(result.rows, key=repr),
                    sorted(links, key=repr),
                    result.comparisons,
                )
            )

        observe()
        for batch in insert_batches:
            engine.insert("PPL", batch)
            observe()
        return observed
    finally:
        engine.close()


def insert_batches(size: int, seed: int, batches: int, batch_size: int):
    """Deterministic append batches, ids disjoint from the base table."""
    out = []
    next_id = size + 1000
    for b in range(batches):
        extra, _ = generate_people(batch_size, seed=seed + 17 * (b + 1))
        rows = []
        for row in extra:
            rows.append((next_id,) + tuple(row.values[1:]))
            next_id += 1
        out.append(rows)
    return out


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    size=st.integers(min_value=40, max_value=140),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_sharded_dedup_equals_serial(size, seed):
    """Cold query: every worker width carries the serial bits."""
    table, _ = generate_people(size, seed=seed)
    reference = history(table, [], 1)
    for workers in WORKER_COUNTS[1:]:
        assert history(table, [], workers) == reference, (
            f"workers={workers} diverged from serial"
        )


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    size=st.integers(min_value=40, max_value=110),
    seed=st.integers(min_value=0, max_value=2**16),
    batches=st.integers(min_value=1, max_value=3),
    batch_size=st.integers(min_value=1, max_value=6),
)
def test_sharded_dedup_with_interleaved_inserts(size, seed, batches, batch_size):
    """query → (INSERT INTO → query)*: deltas keep every width identical.

    The appended rows come from different seeds, so some land in blocks
    shared with resident entities — exactly the pairs a stale or
    mis-applied delta segment would match differently.
    """
    table, _ = generate_people(size, seed=seed)
    extra = insert_batches(size, seed, batches, batch_size)
    reference = history(table, extra, 1)
    for workers in WORKER_COUNTS[1:]:
        assert history(table, extra, workers) == reference, (
            f"workers={workers} diverged across {batches} insert batches"
        )


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    size=st.integers(min_value=40, max_value=100),
    seed=st.integers(min_value=0, max_value=2**16),
    fault=st.sampled_from(
        [
            "shard.spawn:times=1",
            "shard.spawn:times=inf",
            "shard.task:times=1",
            "shard.task:times=3",
        ]
    ),
)
def test_sharded_dedup_survives_faults_bit_identical(size, seed, fault):
    """Injected spawn/task faults degrade the *path*, never the bits.

    The plan is armed before engine construction so forked workers
    inherit it (``times=N`` counters are per-process copies).  Spawn
    faults push work to the parent's serial path; task faults trigger
    the parent's serial bucket retry — both must reproduce the serial
    answer exactly.
    """
    table, _ = generate_people(size, seed=seed)
    extra = insert_batches(size, seed, 1, 3)
    reference = history(table, extra, 1)
    install_plan(FaultPlan.parse(f"seed={seed % 1000},{fault}"))
    try:
        for workers in (2, 4):
            assert history(table, extra, workers) == reference, (
                f"workers={workers} diverged under fault {fault!r}"
            )
    finally:
        clear_plan()


@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    size=st.integers(min_value=40, max_value=90),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_sharded_dedup_survives_delta_faults(size, seed):
    """A failed delta ship kills the shard; the respawn carries the bits."""
    table, _ = generate_people(size, seed=seed)
    extra = insert_batches(size, seed, 2, 3)
    reference = history(table, extra, 1)
    install_plan(FaultPlan.parse("shard.delta:times=1"))
    try:
        assert history(table, extra, 2) == reference
    finally:
        clear_plan()
