"""Property: parallel DEDUP ≡ serial DEDUP, bit for bit.

The parallel execution subsystem's contract is that sharded
Comparison-Execution — blocking-graph construction and pair matching on
resident shard workers — produces *bit-identical* output to the serial
fast path: the same match sets, the same link sets, the same edge
weights, the same result rows.  These tests check that contract across
workers ∈ {1, 2, 4} and — because a shard missing a committed delta
is the subsystem's one way to go quietly wrong — across ``INSERT INTO``
boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference.dict_pipeline import retained_pairs

from repro.core.engine import QueryEREngine
from repro.datagen import generate_people
from repro.er.edge_pruning import WeightingScheme
from repro.er.packed_blocking import _span_graph
from repro.parallel import ExecutionConfig
from repro.parallel.config import fork_available

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="shard workers need fork"
)

WORKER_COUNTS = (1, 2, 4)


def forced_parallel(workers: int) -> ExecutionConfig:
    """Thresholds at zero: even tiny hypothesis tables take the shards."""
    return ExecutionConfig(
        workers=workers,
        min_parallel_pairs=0,
        min_parallel_comparisons=0,
    )


def observed_state(engine: QueryEREngine, sql: str):
    """(sorted rows, sorted links, comparisons) of one cold execution."""
    result = engine.execute(sql)
    links = engine.index_of("PPL").link_index.links
    return (
        sorted(result.rows, key=repr),
        sorted(links, key=repr),
        result.comparisons,
    )


def fresh_engine(table, workers: int) -> QueryEREngine:
    config = ExecutionConfig.serial() if workers == 1 else forced_parallel(workers)
    engine = QueryEREngine(execution=config)
    engine.register(table)
    return engine


def observe_once(table, workers: int, sql: str):
    with fresh_engine(table, workers) as engine:
        return observed_state(engine, sql)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    size=st.integers(min_value=40, max_value=160),
    seed=st.integers(min_value=0, max_value=2**16),
    state_filter=st.booleans(),
)
def test_parallel_dedup_equals_serial(size, seed, state_filter):
    """Same rows, same links, same comparison count at every width."""
    table, _ = generate_people(size, seed=seed)
    sql = (
        "SELECT DEDUP id, given_name, surname, state FROM PPL"
        + (" WHERE state IN ('nsw', 'vic', 'qld')" if state_filter else "")
    )
    baseline = observe_once(table, 1, sql)
    for workers in WORKER_COUNTS[1:]:
        got = observe_once(table, workers, sql)
        assert got == baseline, f"workers={workers} diverged from serial"


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    size=st.integers(min_value=40, max_value=120),
    seed=st.integers(min_value=0, max_value=2**16),
    batch=st.integers(min_value=1, max_value=8),
)
def test_parallel_dedup_after_insert_equals_serial(size, seed, batch):
    """query → INSERT INTO → query: every width sees the serial answers.

    Each worker width replays the *identical* engine history (register,
    prime, append, re-query), so any divergence is the parallel
    subsystem's — in particular resident shard state that missed the
    append.  The appended rows are generated from a different seed, so
    some land in blocks shared with pre-existing entities: exactly the
    pairs stale state would drop.
    """
    table, _ = generate_people(size, seed=seed)
    extra, _ = generate_people(batch, seed=seed + 1)
    sql = "SELECT DEDUP id, given_name, surname, state FROM PPL"
    base_rows = [row.values for row in table]
    # Re-id the appended batch past the base range: generated ids start
    # at 1 and must not collide with pre-existing records.
    extra_rows = [
        (size + 1000 + i,) + tuple(row.values[1:]) for i, row in enumerate(extra)
    ]
    Table = type(table)

    def history(workers: int):
        with fresh_engine(
            Table(table.name, table.schema, list(base_rows)), workers
        ) as engine:
            primed = engine.execute(sql)  # prime caches and spawn the shards
            engine.insert("PPL", extra_rows)
            result = engine.execute(sql)
            links = engine.index_of("PPL").link_index.links
            return (
                sorted(primed.rows, key=repr),
                sorted(result.rows, key=repr),
                sorted(links, key=repr),
                result.comparisons,
            )

    reference = history(1)
    for workers in WORKER_COUNTS[1:]:
        assert history(workers) == reference, (
            f"workers={workers} diverged after insert"
        )


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    blocks=st.integers(min_value=1, max_value=60),
    scheme=st.sampled_from(list(WeightingScheme)),
)
def test_sharded_span_graph_is_bit_identical(seed, blocks, scheme):
    """Edge keys, weights and retained pairs match the serial build exactly."""
    rng = np.random.default_rng(seed)
    n = 300
    sizes = rng.integers(2, 40, size=blocks)
    indptr = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    members = np.concatenate(
        [rng.choice(n, size=int(size), replace=False) for size in sizes]
    ).astype(np.int64)
    universe = list(range(n))
    index_of = {entity: entity for entity in universe}
    in_focus = bytearray((rng.random(n) < 0.3).astype(np.uint8).tobytes())
    serial = _span_graph(
        members, indptr, sizes, universe, index_of, scheme, in_focus, blocks, None
    )
    table, _ = generate_people(20, seed=seed)
    for workers in WORKER_COUNTS[1:]:
        with fresh_engine(table, workers) as engine:
            executor = engine.parallel_executor
            sharded = _span_graph(
                members, indptr, sizes, universe, index_of, scheme, in_focus,
                blocks, executor,
            )
            assert executor.stats["parallel_graph_builds"] == 1
        assert list(serial.edges()) == list(sharded.edges())
        assert serial.average_weight() == sharded.average_weight()
        threshold = serial.average_weight()
        assert retained_pairs(serial, threshold) == retained_pairs(sharded, threshold)


@pytest.mark.parametrize("workers", WORKER_COUNTS[1:])
def test_larger_table_equals_serial(workers):
    table, _ = generate_people(300, seed=1234)
    sql = "SELECT DEDUP id, given_name, surname, state FROM PPL"
    assert observe_once(table, workers, sql) == observe_once(table, 1, sql)


def test_insert_then_sharded_dedup_matches_serial():
    """Four shards, ten appended rows: still the serial answer."""
    table, _ = generate_people(200, seed=77)
    base_rows = [row.values for row in table]
    extra, _ = generate_people(10, seed=78)
    sql = "SELECT DEDUP id, given_name, surname, state FROM PPL"
    extra_rows = [(2000 + i,) + tuple(row.values[1:]) for i, row in enumerate(extra)]
    Table = type(table)

    def history(workers: int):
        with fresh_engine(
            Table(table.name, table.schema, list(base_rows)), workers
        ) as engine:
            engine.execute(sql)
            engine.insert("PPL", extra_rows)
            return observed_state(engine, sql)

    assert history(4) == history(1)
