"""Property: columnar candidate derivation ≡ the dict reference, exactly.

The contract of :func:`~repro.er.packed_blocking.derive_candidates`: for
any table, frontier and meta-blocking configuration it derives the
*same purge threshold*, the *same retained per-entity keys*, the *same
candidate-pair set*, the *same Edge-Pruning weights* (compared with
``==``: both sides sum in ascending token-id block order) and therefore
the *same DEDUP result* as the dict reference in
``tests/reference/dict_pipeline.py`` — including after ``INSERT INTO``
postings deltas (no index rebuild) and at every worker width.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference.dict_pipeline import (
    candidate_pairs,
    purge_threshold,
    reference_engine,
    reference_graph,
    reference_operator,
    retained_keys,
)

from repro.core.dedup_operator import DedupStats, DeduplicateOperator
from repro.core.engine import QueryEREngine
from repro.core.indices import TableIndex
from repro.datagen import generate_dsd, generate_oagp, generate_organizations, generate_people
from repro.er import packed_blocking
from repro.er.block_filtering import retained_assignment_mask
from repro.er.block_purging import purge_threshold_from_sizes
from repro.er.blocking import BlockCollection
from repro.er.edge_pruning import WeightingScheme
from repro.er.meta_blocking import MetaBlockingConfig
from repro.parallel import ExecutionConfig
from repro.parallel.config import fork_available

CONFIGS = (
    MetaBlockingConfig.all(),
    MetaBlockingConfig.bp_bf(),
    MetaBlockingConfig.bp_ep(),
    MetaBlockingConfig.none(),
)

#: Every configuration, and every weighting where Edge Pruning runs.
WEIGHTED_CONFIGS = tuple(
    replace(config, weighting=scheme)
    for config in CONFIGS
    for scheme in (WeightingScheme if config.pruning else (WeightingScheme.ARCS,))
)

DATASETS = {
    "people": generate_people,
    "papers": generate_oagp,
    "organisations": generate_organizations,
    "dsd": generate_dsd,
}

# Random block collections: key index → subset of a small entity universe.
assignments = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=25)
    ),
    max_size=80,
)


def build_collection(pairs) -> BlockCollection:
    collection = BlockCollection()
    for key, entity in pairs:
        collection.add(f"k{key}", f"e{entity}")
    return collection


def execution_for(workers: int) -> ExecutionConfig:
    """Serial, or *workers* shards with every threshold at the floor."""
    if workers == 1:
        return ExecutionConfig.serial()
    return ExecutionConfig(workers=workers, min_parallel_pairs=0, min_parallel_comparisons=0)


def observed(engine: QueryEREngine, sql: str):
    """(sorted rows, sorted links, comparisons) of a last execution;
    closes the engine (its shard workers, when it has any)."""
    with engine:
        result = engine.execute(sql)
        links = engine.index_of("PPL").link_index.links
        return (
            sorted(result.rows, key=repr),
            sorted(links, key=repr),
            result.comparisons,
        )


def derive_with_graph(index, frontier, config, executor=None):
    """``derive_candidates`` plus the Edge-Pruning graph it weighed."""
    graphs = []
    span_graph = packed_blocking._span_graph

    def spy(*args):
        graphs.append(span_graph(*args))
        return graphs[-1]

    with mock.patch.object(packed_blocking, "_span_graph", spy):
        derived = packed_blocking.derive_candidates(
            index.postings, frontier, config, executor=executor
        )
    return derived, graphs[0] if graphs else None


def assert_derivation_equals_reference(index, frontier, config, executor=None):
    derived, graph = derive_with_graph(index, frontier, config, executor)
    expected = candidate_pairs(index, frontier, config)
    assert set(derived.pairs) == set(expected.pairs)
    assert len(derived.pairs) == len(expected.pairs)
    assert (
        derived.qbi_blocks,
        derived.eqbi_blocks,
        derived.comparisons_before,
        derived.comparisons_after,
    ) == (
        expected.qbi_blocks,
        expected.eqbi_blocks,
        expected.comparisons_before,
        expected.comparisons_after,
    )
    if graph is not None:
        reference = reference_graph(index, frontier, config)
        assert list(graph.edges()) == list(reference.edges())  # weights under ==
        assert graph.average_weight() == reference.average_weight()


class TestStageEquivalence:
    @given(assignments)
    def test_packed_purge_threshold_equals_dict(self, pairs):
        collection = build_collection(pairs).non_singleton()
        sizes = np.array([block.size for block in collection], dtype=np.int64)
        assert purge_threshold_from_sizes(sizes) == purge_threshold(collection)

    @given(assignments, st.floats(min_value=0.05, max_value=1.0))
    def test_packed_filter_retains_dict_keys(self, pairs, ratio):
        """Per-entity retained keys match the dict path, any ratio."""
        collection = build_collection(pairs)
        expected = retained_keys(collection, ratio=ratio)
        # Flatten the collection into the packed path's assignment arrays.
        keys = collection.keys()
        entity_index = {e: i for i, e in enumerate(sorted(collection.entity_ids()))}
        entities, sizes, ranks = [], [], []
        rank_of = {k: r for r, k in enumerate(sorted(keys))}
        flat = []  # (key, entity) per assignment, aligned with the arrays
        for key in keys:
            block = collection.get(key)
            for entity in block.entities:
                entities.append(entity_index[entity])
                sizes.append(block.size)
                ranks.append(rank_of[key])
                flat.append((key, entity))
        mask = retained_assignment_mask(
            np.array(entities, dtype=np.int64),
            np.array(sizes, dtype=np.int64),
            np.array(ranks, dtype=np.int64),
            ratio,
        )
        got = {}
        for keep, (key, entity) in zip(mask.tolist(), flat):
            if keep:
                got.setdefault(entity, set()).add(key)
        assert got == {e: set(k) for e, k in expected.items()}

    def test_filter_ratio_validation_matches_dict(self):
        with pytest.raises(ValueError):
            retained_assignment_mask(
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                0.0,
            )
        with pytest.raises(ValueError):
            retained_keys(BlockCollection(), ratio=0.0)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("inserted", [False, True], ids=["registered", "inserted"])
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_pairs_and_weights_equal_reference(dataset, inserted, workers):
    """Datasets × configurations × weightings × inserts × workers: the
    same pairs and stage counts, and graph weights equal under ``==``."""
    if workers > 1 and not fork_available():
        pytest.skip("shard workers need fork")
    table, _ = DATASETS[dataset](150, seed=5)
    rows = [row.values for row in table]
    base = len(rows) if not inserted else len(rows) * 4 // 5
    with QueryEREngine(execution=execution_for(workers)) as engine:
        engine.register(type(table)(table.name, table.schema, rows[:base]))
        index = engine.index_of(table.name)
        if inserted:
            index.postings  # built before the insert: the rows arrive as a delta
            engine.insert(table.name, rows[base:])
        ids = list(index.table.ids)
        frontiers = (set(ids[::3]), set(ids))
        for config in WEIGHTED_CONFIGS:
            for frontier in frontiers:
                assert_derivation_equals_reference(
                    index, frontier, config, engine.parallel_executor
                )
        if workers > 1:
            assert engine.parallel_executor.stats["parallel_graph_builds"] > 0


class TestOperatorEquivalence:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        size=st.integers(min_value=30, max_value=120),
        seed=st.integers(min_value=0, max_value=2**16),
        config_index=st.integers(min_value=0, max_value=len(WEIGHTED_CONFIGS) - 1),
        filter_ratio=st.floats(min_value=0.3, max_value=1.0),
    )
    def test_packed_operator_equals_dict(self, size, seed, config_index, filter_ratio):
        """Same pairs, same stats, same duplicates, every configuration."""
        table, _ = generate_people(size, seed=seed)
        frontier = [row.id for row in table if row.id % 3 == 0]
        config = replace(WEIGHTED_CONFIGS[config_index], filter_ratio=filter_ratio)
        outcomes = []
        for operator in (
            DeduplicateOperator(TableIndex(table), meta_blocking=config, collect_candidates=True),
            reference_operator(TableIndex(table), config, collect_candidates=True),
        ):
            stats = DedupStats()
            result = operator.deduplicate(frontier, stats=stats)
            outcomes.append(
                (
                    result.duplicate_ids,
                    sorted(result.links, key=repr),
                    set(stats.candidate_pairs),
                    stats.qbi_blocks,
                    stats.eqbi_blocks,
                    stats.eqbi_comparisons_before,
                    stats.eqbi_comparisons_after,
                    stats.executed_comparisons,
                    stats.matches_found,
                )
            )
        assert outcomes[0] == outcomes[1]


class TestEngineEquivalence:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        size=st.integers(min_value=40, max_value=120),
        seed=st.integers(min_value=0, max_value=2**16),
        workers=st.sampled_from([1, 2]),
    )
    def test_packed_engine_equals_dict(self, size, seed, workers):
        table, _ = generate_people(size, seed=seed)
        sql = "SELECT DEDUP id, given_name, surname, state FROM PPL"
        engine = QueryEREngine(execution=execution_for(workers))
        engine.register(table)
        reference = reference_engine()
        reference.register(table)
        assert observed(engine, sql) == observed(reference, sql)

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        size=st.integers(min_value=40, max_value=100),
        seed=st.integers(min_value=0, max_value=2**16),
        batch=st.integers(min_value=1, max_value=8),
        workers=st.sampled_from([1, 2]),
    )
    def test_insert_delta_equals_dict_and_fresh(self, size, seed, batch, workers):
        """register → query → INSERT → query with postings deltas.

        The engine must match (a) the reference engine replaying the
        identical history and (b) a fresh engine registered with the
        grown table — i.e. the postings delta is equivalent to a
        rebuild without ever performing one.
        """
        table, _ = generate_people(size, seed=seed)
        extra, _ = generate_people(batch, seed=seed + 1)
        sql = "SELECT DEDUP id, given_name, surname, state FROM PPL"
        base_rows = [row.values for row in table]
        extra_rows = [
            (size + 1000 + i,) + tuple(row.values[1:]) for i, row in enumerate(extra)
        ]
        Table = type(table)

        def history(engine):
            engine.register(Table(table.name, table.schema, list(base_rows)))
            engine.execute(sql)  # prime postings, plans and the LI
            engine.insert("PPL", extra_rows)
            index = engine.index_of("PPL")
            assert index.postings_built
            assert index.postings.entity_count == size + batch
            return observed(engine, sql)

        engine_history = history(QueryEREngine(execution=execution_for(workers)))
        assert engine_history == history(reference_engine())
        fresh = QueryEREngine(execution=execution_for(workers))
        fresh.register(Table(table.name, table.schema, list(base_rows) + extra_rows))
        fresh_rows, _, _ = observed(fresh, sql)
        assert engine_history[0] == fresh_rows
