"""Property: packed (columnar) blocking ≡ dict blocking, end to end.

The columnar blocking pipeline's contract: for any table, frontier and
meta-blocking configuration it derives the *same purge threshold*, the
*same retained per-entity keys*, the *same candidate-pair set* and the
*same DEDUP result* as the dict TBI pipeline — including after
``INSERT INTO`` postings deltas (no index rebuild) and at every worker
width.  These tests drive both pipelines over random tables, filter
ratios and append splits and compare every observable.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dedup_operator import DedupStats, DeduplicateOperator
from repro.core.engine import QueryEREngine
from repro.core.indices import TableIndex
from repro.datagen import generate_people
from repro.er.block_filtering import retained_assignment_mask, retained_keys
from repro.er.block_purging import purge_threshold, purge_threshold_from_sizes
from repro.er.blocking import BlockCollection, TokenPostings
from repro.er.meta_blocking import MetaBlockingConfig
from repro.er.tokenizer import TokenVocabulary
from repro.parallel import ExecutionConfig

CONFIGS = (
    MetaBlockingConfig.all(),
    MetaBlockingConfig.bp_bf(),
    MetaBlockingConfig.bp_ep(),
    MetaBlockingConfig.none(),
)

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


def engine_for(table, packed: bool, workers: int = 1) -> QueryEREngine:
    execution = (
        ExecutionConfig.serial()
        if workers == 1
        else ExecutionConfig(
            workers=workers,
            min_parallel_pairs=0,
            min_parallel_comparisons=0,
        )
    )
    engine = QueryEREngine(
        meta_blocking=MetaBlockingConfig(packed_blocking=packed),
        execution=execution,
    )
    engine.register(table)
    return engine


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
        vocabulary = TokenVocabulary()
        keys = collection.keys()
        token_ids = np.array([vocabulary.intern(k) for k in keys], dtype=np.int64)
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


class TestOperatorEquivalence:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        size=st.integers(min_value=30, max_value=120),
        seed=st.integers(min_value=0, max_value=2**16),
        config_index=st.integers(min_value=0, max_value=len(CONFIGS) - 1),
        filter_ratio=st.floats(min_value=0.3, max_value=1.0),
    )
    def test_packed_operator_equals_dict(self, size, seed, config_index, filter_ratio):
        """Same pairs, same stats, same duplicates, every configuration."""
        table, _ = generate_people(size, seed=seed)
        frontier = [row.id for row in table if row.id % 3 == 0]
        base = replace(CONFIGS[config_index], filter_ratio=filter_ratio)
        outcomes = []
        for packed in (True, False):
            index = TableIndex(table)
            operator = DeduplicateOperator(
                index,
                meta_blocking=replace(base, packed_blocking=packed),
                collect_candidates=True,
            )
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
        packed = observed(engine_for(table, packed=True, workers=workers), sql)
        plain = observed(engine_for(table, packed=False, workers=workers), sql)
        assert packed == plain

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

        The packed engine must match (a) the dict engine replaying the
        identical history and (b) a fresh packed engine registered with
        the grown table — i.e. the postings delta is equivalent to a
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

        def history(packed: bool):
            engine = engine_for(
                Table(table.name, table.schema, list(base_rows)), packed, workers
            )
            engine.execute(sql)  # prime postings, plans and the LI
            engine.insert("PPL", extra_rows)
            index = engine.index_of("PPL")
            if packed:
                assert index.postings_built
                assert index.postings.entity_count == size + batch
            return observed(engine, sql)

        packed_history = history(True)
        assert packed_history == history(False)
        fresh = engine_for(
            Table(table.name, table.schema, list(base_rows) + extra_rows),
            packed=True,
            workers=workers,
        )
        fresh_rows, _, _ = observed(fresh, sql)
        assert packed_history[0] == fresh_rows
