"""Engine ≡ reference: DEDUP through the product path ≡ the naive one.

Columnar candidate derivation, the array-built blocking graph, interned
token signatures and the batched match cascade promise *exact* results
— not approximate ones.  These properties run the Deduplicate operator
on randomized tables twice, once as shipped and once as the dict
reference (dict blocking, dict-accumulated graph, scalar
``match_signatures`` loop), and require identical matches, clusters and
linksets; the array-built graph must equal the dict graph edge for edge.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference.dict_pipeline import (
    ReferenceGraph,
    block_object_graph,
    edge_pruning,
    reference_operator,
)

from repro.core.dedup_operator import DeduplicateOperator
from repro.core.indices import TableIndex
from repro.datagen import generate_people
from repro.er.blocking import BlockCollection
from repro.er.edge_pruning import WeightingScheme
from repro.er.meta_blocking import MetaBlockingConfig
from repro.storage.schema import Schema
from repro.storage.table import Table


def dedup(table, query_ids, fast: bool, meta_all: bool = True):
    index = TableIndex(table)
    config = MetaBlockingConfig.all() if meta_all else MetaBlockingConfig.none()
    if fast:
        operator = DeduplicateOperator(index, meta_blocking=config)
    else:
        operator = reference_operator(index, config)
    return operator.deduplicate(query_ids)


def assert_identical(fast_result, slow_result):
    assert fast_result.query_ids == slow_result.query_ids
    assert fast_result.duplicate_ids == slow_result.duplicate_ids
    assert fast_result.links == slow_result.links
    fast_clusters = sorted(sorted(map(repr, c)) for c in fast_result.clusters())
    slow_clusters = sorted(sorted(map(repr, c)) for c in slow_result.clusters())
    assert fast_clusters == slow_clusters


class TestGeneratedPeople:
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        size=st.integers(min_value=30, max_value=120),
        modulus=st.integers(min_value=2, max_value=5),
    )
    def test_dedup_identical_on_dirty_people(self, seed, size, modulus):
        table, _ = generate_people(size, seed=seed)
        query_ids = [row.id for row in table if row.id % modulus == 0]
        assert_identical(dedup(table, query_ids, True), dedup(table, query_ids, False))

    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=5_000))
    def test_dedup_identical_without_edge_pruning(self, seed):
        """Meta-blocking off exercises the raw-block comparison path."""
        table, _ = generate_people(60, seed=seed)
        query_ids = [row.id for row in table if row.id % 3 == 0]
        assert_identical(
            dedup(table, query_ids, True, meta_all=False),
            dedup(table, query_ids, False, meta_all=False),
        )


# Fully random tables: arbitrary text (shared small alphabet so blocks
# and near-matches form), NULLs, numeric attributes, duplicated values.
_words = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "acme corp", "acme", "smith", "smiht", "42"]
)
_value = st.one_of(
    st.none(),
    _words,
    st.tuples(_words, _words).map(lambda pair: " ".join(pair)),
    st.integers(min_value=0, max_value=99),
    st.text(alphabet="abcde ", max_size=12),
)
_rows = st.lists(st.tuples(_value, _value, _value), min_size=2, max_size=40)


class TestRandomTables:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=_rows, modulus=st.integers(min_value=1, max_value=4))
    def test_dedup_identical_on_random_tables(self, rows, modulus):
        table = Table(
            "R",
            Schema.of("id", "a", "b", "c"),
            [(i, *row) for i, row in enumerate(rows)],
        )
        query_ids = [row.id for position, row in enumerate(table) if position % modulus == 0]
        assert_identical(dedup(table, query_ids, True), dedup(table, query_ids, False))


# Random block collections, as in the meta-blocking properties.
_assignments = st.lists(
    st.tuples(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=40)),
    max_size=120,
)


class TestPackedGraph:
    """The array-built blocking graph ≡ the dict-accumulated reference."""

    @settings(max_examples=60, deadline=None)
    @given(pairs=_assignments, scheme=st.sampled_from(list(WeightingScheme)), focused=st.booleans())
    def test_weights_edges_and_pruning_identical(self, pairs, scheme, focused):
        collection = BlockCollection()
        for key, entity in pairs:
            collection.add(f"k{key}", f"e{entity}")
        focus = {f"e{i}" for i in range(0, 41, 3)} if focused else None
        packed = block_object_graph(collection, scheme=scheme, focus=focus)
        reference = ReferenceGraph(collection, scheme=scheme, focus=focus)
        assert len(packed) == len(reference)
        assert packed.nodes() == reference.nodes()
        packed_edges = list(packed.edges())
        reference_edges = list(reference.edges())
        assert packed_edges == reference_edges  # same order, bit-identical weights
        assert packed.average_weight() == reference.average_weight()
        for a, b, w in reference_edges[:20]:
            assert packed.weight(a, b) == w
            assert packed.weight(b, a) == w
        assert packed.retained_pairs(packed.average_weight()) == (
            edge_pruning(collection, scheme=scheme, focus=focus)
        )
