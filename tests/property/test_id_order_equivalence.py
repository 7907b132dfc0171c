"""Property: candidate derivation follows the table's id order, not its dense order.

:func:`~repro.er.packed_blocking.derive_candidates` lays each round's
universe out in ascending entity-id order, read off the postings' rank
arrays (:meth:`~repro.er.blocking.TokenPostings.id_order`), which are
built on first use and merged with appended ids afterwards.  When the
append (dense) order and the id order differ — string ids as a CSV
gives them (``'10'`` sorts before ``'2'``), ids appended out of order,
an ``INSERT`` followed by a rolled-back ``INSERT`` and a different
``INSERT``, a snapshot load — the derivation must still equal the dict
reference in ``tests/reference/dict_pipeline.py``: the same pairs, the
same comparison counts and Edge-Pruning weights equal under ``==``.

Also here: Block Filtering's single-key mask against the three-key
``lexsort`` oracle it replaced, ties in |b| included.
"""

from __future__ import annotations

import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.dict_pipeline import candidate_pairs, lexsort_assignment_mask, reference_graph

from repro.core.engine import QueryEREngine
from repro.datagen import generate_people
from repro.datagen.people import people_schema
from repro.er import packed_blocking
from repro.er.block_filtering import retained_assignment_mask
from repro.er.blocking import TokenPostings
from repro.er.edge_pruning import WeightingScheme
from repro.er.meta_blocking import MetaBlockingConfig
from repro.er.tokenizer import TokenVocabulary
from repro.incremental import IngestError
from repro.resilience import FaultPlan, clear_plan, install_plan
from repro.storage.schema import Schema
from repro.storage.table import Table

CONFIGS = (
    MetaBlockingConfig.all(),
    replace(MetaBlockingConfig.all(), weighting=WeightingScheme.JS),
    MetaBlockingConfig.bp_bf(),
    MetaBlockingConfig.none(),
)


def people_rows(count: int, seed: int, ids) -> list:
    """*count* dirty people rows, the id column replaced by *ids*."""
    table, _ = generate_people(count, seed=seed)
    return [(entity_id,) + tuple(row.values[1:]) for entity_id, row in zip(ids, table)]


def people_table(rows) -> Table:
    """A people table typed by its ids: string ids get an all-string
    schema, as a CSV does, integer ids the generator's own."""
    schema = people_schema()
    if isinstance(rows[0][0], str):
        schema = Schema.of(*schema.names, id_column=schema.id_column)
    return Table("PPL", schema, rows)


def assert_id_order(postings: TokenPostings) -> None:
    """The rank arrays are the ascending order of the postings' ids."""
    dense_ids = postings.entity_ids_of(np.arange(postings.entity_count))
    rank, ids = postings.id_order()
    assert ids.tolist() == sorted(dense_ids)
    assert ids[rank].tolist() == dense_ids


def derive_with_graph(index, frontier, config):
    graphs = []
    span_graph = packed_blocking._span_graph

    def spy(*args):
        graphs.append(span_graph(*args))
        return graphs[-1]

    with mock.patch.object(packed_blocking, "_span_graph", spy):
        derived = packed_blocking.derive_candidates(index.postings, frontier, config)
    return derived, graphs[0] if graphs else None


def assert_equals_reference(engine: QueryEREngine) -> None:
    """Every configuration, over a third of the table and over all of it."""
    index = engine.index_of("PPL")
    assert_id_order(index.postings)
    ids = list(index.table.ids)
    for frontier in (set(ids[::3]), set(ids)):
        for config in CONFIGS:
            derived, graph = derive_with_graph(index, frontier, config)
            expected = candidate_pairs(index, frontier, config)
            assert sorted(derived.pairs) == sorted(expected.pairs)
            assert (derived.comparisons_before, derived.comparisons_after) == (
                expected.comparisons_before,
                expected.comparisons_after,
            )
            if graph is not None:
                reference = reference_graph(index, frontier, config)
                assert list(graph.edges()) == list(reference.edges())
                assert graph.average_weight() == reference.average_weight()


@pytest.fixture(autouse=True)
def _no_faults():
    clear_plan()
    yield
    clear_plan()


def test_string_ids_through_insert_rollback_insert():
    """CSV-style ids '1'…'N': the dense order is not the id order, and
    every step of an insert history keeps the derivation exact."""
    engine = QueryEREngine()
    engine.register(people_table(people_rows(100, 5, [str(i) for i in range(1, 101)])))
    assert engine.index_of("PPL").table.ids[:11] == [str(i) for i in range(1, 12)]
    assert_equals_reference(engine)

    engine.insert("PPL", people_rows(12, 6, [str(i) for i in range(101, 113)]))
    assert_equals_reference(engine)

    install_plan(FaultPlan().add("dml.before_commit"))
    with pytest.raises(IngestError):
        engine.insert("PPL", people_rows(8, 7, [str(i) for i in range(113, 121)]))
    clear_plan()
    assert engine.index_of("PPL").postings.entity_count == 112
    assert_equals_reference(engine)

    engine.insert("PPL", people_rows(8, 8, ["0", "05", "99a", "1000", "3x", "z", "113a", "9999"]))
    assert_equals_reference(engine)


def test_rolled_back_insert_before_the_merge():
    """A rollback while appended ids still await their merge: the order
    is rebuilt on the next read."""
    engine = QueryEREngine()
    engine.register(people_table(people_rows(80, 9, [str(i) for i in range(1, 81)])))
    engine.index_of("PPL").postings.id_order()
    engine.insert("PPL", people_rows(5, 10, ["81", "82", "83", "84", "85"]))
    install_plan(FaultPlan().add("dml.index_delta", after=2))
    with pytest.raises(IngestError):
        engine.insert("PPL", people_rows(5, 11, ["0", "9a", "90x", "900", "9000"]))
    clear_plan()
    assert_equals_reference(engine)


def test_ids_appended_out_of_order():
    """Integer ids registered shuffled, then inserted between existing ids."""
    rng = random.Random(3)
    base_ids = list(range(0, 240, 2))
    rng.shuffle(base_ids)
    engine = QueryEREngine()
    engine.register(people_table(people_rows(len(base_ids), 12, base_ids)))
    assert_equals_reference(engine)
    for batch in ([201, 3, 77], [-5, 119, 1], [999, 0 + 239]):
        engine.insert("PPL", people_rows(len(batch), 13 + batch[0] % 7, batch))
        assert_equals_reference(engine)


@pytest.mark.parametrize("inserted", [False, True], ids=["base", "base+delta"])
def test_snapshot_load(tmp_path, inserted):
    """String ids through a snapshot: the loaded postings rebuild their
    order, and an insert after the load merges into it."""
    directory = tmp_path / "snapshot"
    with QueryEREngine() as engine:
        engine.register(people_table(people_rows(90, 14, [str(i) for i in range(1, 91)])))
        engine.enable_checkpointing(directory)
        if inserted:
            engine.insert("PPL", people_rows(10, 15, [str(i) for i in range(91, 101)]))
    with QueryEREngine.load(directory) as loaded:
        assert_equals_reference(loaded)
        loaded.insert("PPL", people_rows(6, 16, ["100a", "5b", "55c", "555", "0", "x"]))
        assert_equals_reference(loaded)


def test_mixed_type_ids_order_by_repr():
    """Ids that do not compare fall back to ``repr`` order, table-wide,
    and stay there as ids are appended."""
    vocabulary = TokenVocabulary()
    postings = TokenPostings.build([(1, ["aa"]), ("b", ["aa"]), (3, ["bb"])], vocabulary)
    rank, ids = postings.id_order()
    assert ids.tolist() == sorted([1, "b", 3], key=repr)
    postings.add_entity(2, ["bb"])
    rank, ids = postings.id_order()
    assert ids.tolist() == sorted([1, "b", 3, 2], key=repr)
    assert ids[rank].tolist() == [1, "b", 3, 2]


def test_id_order_is_not_computed_inside_add_entity():
    """Appends only record the id; the merge waits for the next read."""
    vocabulary = TokenVocabulary()
    postings = TokenPostings.build([("b", ["aa"]), ("d", ["aa"])], vocabulary)
    postings.id_order()
    with mock.patch.object(TokenPostings, "_merge_ids") as merge:
        postings.add_entity("a", ["aa"])
        postings.add_entity("c", ["aa"])
    merge.assert_not_called()
    rank, ids = postings.id_order()
    assert ids.tolist() == ["a", "b", "c", "d"]
    assert rank.tolist() == [1, 3, 0, 2]


# -- Block Filtering against the three-key lexsort oracle ----------------------------
@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=40)),
        max_size=200,
    ),
    st.floats(min_value=0.05, max_value=1.0),
)
def test_single_key_filter_equals_lexsort_oracle(assignments, ratio):
    """Blocks ranked once by (|b|, key) and one sort of ``entity · B +
    rank`` keep the same assignments as the three-key ``lexsort``.

    Keys are drawn from a few dozen blocks over a small universe, so
    many blocks share a size and the key string decides."""
    blocks = {}
    for key, entity in assignments:
        blocks.setdefault(f"k{key}", set()).add(entity)
    keys = sorted(blocks)  # key rank: lexicographic over the key strings
    sizes = np.array([len(blocks[k]) for k in keys], dtype=np.int64)
    block_rank = np.empty(len(keys), dtype=np.int64)
    block_rank[np.lexsort((np.arange(len(keys)), sizes))] = np.arange(len(keys))
    members = [sorted(blocks[k]) for k in keys]
    block_of = np.repeat(np.arange(len(keys), dtype=np.int64), [len(m) for m in members])
    entities = np.array([e for m in members for e in m], dtype=np.int64)
    got = retained_assignment_mask(entities, block_rank[block_of], ratio)
    want = lexsort_assignment_mask(entities, sizes[block_of], block_of, ratio)
    assert np.array_equal(got, want)


def test_derivation_ranks_blocks_by_size_then_key():
    """purge_and_filter's block ranks break |b| ties by the key string,
    not by token id: interning order and key order disagree here."""
    vocabulary = TokenVocabulary()
    # "zz" is interned before "aa"; both blocks have two members.
    postings = TokenPostings.build(
        [("e1", ["zz", "aa", "mm"]), ("e2", ["zz", "aa"]), ("e3", ["mm"])], vocabulary
    )
    tokens = np.array([vocabulary.id_of(k) for k in ("zz", "aa", "mm")], dtype=np.int64)
    sizes, indptr, members = packed_blocking.purge_and_filter(
        postings, tokens, postings.sizes_of(tokens), None, 0.5
    )
    blocks = [postings.entity_ids_of(members[lo:hi]) for lo, hi in zip(indptr[:-1], indptr[1:])]
    # e1 keeps ceil(0.5 · 3) = 2 of its blocks by (|b|, key): aa, mm
    # (by token id it would keep zz, aa); e2 keeps aa, e3 keeps mm.  zz
    # drops below two members.
    assert blocks == [["e1", "e2"], ["e1", "e3"]]
    assert sizes.tolist() == [2, 2]
