"""Property-based tests for the ER operators themselves."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dedup_operator import DeduplicateOperator
from repro.core.indices import TableIndex
from repro.datagen import generate_people
from repro.datagen.corruptor import Corruptor
from repro.er.meta_blocking import MetaBlockingConfig
from repro.sql.physical import ExecutionContext


def table_and_index(seed: int, size: int = 60):
    table, truth = generate_people(size, seed=seed)
    return table, truth, TableIndex(table)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=3000), st.integers(min_value=1, max_value=40))
def test_deduplicate_output_is_superset_of_selection(seed, take):
    table, _truth, index = table_and_index(seed)
    selection = set(table.ids[:take])
    operator = DeduplicateOperator(index, meta_blocking=MetaBlockingConfig.none())
    result = operator.deduplicate(selection)
    assert selection <= result.entity_ids
    # Every reported duplicate is reachable from the selection via links.
    for entity in result.duplicate_ids:
        assert result.links.cluster_of(entity) & selection or any(
            entity in result.links.cluster_of(s) for s in selection
        )


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=3000))
def test_deduplicate_is_idempotent(seed):
    """Re-running the operator returns the same DR_E (and zero new cost)."""
    table, _truth, index = table_and_index(seed)
    selection = set(table.ids[:25])
    operator = DeduplicateOperator(index, meta_blocking=MetaBlockingConfig.none())
    first = operator.deduplicate(selection)
    context = ExecutionContext()
    second = operator.deduplicate(selection, context)
    assert first.entity_ids == second.entity_ids
    # The LI answers with its clusters read as components, without
    # pairs, so compare the induced clusters rather than the pair sets.
    assert {frozenset(c) for c in first.clusters()} == {
        frozenset(c) for c in second.clusters()
    }
    assert context.comparisons == 0  # answered entirely from the LI


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=3000))
def test_selection_order_does_not_change_result(seed):
    table, _truth, index_a = table_and_index(seed)
    _table_b, _t, index_b = table_and_index(seed)
    ids = table.ids[:30]
    forward = DeduplicateOperator(index_a, meta_blocking=MetaBlockingConfig.none()).deduplicate(ids)
    backward = DeduplicateOperator(index_b, meta_blocking=MetaBlockingConfig.none()).deduplicate(
        list(reversed(ids))
    )
    assert forward.entity_ids == backward.entity_ids
    assert set(forward.links) == set(backward.links)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=3000))
def test_incremental_equals_one_shot(seed):
    """Resolving in two steps (via the LI) equals resolving all at once."""
    table, _truth, index_split = table_and_index(seed)
    ids = table.ids
    half = len(ids) // 2
    operator = DeduplicateOperator(index_split, meta_blocking=MetaBlockingConfig.none())
    operator.deduplicate(ids[:half])
    split_result = operator.deduplicate(ids)

    _t2, _tr2, index_whole = table_and_index(seed)
    whole = DeduplicateOperator(
        index_whole, meta_blocking=MetaBlockingConfig.none()
    ).deduplicate(ids)
    assert split_result.entity_ids == whole.entity_ids
    assert {frozenset(c) for c in split_result.clusters()} == {
        frozenset(c) for c in whole.clusters()
    }


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=4),
)
def test_corruptor_respects_budgets(seed, per_attribute, per_record):
    """No duplicate ever exceeds the configured modification budgets."""
    rng = random.Random(seed)
    corruptor = Corruptor(
        rng,
        max_mods_per_attribute=per_attribute,
        max_mods_per_record=per_record,
        missing_rate=0.0,
    )
    record = {
        "id": "r",
        "a": "alpha beta gamma",
        "b": "delta epsilon",
        "c": "zeta eta theta iota",
    }
    dirty = corruptor.corrupt_record(record, protected=("id",))
    changed = [k for k in record if dirty.get(k) != record[k]]
    assert len(changed) <= per_record
    assert dirty["id"] == "r"
