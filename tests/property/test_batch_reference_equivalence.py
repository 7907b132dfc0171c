"""Property: the Batch Approach ≡ the dict reference's BA, link for link.

``batch_deduplicate`` derives its candidates with the same columnar
derivation the Deduplicate operator uses (the whole table as the
frontier) and matches them through the batched cascade.  The reference
runs meta-blocking over the dict TBI and matches pair by pair with
``match_signatures``.  Across datasets × the four Table 8
configurations × the four weighting schemes, before and after
``INSERT INTO``, both must find the same links with the same number of
comparisons.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from reference.dict_pipeline import batch_links, batch_pairs

from repro.core.batch import batch_deduplicate
from repro.core.engine import QueryEREngine
from repro.datagen import generate_dsd, generate_oagp, generate_organizations, generate_people
from repro.er.edge_pruning import WeightingScheme
from repro.er.meta_blocking import MetaBlockingConfig
from repro.sql.physical import ExecutionContext

CONFIGS = {
    "ALL": MetaBlockingConfig.all(),
    "BP+BF": MetaBlockingConfig.bp_bf(),
    "BP+EP": MetaBlockingConfig.bp_ep(),
    "NONE": MetaBlockingConfig.none(),
}

DATASETS = {
    "people": generate_people,
    "papers": generate_oagp,
    "organisations": generate_organizations,
    "dsd": generate_dsd,
}


def assert_batch_equals_reference(index, config):
    context = ExecutionContext()
    result = batch_deduplicate(index, meta_blocking=config, context=context)
    assert set(result.links) == set(batch_links(index, config))
    assert context.comparisons == len(batch_pairs(index, config))


@pytest.mark.parametrize("scheme", list(WeightingScheme), ids=lambda s: s.value)
@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_batch_links_equal_reference(dataset, config, scheme):
    table, _ = DATASETS[dataset](160, seed=11)
    rows = [row.values for row in table]
    base = len(rows) * 3 // 4
    meta_blocking = replace(CONFIGS[config], weighting=scheme)
    with QueryEREngine(meta_blocking=meta_blocking) as engine:
        engine.register(type(table)(table.name, table.schema, rows[:base]))
        index = engine.index_of(table.name)
        assert_batch_equals_reference(index, meta_blocking)
        engine.insert(table.name, rows[base:])
        assert_batch_equals_reference(index, meta_blocking)
