"""Table 8 — Meta-Blocking configurations: time and Pair Completeness.

The paper runs Q1 (lowest S) and Q5 (highest S) on PPL1M and OAGP1M
under three configurations — ALL (BP+BF+EP), BP+BF and BP+EP — and
reports total time and PC.  Expected shape: ALL is the fastest (fewest
retained comparisons), BP+BF has the best recall, BP+EP is the slowest
(edge pruning over an unfiltered collection); recall never collapses
(paper floor: PC ≥ 0.82 across all experiments with ALL).
"""

import time

import pytest

from repro.cli import format_table
from repro.core.dedup_operator import DeduplicateOperator
from repro.core.indices import TableIndex
from repro.er.evaluation import pair_completeness
from repro.er.matching import ProfileMatcher
from repro.er.meta_blocking import MetaBlockingConfig
from repro.sql.expressions import compile_predicate
from repro.sql.schema import Field, PlanSchema
from repro.sql.parser import parse

from _support.workload import sp_queries

DATASETS = [("PPL1M", "PPL"), ("OAGP1M", "OAGP")]

CONFIGS = [
    MetaBlockingConfig.all(),
    MetaBlockingConfig.bp_bf(),
    MetaBlockingConfig.bp_ep(),
]


def qe_ids(table, sql):
    query = parse(sql)
    schema = PlanSchema([Field(table.name, c.name) for c in table.schema])
    predicate = compile_predicate(query.where, schema)
    return {row.id for row in table if predicate(row.values)}


def run_config(table, truth, index, config, selection):
    operator = DeduplicateOperator(
        index,
        matcher=ProfileMatcher(exclude=(table.schema.id_column,)),
        meta_blocking=config,
        collect_candidates=True,
    )
    index.link_index.clear()
    from repro.core.dedup_operator import DedupStats

    stats = DedupStats()
    started = time.perf_counter()
    operator.deduplicate(selection, stats=stats)
    elapsed = time.perf_counter() - started
    # PC of the retained candidate pairs against the ground truth pairs
    # touching the selection (the paper's GT(EQBI)).
    relevant_truth = {
        pair
        for pair in truth.pairs()
        if pair[0] in selection or pair[1] in selection
    }
    pc = pair_completeness(stats.candidate_pairs, relevant_truth) if relevant_truth else 1.0
    return elapsed, pc, stats.executed_comparisons


def run_dataset(registry, dataset_key, family):
    table, truth = registry.get(dataset_key)
    index = TableIndex(table)
    queries = sp_queries(family)
    rows = []
    for query in (queries[0], queries[4]):
        selection = qe_ids(table, query.sql)
        for config in CONFIGS:
            elapsed, pc, comparisons = run_config(table, truth, index, config, selection)
            rows.append([query.qid, config.label, round(elapsed, 4), round(pc, 3), comparisons])
    return rows


@pytest.mark.parametrize("dataset_key,family", DATASETS, ids=[d[0] for d in DATASETS])
def test_table8_metablocking_configs(benchmark, registry, report, dataset_key, family):
    rows = benchmark.pedantic(
        lambda: run_dataset(registry, dataset_key, family), rounds=1, iterations=1
    )
    report(
        f"table8_{dataset_key}",
        format_table(
            ["Query", "Method", "Time (s)", "PC", "Exec. comp."],
            rows,
            title=f"Table 8 — meta-blocking configurations on {dataset_key}",
        ),
    )
    by_key = {(row[0], row[1]): row for row in rows}
    for qid in ("Q1", "Q5"):
        all_row = by_key[(qid, "ALL")]
        bpbf_row = by_key[(qid, "BP + BF")]
        # ALL retains the fewest comparisons; BP+BF has at least its recall.
        assert all_row[4] <= bpbf_row[4]
        assert bpbf_row[3] >= all_row[3] - 1e-9
        # The paper-wide recall floor.
        assert all_row[3] >= 0.82
