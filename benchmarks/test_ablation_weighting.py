"""Ablation — Edge-Pruning weighting schemes (design choice, DESIGN.md §5).

The paper fixes one meta-blocking strategy; the Edge-Pruning weighting
scheme is a free design parameter (Papadakis et al. define CBS, ECBS,
JS, ARCS).  This ablation measures, for a mid-selectivity SP query on
PPL1M, how each scheme trades retained comparisons against recall.
"""

import time

from repro.cli import format_table
from repro.core.dedup_operator import DedupStats, DeduplicateOperator
from repro.core.indices import TableIndex
from repro.er.evaluation import pair_completeness
from repro.er.edge_pruning import WeightingScheme
from repro.er.matching import ProfileMatcher
from repro.er.meta_blocking import MetaBlockingConfig
from repro.sql.expressions import compile_predicate
from repro.sql.schema import Field, PlanSchema
from repro.sql.parser import parse

from _support.workload import sp_queries

DATASET = "PPL1M"


def run_scheme(table, truth, index, scheme, selection):
    operator = DeduplicateOperator(
        index,
        matcher=ProfileMatcher(exclude=(table.schema.id_column,)),
        meta_blocking=MetaBlockingConfig(weighting=scheme),
        collect_candidates=True,
    )
    index.link_index.clear()
    stats = DedupStats()
    started = time.perf_counter()
    operator.deduplicate(selection, stats=stats)
    elapsed = time.perf_counter() - started
    relevant = {
        p for p in truth.pairs() if p[0] in selection or p[1] in selection
    }
    pc = pair_completeness(stats.candidate_pairs, relevant) if relevant else 1.0
    return elapsed, stats.executed_comparisons, pc


def test_ablation_weighting_schemes(benchmark, registry, report):
    table, truth = registry.get(DATASET)
    index = TableIndex(table)
    query = sp_queries("PPL")[2]  # Q3, S≈35%
    schema = PlanSchema([Field(table.name, c.name) for c in table.schema])
    predicate = compile_predicate(parse(query.sql).where, schema)
    selection = {row.id for row in table if predicate(row.values)}

    def run_all():
        return [
            (scheme.name, *run_scheme(table, truth, index, scheme, selection))
            for scheme in WeightingScheme
        ]

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        [name, round(elapsed, 4), comparisons, round(pc, 3)]
        for name, elapsed, comparisons, pc in results
    ]
    report(
        "ablation_weighting",
        format_table(
            ["Scheme", "Time (s)", "Exec. comp.", "PC"],
            rows,
            title=f"Ablation — EP weighting schemes on {DATASET} ({query.qid})",
        ),
    )
    # Every scheme must preserve the paper-wide recall floor on this data.
    for name, _elapsed, _comparisons, pc in results:
        assert pc >= 0.82, name
