"""Ablation — Block-Filtering ratio sweep (design choice, DESIGN.md §5).

The filtering parameter p ≤ 1 (paper §7.2.1) controls how many of each
entity's blocks survive Block Filtering.  Sweeping p shows the
comparisons/recall trade-off behind the default 0.8 from the enhanced
meta-blocking literature [27].
"""

import time

from repro.cli import format_table
from repro.core.dedup_operator import DedupStats, DeduplicateOperator
from repro.core.indices import TableIndex
from repro.er.evaluation import pair_completeness
from repro.er.matching import ProfileMatcher
from repro.er.meta_blocking import MetaBlockingConfig
from repro.sql.expressions import compile_predicate
from repro.sql.schema import Field, PlanSchema
from repro.sql.parser import parse

from _support.workload import sp_queries

DATASET = "PPL1M"
RATIOS = (0.2, 0.4, 0.6, 0.8, 1.0)


def run_ratio(table, truth, index, ratio, selection):
    operator = DeduplicateOperator(
        index,
        matcher=ProfileMatcher(exclude=(table.schema.id_column,)),
        meta_blocking=MetaBlockingConfig(filter_ratio=ratio),
        collect_candidates=True,
    )
    index.link_index.clear()
    stats = DedupStats()
    started = time.perf_counter()
    operator.deduplicate(selection, stats=stats)
    elapsed = time.perf_counter() - started
    relevant = {p for p in truth.pairs() if p[0] in selection or p[1] in selection}
    pc = pair_completeness(stats.candidate_pairs, relevant) if relevant else 1.0
    return elapsed, stats.executed_comparisons, pc


def test_ablation_filter_ratio(benchmark, registry, report):
    table, truth = registry.get(DATASET)
    index = TableIndex(table)
    query = sp_queries("PPL")[1]  # Q2, S≈20%
    schema = PlanSchema([Field(table.name, c.name) for c in table.schema])
    predicate = compile_predicate(parse(query.sql).where, schema)
    selection = {row.id for row in table if predicate(row.values)}

    def run_all():
        return [(r, *run_ratio(table, truth, index, r, selection)) for r in RATIOS]

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        [ratio, round(elapsed, 4), comparisons, round(pc, 3)]
        for ratio, elapsed, comparisons, pc in results
    ]
    report(
        "ablation_filter_ratio",
        format_table(
            ["p", "Time (s)", "Exec. comp.", "PC"],
            rows,
            title=f"Ablation — Block-Filtering ratio on {DATASET} ({query.qid})",
        ),
    )
    by_ratio = {r: (c, pc) for r, _t, c, pc in results}
    # Recall is monotone non-decreasing in p …
    pcs = [by_ratio[r][1] for r in RATIOS]
    assert all(a <= b + 1e-9 for a, b in zip(pcs, pcs[1:]))
    # … and the default 0.8 keeps the paper-wide floor.
    assert by_ratio[0.8][1] >= 0.82
