"""Fig. 12 — BA vs NES vs AES on SPJ queries (Q6a/b, Q7a/b).

Four panels: TT and executed comparisons for the joins PPL2M ⋈ OAO and
OAGP2M ⋈ OAGV at low (Q6, S≈7%) and high (Q7, S≈75%) selectivity, with
the other side fixed at 100%.  Expected shape: AES ≤ NES ≤ BA on
comparisons, with the NES/BA gap shrinking at high selectivity.
"""

import pytest

from repro.cli import format_table

from _support.harness import fresh_engine, run_query
from _support.workload import join_query

PANELS = [
    ("a", "PPL-OAO", ["PPL2M", "OAO"]),
    ("b", "OAGP-OAGV", ["OAGP2M", "OAGV"]),
]

MODES = ["batch", "nes", "aes"]


def run_panel(registry, pair, dataset_keys):
    tables = [registry.get(k) for k in dataset_keys]
    measurements = []
    for qid, selectivity in (("Q6", 0.05), ("Q7", 0.75)):
        query = join_query(pair, qid, selectivity)
        engine = fresh_engine(tables)
        row = {}
        for mode in MODES:
            row[mode] = run_query(engine, query.qid, dataset_keys[0], query.sql, mode)
        measurements.append((query, row))
    return measurements


@pytest.mark.parametrize("suffix,pair,keys", PANELS, ids=[p[1] for p in PANELS])
def test_fig12_ba_nes_aes(benchmark, registry, report, suffix, pair, keys):
    measurements = benchmark.pedantic(
        lambda: run_panel(registry, pair, keys), rounds=1, iterations=1
    )
    rows = []
    for query, by_mode in measurements:
        rows.append(
            [
                f"{query.qid}{suffix}",
                f"{query.selectivity:.0%}",
                round(by_mode["batch"].total_time, 4),
                round(by_mode["nes"].total_time, 4),
                round(by_mode["aes"].total_time, 4),
                by_mode["batch"].comparisons,
                by_mode["nes"].comparisons,
                by_mode["aes"].comparisons,
            ]
        )
    report(
        f"fig12_{pair}",
        format_table(
            ["Q", "S", "BA TT", "NES TT", "AES TT", "BA comp.", "NES comp.", "AES comp."],
            rows,
            title=f"Fig 12 — BA vs NES vs AES on {pair}",
        ),
    )
    for query, by_mode in measurements:
        # AES's cost-based placement must not lose to the fixed NES plan
        # (2% tolerance for adaptive Edge-Pruning thresholds).
        assert by_mode["aes"].comparisons <= 1.02 * by_mode["nes"].comparisons, query.qid
        # QueryER beats re-cleaning everything; at very high selectivity
        # the gap vanishes (paper: "the difference ... decreases"), so a
        # 10% tolerance absorbs query-scoped meta-blocking adaptivity.
        assert by_mode["aes"].comparisons <= 1.10 * by_mode["batch"].comparisons, query.qid
    # At low selectivity (Q6) the win over BA must be decisive.
    low_query, low_modes = measurements[0]
    assert low_modes["aes"].comparisons < low_modes["batch"].comparisons
