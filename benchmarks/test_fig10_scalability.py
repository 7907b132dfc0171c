"""Fig. 10 — scalability over growing |E| with a fixed |QE| (Q9).

The paper scans PPL200K–2M and OAGP200K–2M with Q9 = ``MOD(id,10) < 1``
(a random 10% selection) and a fixed query size, showing sub-linear TT
and comparisons: doubling |E| does not double either metric.

To keep |QE| fixed across size variants (as the paper states) the id
range is additionally capped at the smallest variant's size.
"""

import pytest

from repro.cli import format_table

from _support.datasets import OAGP_KEYS, PPL_KEYS
from _support.harness import fresh_engine, run_query

FAMILIES = [("PPL", PPL_KEYS), ("OAGP", OAGP_KEYS)]


def run_family(registry, family: str, keys):
    cap = registry.size_of(keys[0])  # smallest variant's row count
    sql = (
        f"SELECT DEDUP id FROM {family} "
        f"WHERE MOD(id, 10) < 1 AND id <= {cap}"
    )
    measurements = []
    for key in keys:
        engine = fresh_engine([registry.get(key)])
        measurements.append(run_query(engine, "Q9", key, sql, "aes"))
    return measurements


@pytest.mark.parametrize("family,keys", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_fig10_scalability(benchmark, registry, report, family, keys):
    measurements = benchmark.pedantic(
        lambda: run_family(registry, family, keys), rounds=1, iterations=1
    )
    rows = [
        [m.dataset, registry.size_of(m.dataset), round(m.total_time, 4), m.comparisons]
        for m in measurements
    ]
    report(
        f"fig10_{family}",
        format_table(
            ["E", "|E|", "TT (s)", "Comparisons"],
            rows,
            title=f"Fig 10 — Q9 scalability on {family} (fixed |QE|)",
        ),
    )
    # Sub-linear scaling: comparisons grow slower than |E|.  The smallest
    # variant can resolve near-zero duplicates (a handful of comparisons),
    # which makes ratios against it meaningless, so the check anchors at
    # the second size variant.
    anchor, largest = measurements[1], measurements[-1]
    size_ratio = registry.size_of(keys[-1]) / registry.size_of(keys[1])
    comparison_ratio = largest.comparisons / max(1, anchor.comparisons)
    assert comparison_ratio < size_ratio
    # Same order of magnitude across the anchored range (paper §9.2).
    assert comparison_ratio < 10
