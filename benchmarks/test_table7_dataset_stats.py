"""Table 7 — dataset characteristics: |E|, |L_E|, |A|, |TBI|.

Regenerates the paper's dataset-statistics table for every (scaled)
dataset: row count, number of true duplicate pairs, distinct attribute
count and Table Block Index size.  The attribute counts must match the
paper exactly; sizes and |L_E| scale with ``REPRO_SCALE``.
"""

from repro.cli import format_table
from repro.core.indices import TableIndex

from _support.datasets import BASE_SIZES

#: |A| per dataset family as reported in the paper's Table 7.
PAPER_ATTRIBUTE_COUNTS = {
    "DSD": 4,
    "OAO": 3,
    "OAP": 8,
    "OAGV": 5,
    "PPL": 12,
    "OAGP": 18,
}

ORDER = [
    "DSD", "OAO", "OAP",
    "PPL200K", "PPL500K", "PPL1M", "PPL1.5M", "PPL2M",
    "OAGP200K", "OAGP500K", "OAGP1M", "OAGP1.5M", "OAGP2M",
    "OAGV",
]


def collect(registry):
    rows = []
    for key in ORDER:
        table, truth = registry.get(key)
        index = TableIndex(table)
        attribute_count = len(table.schema) - 1  # paper's |A| excludes the id
        rows.append([key, len(table), truth.duplicate_count, attribute_count, index.block_count])
    return rows


def test_table7_dataset_stats(benchmark, registry, report):
    rows = benchmark.pedantic(lambda: collect(registry), rounds=1, iterations=1)
    report(
        "table7_dataset_stats",
        format_table(
            ["E", "|E|", "|L_E|", "|A|", "|TBI|"],
            rows,
            title="Table 7 — dataset characteristics (scaled)",
        ),
    )
    by_key = {row[0]: row for row in rows}
    for key, row in by_key.items():
        family = "".join(c for c in key if not (c.isdigit() or c in ".KM")) or key
        family = {"PPL": "PPL", "OAGP": "OAGP"}.get(family, family)
        assert row[3] == PAPER_ATTRIBUTE_COUNTS[family], key
        assert row[4] > 0  # TBI built
    # Duplicate structure: PPL carries ~40% duplicate rows, OAO/OAP ~10%.
    assert by_key["PPL2M"][2] > by_key["OAGP2M"][2]
    # Scaled sizes follow the paper's ordering.
    assert by_key["PPL200K"][1] < by_key["PPL2M"][1]
    assert by_key["OAGP200K"][1] < by_key["OAGP2M"][1]
