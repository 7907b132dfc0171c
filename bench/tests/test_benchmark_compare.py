"""Bound logic of ``bench/compare.py``."""

import compare

LOWER = {"name": "cold_query_ms_p50", "better": "lower", "bound": 0.10}
HIGHER = {"name": "ops_per_s", "better": "higher", "bound": 0.10}
EXACT = {"name": "comparisons_per_cold_query", "better": "lower", "bound": 0.01}


def runs(values, name, failed=0, digest="d", workload_metrics=None):
    return [
        {
            "trace": 0,
            "attempted": 100,
            "failed": failed,
            "input_digest": digest,
            "metrics": {name: {"value": value, "unit": "x"}, **(workload_metrics or {})},
        }
        for value in values
    ]


def test_verdicts_follow_bound_direction_and_parent_spread():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(steady, [105.0], "lower", 0.10)[0] == "unchanged"
    assert compare.verdict(steady, [115.0], "lower", 0.10)[0] == "worse"
    assert compare.verdict(steady, [85.0], "lower", 0.10)[0] == "better"
    # Direction flips for higher-is-better metrics.
    assert compare.verdict(steady, [85.0], "higher", 0.10)[0] == "worse"
    assert compare.verdict(steady, [115.0], "higher", 0.10)[0] == "better"
    # A parent that disagrees with itself by more than the bound resolves nothing …
    noisy = [100.0, 80.0, 125.0, 95.0, 110.0]
    assert compare.spread(noisy) > 0.10
    assert compare.verdict(noisy, [92.0], "lower", 0.10)[0] == "unresolved"
    # … except a regression beyond the bound, which is still a regression.
    assert compare.verdict(noisy, [130.0], "lower", 0.10)[0] == "worse"


def test_compare_blocks_on_worse_failed_share_and_same_commit_drift():
    parent = {"sp_cold": runs([100.0, 101.0, 99.0], LOWER["name"])}
    same = {"sp_cold": runs([100.5, 100.0, 101.0], LOWER["name"])}
    rows, problems = compare.compare(parent, same, [LOWER])
    assert [row[2] for row in rows] == ["unchanged"] and problems == []

    slower = {"sp_cold": runs([120.0, 121.0, 119.0], LOWER["name"])}
    rows, problems = compare.compare(parent, slower, [LOWER])
    assert rows[0][2] == "worse" and len(problems) == 1

    failing = {"sp_cold": runs([100.0, 100.0, 100.0], LOWER["name"], failed=1)}
    _, problems = compare.compare(parent, failing, [LOWER])
    assert any("failed share" in problem for problem in problems)

    drifted = {"sp_cold": runs([100.0, 100.0, 100.0], LOWER["name"], digest="other")}
    assert compare.compare(parent, drifted, [LOWER])[1] == []
    _, problems = compare.compare(parent, drifted, [LOWER], same_commit=True)
    assert any("digest" in problem for problem in problems)


def test_exact_counts_must_repeat_within_one_commit():
    for workload in ("sp_cold", "serve_mix"):
        parent = {workload: runs([1000.0], EXACT["name"])}
        change = {workload: runs([1001.0], EXACT["name"])}
        assert compare.compare(parent, change, [EXACT])[1] == []
        assert compare.compare(parent, change, [EXACT], same_commit=True)[1] != []


def test_link_quality_bounds_are_absolute():
    recall = {"name": "link_recall", "better": "higher", "bound": 0.005}
    parent = {"sp_cold": runs([0.5, 0.5, 0.5], "link_recall")}
    # 0.004 lower is 0.8 % of 0.5: inside an absolute 0.005, outside a relative one.
    rows, problems = compare.compare(parent, {"sp_cold": runs([0.496], "link_recall")}, [recall])
    assert rows[0][2] == "unchanged" and problems == []
    rows, problems = compare.compare(parent, {"sp_cold": runs([0.494], "link_recall")}, [recall])
    assert rows[0][2] == "worse" and len(problems) == 1
