"""``--smoke`` runs of every workload, and a layer losing its entry point."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import layers
import run
import served

ROOT = Path(__file__).resolve().parent.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads_and_setup_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.WORKLOADS)
    assert SPEC["paths"] == ["bench"] and SPEC["command"] == ["python3", "bench/run.py"]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.3", "--trace", "0", "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for name, metric in line["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and metric["value"] > 0, name


def test_repeated_runs_land_in_one_file_that_compare_accepts(tmp_path):
    import compare

    out = tmp_path / "set.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "spj_session",
         "--seed", "3", "--seconds", "0.2", "--trace", "0", "--smoke", "--repeat", "2",
         "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    runs = compare.untraced(str(out))["spj_session"]
    assert [run["seed"] for run in runs] == [3, 4]
    assert all(run["correct"] and run["input_digest"] for run in runs)
    _, problems = compare.compare({"spj_session": runs}, {"spj_session": runs}, SPEC["end_to_end"])
    assert problems == []


def test_a_layer_without_its_entry_point_reads_missing_not_failed(monkeypatch):
    import repro.er.packed_blocking as packed_blocking

    # What a later change that folds this function away would look like.
    monkeypatch.delattr(packed_blocking, "derive_candidates")
    result = layers.run(inputs.Spec("spj_session", seed=3, seconds=0.2, smoke=True))
    assert result["failed"] == 0
    assert "repro.er.packed_blocking" in result["reasons"]
    assert result["metrics"]["blocking.derive_ms"] is None
    assert result["metrics"]["matching.match_ms"] is None  # nothing to match without pairs
    assert result["metrics"]["dedup.deduplicate_ms"] > 0  # other layers still measured
    line = run.driver_line(result, SPEC["per_layer"], trace=True)
    assert line["correct"] is True
    assert line["metrics"]["blocking.derive_ms"]["value"] == run.MISSING
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def test_a_server_that_cannot_be_reached_is_reaped(monkeypatch, tmp_path):
    specs = served.write_tables(inputs.make_inputs("serve_mix", seed=3, smoke=True), tmp_path)
    spawned = []
    popen = subprocess.Popen

    def spy(*args, **kwargs):
        spawned.append(popen(*args, **kwargs))
        return spawned[-1]

    def refuse(host, port):
        raise OSError("connection refused")

    monkeypatch.setattr(served.subprocess, "Popen", spy)
    monkeypatch.setattr(served, "Client", refuse)
    with pytest.raises(OSError):
        served.Server(specs, tmp_path / "snapshot", tmp_path / "server.log")
    assert len(spawned) == 1 and spawned[0].poll() is not None


def test_overrides_are_stripped_from_the_environment():
    environ = {"REPRO_WORKERS": "1", "REPRO_FAULTS": "x", "PATH": "/bin"}
    assert run.strip_overrides(environ) == ["REPRO_FAULTS", "REPRO_WORKERS"]
    assert environ == {"PATH": "/bin"}
