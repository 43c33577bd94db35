"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import layertrace
import run

# The four workloads' command shapes at sizes that finish in well under a second.
TINY = (
    run.Workload("spectral", (("spectral", "--m", "3"),)),
    run.Workload("amplify-exact", (("amplify", "--construction", "walk", "--m", "2", "--t", "2",
                                    "--seed", "{seed}"),)),
    run.Workload("amplify-mc", (("amplify", "--construction", "walk", "--m", "2", "--t", "2",
                                 "--mode", "mc", "--trials", "300", "--seed", "{seed}"),)),
    run.Workload("beta-to-bound", (
        ("verify-beta", "--m", "2", "--t", "2", "--mode", "sampled", "--trials", "500",
         "--agree", "20", "--seed", "{seed}"),
        ("bound", "--preset", "sweep", "--count", "20", "--t", "2", "--psi", "3",
         "--variant", "percoord", "--beta", "{beta}", "--seed", "{seed}"),
    )),
)
COUNT_UNITS = ("count", "bytes", "ratio")


@pytest.fixture
def bench(tmp_path, monkeypatch):
    """bench_workload writing into a temporary results directory."""
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    checker = run.Checker()

    def go(workload, trace=False, seconds=1):
        summary = run.bench_workload(workload, 5, seconds, trace, checker, machine={})
        record = json.loads((tmp_path / f"{workload.name}-seed5-trace{int(trace)}.json").read_text())
        return summary, record

    return go


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layertrace.PER_LAYER_METRICS)
    assert [w.name for w in TINY] == list(run.WORKLOADS)
    for tiny in TINY:
        assert [s[0] for s in tiny.steps] == [s[0] for s in run.WORKLOADS[tiny.name].steps]


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_end_to_end_metrics_present(bench, workload):
    summary, record = bench(workload)
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= run.MIN_ITERATIONS
    assert set(summary["metrics"]) == {name for name, _, _ in run.END_TO_END_METRICS}
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    assert record["fail_ratio"] == 0.0


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_traced_metrics_present_nonnegative_and_counts_repeat(bench, workload):
    first, _ = bench(workload, trace=True)
    second, record = bench(workload, trace=True)
    names = {name for name, _, _ in layertrace.PER_LAYER_METRICS}
    for summary in (first, second):
        assert summary["correct"]
        assert set(summary["metrics"]) == names
        for layer in ("cli",) + layertrace.LAYERS:
            assert summary["metrics"][f"{layer}.self_s"]["value"] >= 0.0
    for name, unit, _ in layertrace.PER_LAYER_METRICS:
        if unit in COUNT_UNITS:
            assert first["metrics"][name] == second["metrics"][name], name
    assert abs(sum(record["self_time_share"].values()) - 1.0) < 1e-9


def test_failing_run_counts_in_fail_ratio(bench, tmp_path):
    # fully correlated objects against the independence-grade bound: exit 1
    instance = tmp_path / "correlated.json"
    instance.write_text(json.dumps({"weights": [0.5, 0.5], "objects": [[0, 1], [0, 1]],
                                    "z": [1.0, 0.0], "eps": 0.01, "beta": 1.0}))
    failing = run.Workload("failing", (("bound", "--instance-file", str(instance)),))
    summary, record = bench(failing)
    assert not summary["correct"]
    assert summary["failed"] == summary["attempted"] >= 1
    assert record["fail_ratio"] == 1.0
    assert "exit code 1" in record["errors"][0]


def test_report_mismatch_fails_the_iteration():
    r = run.Run(TINY[0], 5, 1, checker=None)
    same = r.add(run.Iteration(reports=[b"a"]))
    other = r.add(run.Iteration(reports=[b"b"]))
    assert same.ok and not other.ok
    assert r.failed == 1


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "spectral", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
