"""The benchmark's own test, on a tiny configuration (n <= 3).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys

import pytest

import run

run.use_source_tree()

from calabi_lab import curvature as cv  # noqa: E402

WORKLOADS = ("verify-scaling", "acceptance-loops", "certify-sweep")


def _declared(kind):
    return {m["name"]: m["unit"] for m in run._declared(kind)}


def _tiny(workload, trace, seed=3):
    metrics, record = run.run(workload, seed, 0.2, trace, tiny=True)
    return run.result_object(metrics, record, trace)


def test_benchmark_json_names_the_workloads():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    result = _tiny(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat_for_a_seed(workload):
    counts = {n for n, u in _declared("per_layer").items() if u not in ("s", "ratio")}
    first = _tiny(workload, True, seed=5)
    second = _tiny(workload, True, seed=5)
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_gate_catches_the_sign_bug():
    with cv.inject_sign_bug():
        result = _tiny("acceptance-loops", False)
    assert result["failed"] > 0 and not result["correct"]
    assert result["metrics"]["passed_share"]["value"] < 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for name in ("run.py", "spans.py", "workloads.py", "hostspeed.py"):
        (tmp_path / "bench" / name).write_bytes((run.ROOT / "bench" / name).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
