"""Smoke tests of the benchmark itself, on the smallest inputs.

    python3 -m pytest bench/tests -q
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402


def run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_gate(name, seed):
    out = workloads.run(name, seed=seed, seconds=0.0, trace=False, size="smoke")
    assert out["attempted"] >= 1
    assert out["failed"] == 0, out["failures"]
    assert set(out["metrics"]) == set(END_TO_END)
    assert all(v > 0 and math.isfinite(v) for v in out["metrics"].values()), out["metrics"]


def test_gate_rejects_a_wrong_reference():
    refs = workloads.load_references("smoke", "accumulate")
    key = sorted(refs)[0]
    wrong = {k: dict(v) for k, v in refs.items()}
    wrong[key]["l2"] *= 1.0 + 10 * workloads.RTOL
    out = workloads.run("accumulate", seed=0, seconds=0.0, trace=False, size="smoke", refs=wrong)
    assert out["failed"] == 1
    assert out["failures"][0].startswith(f"{key}: l2=")


def test_gate_rejects_a_missing_reference():
    out = workloads.run("march", seed=0, seconds=0.0, trace=False, size="smoke", refs={})
    assert out["failed"] == out["attempted"] == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name):
    proc = run_cli("--workload", name, "--seed", "3", "--seconds", "0", "--trace", "1",
                   "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    # self times partition the traced set-up plus pass
    self_total = sum(v for k, v in metrics.items() if k.endswith("_self_s"))
    assert self_total == pytest.approx(metrics["traced_wall_s"], rel=1e-9)
    assert metrics["trace_overhead_s"] == pytest.approx(
        metrics["traced_wall_s"] - metrics["untraced_wall_s"])


def test_untraced_run_prints_every_end_to_end_metric():
    proc = run_cli("--workload", "verify", "--seed", "0", "--seconds", "0", "--trace", "0",
                   "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("machine ")
    machine = json.loads(lines[-2][len("machine "):])
    assert machine["nproc"] >= 1 and machine["threads"]["OMP_NUM_THREADS"] == "1"
    result = json.loads(lines[-1])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = run_cli("--workload", "ladder", "--seed", "0", "--seconds", "1", "--trace", "0",
                   cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_the_reported_metrics():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == PER_LAYER
