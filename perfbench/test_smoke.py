"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# The per-command medians the detail record carries, by workload.
COMMANDS = {
    "fall-infer": {"analytic_theory_s", "infer_s", "predict_s"},
    "campaign": {"build_theory_s"},
    "campaign-general": {"build_theory_s"},
    "paradox": {"paradox_s"},
}


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(COMMANDS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(COMMANDS))
def test_workload_emits_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
                  "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    detail = json.loads(detail_line)["detail"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["fail_rate"] == {"value": 0.0, "unit": "ratio",
                                   "attempted": result["attempted"], "failed": 0}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert {n: m["unit"] for n, m in detail["commands"].items()} == {
        n: "s" for n in COMMANDS[workload]}
    assert all(m["n"] >= 1 and m["value"] > 0 for m in detail["commands"].values())
    values = {n: m["value"] for n, m in result["metrics"].items()}
    if trace:
        assert all(v >= 0 for n, v in values.items() if n.endswith(".self_s"))
    else:
        assert all(v > 0 for v in values.values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "paradox", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
