"""Smoke test of the benchmark runner at minimal run length.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs untraced for one second and traced once; each metric
that BENCHMARK.json names must come out with its unit.  Takes a few minutes
on two cores (the traced runs time the ten acceptance criteria).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def result(workload: str, seed: int, trace: int) -> dict:
    proc = run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    return res


def assert_metrics(res: dict, wanted: list[dict]) -> None:
    got = res["metrics"]
    assert sorted(got) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert got[m["name"]]["unit"] == m["unit"], m["name"]
        value = got[m["name"]]["value"]
        assert isinstance(value, (int, float)) and value == value, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    assert_metrics(result(workload, 1, 0), SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    res = result(workload, 1, 1)
    assert_metrics(res, SPEC["per_layer"])
    # every failed op is recorded under its type, whatever the count
    by_type = [v["value"] for k, v in res["metrics"].items() if k.startswith("harness.fail.")]
    assert sum(by_type) == res["failed"]


def test_seed_changes_inputs_not_metric_names():
    for w in WORKLOADS:
        assert wl.BUILDERS[w](1) == wl.BUILDERS[w](1)
        assert wl.BUILDERS[w](1) != wl.BUILDERS[w](2)
    assert sorted(result("cli", 2, 0)["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("product", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
