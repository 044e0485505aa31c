"""Tests of the benchmark itself, at the smoke size (seconds per workload):
the output contract, machine-independent counters and output digests
against frozen values, and a clean failure without a source checkout.

    python3 -m pytest bench/test_bench.py

To refreeze after a deliberate change to the inputs or the counters, run
`python3 bench/run.py --workload W --seed 1 --seconds 1 --trace 1 --size smoke`
per workload and copy `task_digests` from the detail line and the counters
(`machine_independent` metrics) from the result line into frozen.json.
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
FROZEN = json.loads((HERE / "frozen.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 1


def machine_independent(name, unit):
    """Counters and ratios of counters; times and tracer bookkeeping are not."""
    return unit in ("count", "ratio") and not name.startswith("trace.")


def run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def smoke(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
               "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_meets_contract(workload):
    detail, result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert detail["task_digests"] == FROZEN["digests"][workload]["smoke"][str(SEED)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_match_frozen(workload):
    detail, result = smoke(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counters = {k: v["value"] for k, v in result["metrics"].items()
                if machine_independent(k, v["unit"])}
    assert counters == FROZEN["smoke_counters"][workload]
    assert detail["task_digests"] == FROZEN["digests"][workload]["smoke"][str(SEED)]


def test_fails_without_source_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
