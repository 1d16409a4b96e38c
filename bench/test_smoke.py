"""Reduced-size smoke run of every benchmark workload.

    python3 -m pytest -q bench/test_smoke.py

Each workload runs with `--size smoke` (4 drivers, a coarser planner grid,
a 60 s replay), untraced and traced. The test asserts that every metric
BENCHMARK.json names is emitted with its unit, that no operation failed and
every output check passed, that the traced run's coverage counters hold,
and that one seed gives one output digest.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    return json.loads(lines[-1]), record, proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    result, record, stdout = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "error_rate" in stdout and " 0.0 (0 failed" in stdout
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if trace:
        assert result["metrics"]["rls.rls_update.failed"]["value"] == 0
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
        if workload == "fine_tick":
            assert result["metrics"]["basis.LiftedBasis.lift.lifts_per_pair"]["value"] == 2.0
    assert record["seed"] == 3 and record["trace"] == bool(trace)
    for key in ("hardware", "nproc", "python", "numpy", "blas", "blas_threads",
                "source_sha256", "output_sha256"):
        assert record[key] is not None, key


def test_same_seed_same_digest():
    first = smoke("online_adapt", 0, seed=5)[1]["output_sha256"]
    assert smoke("online_adapt", 0, seed=5)[1]["output_sha256"] == first
    assert smoke("online_adapt", 0, seed=6)[1]["output_sha256"] != first
