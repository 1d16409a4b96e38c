"""The benchmark's replay contract with the package, checked in tier-1.

Reduced `fine_tick` (4 pairs a tick) and `online_adapt` (40 pairs a tick,
with a snapshot and a 5 s rollout after every tick, so after every fold)
runs of `bench/run.py`, untraced and traced, must end with `correct` true
and no failed operation. Their own output checks then hold that
`update_tick` accepts the benchmark's per-tick `Trajectory.slice_samples`
buffers, that `update_count` counts every pair applied, that the final P is
exactly symmetric and passes Cholesky, that every tick's snapshot and
rollout succeed, and, traced, that `rls_update` runs once per pair.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0


@pytest.mark.parametrize("trace", [0, 1])
def test_fine_tick_smoke_run_is_correct(trace):
    smoke_run("fine_tick", trace)


@pytest.mark.parametrize("trace", [0, 1])
def test_online_adapt_smoke_run_is_correct(trace):
    smoke_run("online_adapt", trace)
