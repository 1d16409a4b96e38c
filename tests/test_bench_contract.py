"""The benchmark's replay contract with the package, checked in tier-1.

A reduced `fine_tick` run of `bench/run.py` (4 pairs a tick), untraced and
traced, must end with `correct` true and no failed operation. Its own
output checks then hold that `update_tick` accepts the benchmark's per-tick
`Trajectory.slice_samples` buffers, that `update_count` counts every pair
applied, that the final P is exactly symmetric and passes Cholesky, and,
traced, that `rls_update` runs once per pair.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", [0, 1])
def test_fine_tick_smoke_run_is_correct(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fine_tick", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
