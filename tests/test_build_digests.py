"""Golden digests of the offline build outputs.

Runs `advisory` -> `simulate` -> `fit` through the CLI on a reduced build
(the shipped route, 16 x 11 DP grid, 3 drivers with driver 3 distracted),
once with one usable CPU and once with the machine's, and for each build
compares the SHA-256 of every CSV with digests recorded before the DP
backward pass, the simulator loop and the CSV writers were rewritten for
speed, and of `model.json` and `report.json` with digests recorded before the
fit's memory layout (shared roster columns, block lifting) was changed; the
fit's `model.json` must also load and save back to the same bytes. On the
distracted driver it then runs `update` over 515-630 s at cadence 1.0 and 0.1
and `eval --online`, and compares the SHA-256 of the updated models, the tick
logs and the `eval --online` report CSV with digests recorded when the
segment came to be selected on the t column, which starts 515-630 s at
t = 515.0 (sample 20600) where the period read from t had put it one sample
later. The RLS state is in the square-root information form, which folds 40
pairs at a time and rounds differently from the P form it replaced: the
`eval --online` RMSEs are 2.3e-13 relative or less off the P-form kernel's,
and the tick logs' `mean_err_norm` is the error against theta as of the last
fold (the kernel's own tolerance gates are in test_rls.py and
test_acceptance.py).
The report's sixteen RMSEs are also checked against the values written in
below, which the per-step rollout loop (test_acceptance._step_loop_states)
and the P-form kernel (test_rls.parent_kernel, one pair at a time) produced
on samples 20600-25200, to 1e-9 relative, so that a new digest cannot hide
drift. Any change to the
bytes of these files fails here. `advisory_meta.json` is left out because
it records the absolute route path. `fit` and `update --cadence 1.0` are
also run in a fresh process with `OPENBLAS_NUM_THREADS=1`, and again in
process, where `main` runs each command on one OpenBLAS thread itself; their
`model.json`, `report.json` and updated model must match the same digests.
`fit` is also called past `main`, as a library caller would, with two
OpenBLAS threads, and must match them too, so the digests do not depend on
the BLAS thread count.

The digests pin numpy's `default_rng` streams (PCG64 `standard_normal` for
the command noise, `random` for the gain jitter). A numpy release that
changes those streams would need new digests; nothing else should. The fit
digests also pin the last bits of LAPACK's QR and triangular solve, so a
different BLAS/LAPACK build may need new fit digests.
"""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from koopdrive import cli
from koopdrive.cli import main
from koopdrive.model import KoopmanModel

ROOT = Path(__file__).resolve().parents[1]
ROUTE = ROOT / "configs" / "route_urban.csv"
CONFIG = ROOT / "configs" / "default.json"

GOLDEN = {
    "advisory/advisory_time.csv":
        "c323275e09590e648e7a4efe9f9388669892954a1bb6bfdca23ee9196d453d55",
    "advisory/advisory_distance.csv":
        "951f694d38b8389322f5d2e349c43bdda254fee47b8dc5b4dc5def78c6e55ee8",
    "drivers/driver_01.csv":
        "18b65941c61525ae4d8a3f3d35b8ed650fe1bf89cca1868090afd6c2d83c0c6e",
    "drivers/driver_02.csv":
        "98450485b5b99a23af89af752b67b58655e5ae70a3169bb01cf2b696aed0b36b",
    "drivers/driver_03.csv":
        "e235ccc615ae5e158700d0d5393871dafcb0d52242d7aa6536930a09ac851a7e",
}

FIT_GOLDEN = {
    "model.json": "03da6a56690dcf01a806ffc43a42126a324b91212593123b95ff407da8e22164",
    "report.json": "2ce06b91da97bd2601da902f7bf542e258cafa7ab339d514289e7d53c6d425a4",
}


ONLINE_GOLDEN = {
    "update_1.0.json": "a5fd4afd1d988bb2c83d87a55b87f0adb0971c3608908d1cda6ec292b3214ed8",
    "ticks_1.0.csv": "0f91120ccab4a88291cb5d3c39757d00c3aa10787a1f14edb28c400d8d63b6f5",
    "update_0.1.json": "ab892db691ec4a1f95a60a1707f6b82c81e6ef21e325ab0cdfab00fe2bd21aa0",
    "ticks_0.1.csv": "433100768ceec1e85ad2262ef95bea7c5fddf97c0b0cb418298c1fa4f0feb90d",
    "eval_online.csv": "07296f34cf8b674ca502ab643ca522868fd22426314227fb686ad9edf4df2a52",
}

# (horizon_s, variant): (rmse_speed_mps, rmse_force_n) of the `eval --online`
# report, as the per-step rollout loop wrote them
LOOP_RMSE = {
    ("50.0", "offline"): (3.6278790563347876, 1244.621941942476),
    ("20.0", "offline"): (3.267897035641078, 1142.8540092748299),
    ("10.0", "offline"): (2.7978794341382187, 1242.6593232147206),
    ("5.0", "offline"): (1.7729317009191583, 1479.7457349219678),
    ("50.0", "online"): (2.8481760520909534, 663.9408199727495),
    ("20.0", "online"): (2.5541224953583654, 663.7906002267002),
    ("10.0", "online"): (1.5076843425341941, 608.0221386503312),
    ("5.0", "online"): (0.5107804144403066, 475.08620137082016),
}


def _reduced_config(path: Path) -> None:
    cfg = json.loads(CONFIG.read_text())
    cfg["advisory"].update(v_levels=16, soc_levels=11)
    cfg["drivers"]["count"] = 3
    for window in cfg["drivers"]["distracted"]:
        window["index"] = 2
    path.write_text(json.dumps(cfg))


def _digests(root: Path, names) -> dict:
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in names}


@pytest.fixture(scope="module")
def builds(tmp_path_factory):
    """The reduced build's directory after advisory -> simulate -> fit, by the
    usable CPUs it ran on: one, which simulates the roster in one process,
    and the machine's. Every golden digest must hold for both."""
    roots = {}
    for cpus in ("one CPU", "machine CPUs"):
        root = tmp_path_factory.mktemp("build")
        config = root / "config.json"
        _reduced_config(config)
        adv = root / "advisory"
        with pytest.MonkeyPatch.context() as mp:
            if cpus == "one CPU":
                mp.setattr(os, "sched_getaffinity", lambda pid: {0})
            assert main(["advisory", "--route", str(ROUTE), "--config", str(config),
                         "--out", str(adv)]) == 0
            assert main(["simulate", "--advisory", str(adv / "advisory_time.csv"),
                         "--config", str(config), "--out", str(root / "drivers")]) == 0
            assert main(["fit", "--data", str(root / "drivers"), "--config", str(config),
                         "--model-out", str(root / "model.json"),
                         "--report-out", str(root / "report.json")]) == 0
        roots[cpus] = root
    return roots


def test_build_outputs_match_golden_digests(builds, tmp_path):
    for cpus, build in builds.items():
        written = sorted(str(p.relative_to(build)) for p in build.rglob("*.csv"))
        assert written == sorted(GOLDEN), cpus
        assert _digests(build, GOLDEN) == GOLDEN, cpus
        assert _digests(build, FIT_GOLDEN) == FIT_GOLDEN, cpus
        # the model written by fit loads and saves back to its bytes
        resaved = tmp_path / f"{cpus.replace(' ', '_')}.json"
        KoopmanModel.load(build / "model.json").save(resaved)
        assert resaved.read_bytes() == (build / "model.json").read_bytes(), cpus


def test_online_outputs_match_golden_digests(builds, tmp_path):
    for cpus, build in builds.items():
        out = tmp_path / cpus.replace(" ", "_")
        out.mkdir()
        config = build / "config.json"
        data = str(build / "drivers" / "driver_03.csv")
        for cadence in ("1.0", "0.1"):
            assert main(["update", "--model", str(build / "model.json"), "--data", data,
                         "--segment", "515", "630", "--config", str(config),
                         "--cadence", cadence, "--out", str(out / f"update_{cadence}.json"),
                         "--log", str(out / f"ticks_{cadence}.csv")]) == 0
        assert main(["eval", "--model", str(build / "model.json"), "--data", data,
                     "--config", str(config), "--online",
                     "--out", str(out / "eval_online.csv")]) == 0
        assert _digests(out, ONLINE_GOLDEN) == ONLINE_GOLDEN, cpus
        with open(out / "eval_online.csv", newline="", encoding="utf-8") as fh:
            rmse = {(row["horizon_s"], row["variant"]):
                    (float(row["rmse_speed_mps"]), float(row["rmse_force_n"]))
                    for row in csv.DictReader(fh)}
        assert rmse.keys() == LOOP_RMSE.keys()
        for key, expect in LOOP_RMSE.items():
            np.testing.assert_allclose(rmse[key], expect, rtol=1e-9, atol=0.0)


def test_fit_and_update_digests_hold_with_one_blas_thread(builds, tmp_path):
    # one OpenBLAS thread, set before numpy loads in a fresh process, folds
    # and solves to the same bits as the machine's default thread count
    build = builds["machine CPUs"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))

    config = build / "config.json"

    def fresh(*argv):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from koopdrive.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv, "--config", str(config)],
            env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr

    fresh("fit", "--data", str(build / "drivers"), "--model-out", str(tmp_path / "model.json"),
          "--report-out", str(tmp_path / "report.json"))
    assert _digests(tmp_path, FIT_GOLDEN) == FIT_GOLDEN
    fresh("update", "--model", str(tmp_path / "model.json"),
          "--data", str(build / "drivers" / "driver_03.csv"), "--segment", "515", "630",
          "--cadence", "1.0", "--out", str(tmp_path / "update_1.0.json"))
    name = "update_1.0.json"
    assert _digests(tmp_path, [name]) == {name: ONLINE_GOLDEN[name]}

    # in process, main sets the one thread itself: the fit and the stream
    # run under it (where numpy's OpenBLAS has the calls), and write the
    # same bytes
    calls = cli._blas_thread_calls()
    threads = calls[0] if calls else lambda: None
    seen = []

    def counted(real):
        def run(*args):
            seen.append(threads())
            return real(*args)
        return run

    here = tmp_path / "in_process"
    here.mkdir()
    with pytest.MonkeyPatch.context() as mp:
        for stage in ("fit_trajectories", "init_rls"):
            mp.setattr(cli, stage, counted(getattr(cli, stage)))
        assert main(["fit", "--data", str(build / "drivers"), "--config", str(config),
                     "--model-out", str(here / "model.json"),
                     "--report-out", str(here / "report.json")]) == 0
        assert main(["update", "--model", str(here / "model.json"),
                     "--data", str(build / "drivers" / "driver_03.csv"),
                     "--segment", "515", "630", "--cadence", "1.0", "--config", str(config),
                     "--out", str(here / "update_1.0.json")]) == 0
    assert seen == [1 if calls else None] * 2
    assert _digests(here, FIT_GOLDEN) == FIT_GOLDEN
    assert _digests(here, [name]) == {name: ONLINE_GOLDEN[name]}


def test_fit_digests_hold_outside_main_with_two_blas_threads(builds, tmp_path):
    # main fits on one OpenBLAS thread, so the builds above do; a caller that
    # skips main keeps its own count, and the fit's bytes must not depend on it
    calls = cli._blas_thread_calls()
    if calls is None:
        pytest.skip("numpy's OpenBLAS has no thread-count calls")
    get, put = calls
    build = builds["machine CPUs"]
    args = cli.build_parser().parse_args([
        "fit", "--data", str(build / "drivers"), "--config", str(build / "config.json"),
        "--model-out", str(tmp_path / "model.json"), "--report-out", str(tmp_path / "report.json")])
    old = get()
    put(2)
    try:
        assert get() == 2
        assert args.func(args, cli._load_config(args)) == 0
    finally:
        put(old)
    assert _digests(tmp_path, FIT_GOLDEN) == FIT_GOLDEN
