"""Golden digests of the offline build outputs.

Runs `advisory` -> `simulate` -> `fit` through the CLI on a reduced build
(the shipped route, 16 x 11 DP grid, 3 drivers with driver 3 distracted),
once with one usable CPU and once with the machine's, and for each build
compares the SHA-256 of every CSV with digests recorded before the DP
backward pass, the simulator loop and the CSV writers were rewritten for
speed, and of `model.json` and `report.json` with digests recorded before the
fit's memory layout (shared roster columns, block lifting) was changed; the
`fit --scaling none` outputs were recorded before the pre-scaler lost its
affine offset. On the distracted driver it then runs `update` over 515-630 s
at cadence 1.0 and 0.1 and `eval --online`, and compares the SHA-256 of the
updated models, the tick logs and the `eval --online` report CSV with
digests recorded when the stacked [theta; P] kernel moved its forgetting
into a scalar mu, with S = mu P in the block, and took the rank-one update
as a k = 1 matrix product; S - g g' rounds differently from
(P - g g') / lambda (the tick logs' `mean_err_norm` moved by at most
9e-12 relative and the `eval --online` RMSEs by 1.4e-13; the kernel's own
tolerance gates are in test_rls.py and test_acceptance.py).
The report's sixteen RMSEs are also checked against the values written in
below, which the per-step rollout loop and the P-form kernel produced, to
1e-9 relative, so that a new digest cannot hide drift. Any change to the
bytes of these files fails here. `advisory_meta.json` is left out because
it records the absolute route path.

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
from pathlib import Path

import numpy as np
import pytest

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

UNSCALED_FIT_GOLDEN = {
    "model.json": "5dad820c1b41bc5541f97ea4f2a1e49f4d32199c0eadce6737519a536c7172fa",
    "report.json": "2771378456b396084770480301b6dfca5493e50622e884e097eeb595772cd2a1",
}


ONLINE_GOLDEN = {
    "update_1.0.json": "7835d950ef762a93f21ba4fa19b535c287f29b4f0015b0107a07b708b44cc512",
    "ticks_1.0.csv": "ed00a04996b0008cf3b65e46e6af9271a036a94eee55830658af8a6c63caaf12",
    "update_0.1.json": "a6989e93926f8c95ea53497dd09267349bb61be65891019f5608d7cead597b36",
    "ticks_0.1.csv": "9d2a10354bcb0dca28311a748d4f244b73c8ad1baae8b8ecaac37296003d3ddc",
    "eval_online.csv": "7c04a84a97c6b5cc81f6571723e7cab5b08188911f14413051808232bf379ac6",
}

# (horizon_s, variant): (rmse_speed_mps, rmse_force_n) of the `eval --online`
# report, as the per-step rollout loop wrote them
LOOP_RMSE = {
    ("50.0", "offline"): (3.6266275997680677, 1243.3605804830395),
    ("20.0", "offline"): (3.267031590149925, 1138.8344010292672),
    ("10.0", "offline"): (2.7879665266764557, 1237.7952202768588),
    ("5.0", "offline"): (1.7957444404332494, 1505.2797229705902),
    ("50.0", "online"): (2.843893398885055, 661.1199387387937),
    ("20.0", "online"): (2.5489010547525135, 658.4737328395133),
    ("10.0", "online"): (1.515969241764584, 607.7597940118104),
    ("5.0", "online"): (0.5298926732484205, 486.1205320471475),
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


def test_build_outputs_match_golden_digests(builds):
    for cpus, build in builds.items():
        written = sorted(str(p.relative_to(build)) for p in build.rglob("*.csv"))
        assert written == sorted(GOLDEN), cpus
        assert _digests(build, GOLDEN) == GOLDEN, cpus
        assert _digests(build, FIT_GOLDEN) == FIT_GOLDEN, cpus


def test_unscaled_fit_matches_golden_digests(builds, tmp_path):
    for cpus, build in builds.items():
        out = tmp_path / cpus.replace(" ", "_")
        out.mkdir()
        assert main(["fit", "--data", str(build / "drivers"),
                     "--config", str(build / "config.json"), "--scaling", "none",
                     "--model-out", str(out / "model.json"),
                     "--report-out", str(out / "report.json")]) == 0
        assert _digests(out, UNSCALED_FIT_GOLDEN) == UNSCALED_FIT_GOLDEN, cpus
        # a model written by fit, scaled or not, loads and saves back to its bytes
        for written in (build / "model.json", out / "model.json"):
            KoopmanModel.load(written).save(out / "resaved.json")
            assert (out / "resaved.json").read_bytes() == written.read_bytes(), cpus


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
