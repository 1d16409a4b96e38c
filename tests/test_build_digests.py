"""Golden digests of the offline build outputs.

Runs `advisory` -> `simulate` -> `fit` through the CLI on a reduced build
(the shipped route, 16 x 11 DP grid, 3 drivers with driver 3 distracted) and
compares the SHA-256 of every CSV with digests recorded before the DP
backward pass, the simulator loop and the CSV writers were rewritten for
speed, and of `model.json` and `report.json` with digests recorded before the
fit's memory layout (shared roster columns, block lifting) was changed. Any
change to the bytes of these files fails here. `advisory_meta.json` is left
out because it records the absolute route path.

The digests pin numpy's `default_rng` streams (PCG64 `standard_normal` for
the command noise, `random` for the gain jitter). A numpy release that
changes those streams would need new digests; nothing else should. The fit
digests also pin the last bits of LAPACK's QR and triangular solve, so a
different BLAS/LAPACK build may need new fit digests.
"""

import hashlib
import json
from pathlib import Path

from koopdrive.cli import main

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


def _reduced_config(path: Path) -> None:
    cfg = json.loads(CONFIG.read_text())
    cfg["advisory"].update(v_levels=16, soc_levels=11)
    cfg["drivers"]["count"] = 3
    for window in cfg["drivers"]["distracted"]:
        window["index"] = 2
    path.write_text(json.dumps(cfg))


def test_build_outputs_match_golden_digests(tmp_path):
    config = tmp_path / "config.json"
    _reduced_config(config)
    adv = tmp_path / "advisory"
    assert main(["advisory", "--route", str(ROUTE), "--config", str(config),
                 "--out", str(adv)]) == 0
    assert main(["simulate", "--advisory", str(adv / "advisory_time.csv"),
                 "--config", str(config), "--out", str(tmp_path / "drivers")]) == 0
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.csv"))
    assert written == sorted(GOLDEN)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN}
    assert digests == GOLDEN
    assert main(["fit", "--data", str(tmp_path / "drivers"), "--config", str(config),
                 "--model-out", str(tmp_path / "model.json"),
                 "--report-out", str(tmp_path / "report.json")]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in FIT_GOLDEN}
    assert digests == FIT_GOLDEN
