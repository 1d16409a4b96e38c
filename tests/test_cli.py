import argparse
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import re
import resource
import shutil
import subprocess
import sys
import threading
import time
import typing
import warnings

from pathlib import Path

import numpy as np
import pytest

from koopdrive import cli
from koopdrive.advisory import EcoDpConfig, RouteSpec, solve_eco_dp
from koopdrive.basis import LiftedBasis
from koopdrive.cli import _read_trajectories, main
from koopdrive.driversim import VehicleParams
from koopdrive.model import KoopmanModel, ModelFileError, Trajectory, _row_template
from koopdrive.rls import OnlineSettings

TOY_CONFIG = {
    "seed": 0,
    "sample_period": 0.025,
    "vehicle": {"mass": 2200.0, "a0": 160.0, "a1": 2.5, "a2": 0.45,
                "f_min": -9000.0, "f_max": 6500.0},
    "driver": {"kp": 700.0, "ki": 120.0, "reaction_delay": 0.4,
               "force_rate_limit": 6000.0, "noise_std": 120.0,
               "compliance": 1.0, "hold_tau": 4.0},
    "drivers": {"count": 3, "gain_jitter": 0.1,
                "distracted": [{"index": 2, "t_start": 10.0, "t_end": 25.0,
                                "compliance": 0.2, "noise_scale": 2.0}]},
    "fit": {"ridge": 0.0, "split": [0.8, 0.1, 0.1], "max_degree": 3},
    "rls": {"lam": 0.99737, "cadence_s": 1.0},
    "eval": {"horizons_s": [10.0, 5.0], "segment_s": [10.0, 30.0]},
    "advisory": {"gamma": 0.5, "v_levels": 12, "soc_levels": 11},
}


SHIPPED_ROUTE = Path(__file__).resolve().parents[1] / "configs" / "route_urban.csv"


def write_toy_route(p):
    n = 41
    lines = ["position_m,v_min_mps,v_max_mps,stop,grade"]
    for j in range(n):
        stop = 1 if j in (0, 40) else 0
        lines.append(f"{j * 10.0},0.0,13.9,{stop},0.0")
    p.write_text("\n".join(lines) + "\n")
    return p


@pytest.fixture
def toy_route(tmp_path):
    return write_toy_route(tmp_path / "route.csv")


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(TOY_CONFIG))
    return p


def run_pipeline(tmp_path, toy_route, config_file, tag):
    out = tmp_path / tag
    adv_dir = out / "advisory"
    drv_dir = out / "drivers"
    assert main(["advisory", "--route", str(toy_route), "--config",
                 str(config_file), "--out", str(adv_dir)]) == 0
    assert main(["simulate", "--advisory", str(adv_dir / "advisory_time.csv"),
                 "--config", str(config_file), "--out", str(drv_dir)]) == 0
    model = out / "model.json"
    report = out / "report.json"
    assert main(["fit", "--data", str(drv_dir), "--config", str(config_file),
                 "--model-out", str(model), "--report-out", str(report)]) == 0
    return out


def test_full_pipeline_and_rerun_identical(tmp_path, toy_route, config_file):
    a = run_pipeline(tmp_path, toy_route, config_file, "a")
    b = run_pipeline(tmp_path, toy_route, config_file, "b")
    for rel in ("advisory/advisory_time.csv", "advisory/advisory_distance.csv",
                "advisory/advisory_meta.json", "drivers/driver_01.csv",
                "drivers/driver_03.csv", "model.json", "report.json"):
        pa = a / rel
        pb = b / rel
        assert pa.read_bytes() == pb.read_bytes(), rel


def test_simulate_writes_one_csv_per_driver(tmp_path, toy_route, config_file):
    out = run_pipeline(tmp_path, toy_route, config_file, "c")
    names = sorted(os.listdir(out / "drivers"))
    assert names == ["driver_01.csv", "driver_02.csv", "driver_03.csv"]


def test_eval_writes_reports(tmp_path, toy_route, config_file, capsys):
    out = run_pipeline(tmp_path, toy_route, config_file, "d")
    reports = out / "reports.csv"
    assert main(["eval", "--model", str(out / "model.json"),
                 "--data", str(out / "drivers" / "driver_03.csv"),
                 "--config", str(config_file), "--online",
                 "--out", str(reports)]) == 0
    lines = reports.read_text().splitlines()
    # offline + online rows for each of the two horizons
    assert len(lines) == 5
    printed = capsys.readouterr().out
    assert "offline" in printed and "online" in printed


def test_update_writes_model_and_log(tmp_path, toy_route, config_file):
    out = run_pipeline(tmp_path, toy_route, config_file, "e")
    upd = out / "model_upd.json"
    log = out / "ticks.csv"
    assert main(["update", "--model", str(out / "model.json"),
                 "--data", str(out / "drivers" / "driver_01.csv"),
                 "--segment", "10", "30", "--config", str(config_file),
                 "--out", str(upd), "--log", str(log)]) == 0
    assert upd.exists()
    header = log.read_text().splitlines()[0]
    assert header == "tick,t_end_s,pairs,mean_err_norm"


@pytest.fixture
def blas_threads():
    """The thread-count read of numpy's OpenBLAS, through the calls main
    uses, with the count at 2 for the test and put back after it."""
    calls = cli._blas_thread_calls()
    if calls is None:
        pytest.skip("numpy's OpenBLAS has no thread-count calls")
    get, put = calls
    old = get()
    put(2)
    yield get
    put(old)


def record_blas_threads(monkeypatch, get, fail=None):
    """The thread counts seen by every _load_config call, which main makes
    before each command; with fail, each call then raises it."""
    seen = []
    load = cli._load_config

    def recorded(args):
        seen.append(get())
        if fail is not None:
            raise fail
        return load(args)

    monkeypatch.setattr(cli, "_load_config", recorded)
    return seen


@pytest.mark.parametrize("extra, code", [({}, 0), ({"colour": 1}, 3)], ids=["exit_0", "exit_3"])
def test_command_runs_on_one_blas_thread_and_puts_the_count_back(tmp_path, toy_route,
                                                                 blas_threads, monkeypatch,
                                                                 extra, code):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**TOY_CONFIG, **extra}))
    seen = record_blas_threads(monkeypatch, blas_threads)
    assert blas_threads() == 2
    assert main(["advisory", "--route", str(toy_route), "--config", str(cfg),
                 "--out", str(tmp_path / "advisory")]) == code
    assert seen == [1]
    assert blas_threads() == 2


def test_command_that_raises_puts_the_blas_count_back(tmp_path, toy_route, config_file,
                                                       blas_threads, monkeypatch):
    seen = record_blas_threads(monkeypatch, blas_threads, fail=KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        main(["advisory", "--route", str(toy_route), "--config", str(config_file),
              "--out", str(tmp_path / "advisory")])
    assert seen == [1]
    assert blas_threads() == 2


def test_command_without_blas_thread_calls_changes_nothing(tmp_path, toy_route, config_file,
                                                           blas_threads, monkeypatch):
    monkeypatch.setattr(cli, "_blas_thread_calls", lambda: None)
    seen = record_blas_threads(monkeypatch, blas_threads)
    assert main(["advisory", "--route", str(toy_route), "--config", str(config_file),
                 "--out", str(tmp_path / "advisory")]) == 0
    assert seen == [2]
    assert blas_threads() == 2


def test_missing_file_exit_2(tmp_path, config_file):
    assert main(["advisory", "--route", str(tmp_path / "nope.csv"),
                 "--config", str(config_file), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("stage, second", [("fit", "--report-out"), ("update", "--log")])
def test_second_output_in_missing_directory_writes_nothing(tmp_path, toy_build, stage, second,
                                                           capsys):
    out = tmp_path / "out"
    out.mkdir()
    missing = tmp_path / "missing_dir" / "second"
    argv = command_for(stage, toy_build, toy_build / "config.json", out / "first.json")
    assert main(argv + [second, str(missing)]) == 2
    assert f"output directory not found for {missing}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_output_in_missing_directory_names_the_path(tmp_path, toy_build, capsys):
    missing = tmp_path / "missing_dir" / "report.csv"
    assert main(command_for("eval", toy_build, toy_build / "config.json", missing)) == 2
    err = capsys.readouterr().err
    assert str(missing) in err and ".tmp_" not in err


@pytest.mark.parametrize("stage", ["eval", "bench"])
def test_report_in_missing_directory_exits_before_any_work(tmp_path, toy_build, stage, capsys):
    # the report used to be computed and printed before its write failed
    missing = tmp_path / "missing_dir" / "report"
    assert main(command_for(stage, toy_build, toy_build / "config.json", missing)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"output directory not found for {missing}" in captured.err


@pytest.mark.parametrize("stage, work", [("fit", "fit_trajectories"), ("update", "stream_ticks")])
def test_output_in_missing_directory_exits_before_fitting_or_streaming(tmp_path, toy_build,
                                                                       monkeypatch, stage, work):
    # the directory used to be checked only after the fit or the stream
    def refuse(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output directory was checked")

    monkeypatch.setattr(cli, work, refuse)
    missing = tmp_path / "missing_dir" / "model.json"
    assert main(command_for(stage, toy_build, toy_build / "config.json", missing)) == 2


@pytest.mark.parametrize("stage, second", [("fit", "--report-out"), ("update", "--log")])
def test_second_output_that_is_a_directory_writes_nothing(tmp_path, toy_build, stage, second,
                                                          capsys):
    # the first output used to be written before the second's write failed
    out = tmp_path / "out"
    out.mkdir()
    taken = out / "taken"
    taken.mkdir()
    argv = command_for(stage, toy_build, toy_build / "config.json", out / "first.json")
    assert main(argv + [second, str(taken)]) == 2
    assert capsys.readouterr().err == f"error: output path is a directory: {taken}\n"
    assert [p.name for p in out.iterdir()] == ["taken"]
    assert list(taken.iterdir()) == []


@pytest.mark.parametrize("stage, second", [("fit", "--report-out"), ("update", "--log")])
@pytest.mark.parametrize("spelling", ["same", "dotted", "symlinked"])
def test_two_outputs_naming_one_file_exit_3(tmp_path, toy_build, stage, second, spelling,
                                            capsys):
    # the second output used to overwrite the first, and the command exit 0
    out = tmp_path / "out"
    out.mkdir()
    (tmp_path / "link").symlink_to(out)
    first = out / "m.json"
    again = {"same": str(first), "dotted": os.path.join(str(tmp_path), ".", "out", "m.json"),
             "symlinked": str(tmp_path / "link" / "m.json")}[spelling]
    argv = command_for(stage, toy_build, toy_build / "config.json", first)
    assert main(argv + [second, again]) == 3
    assert capsys.readouterr().err == f"error: outputs {first} and {again} name one file\n"
    assert list(out.iterdir()) == []


@pytest.fixture
def build_copy(tmp_path, toy_build, monkeypatch):
    """A copy of the toy build as the working directory, with link a symlink to it."""
    build = tmp_path / "build"
    shutil.copytree(toy_build, build)
    (build / "link").symlink_to(build)
    monkeypatch.chdir(build)
    return build


def file_bytes(root):
    """Every file under root, by relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("argv, output, given", [
    (["update", "--model", "model.json", "--data", "drivers/driver_01.csv", "--segment", "10",
      "30", "--out", "drivers/driver_01.csv"], "drivers/driver_01.csv", "drivers/driver_01.csv"),
    (["update", "--model", "model.json", "--data", "drivers/driver_01.csv", "--segment", "10",
      "30", "--out", "model.json"], "model.json", "model.json"),
    (["fit", "--data", "drivers", "--model-out", "drivers/driver_01.csv"],
     "drivers/driver_01.csv", "drivers/driver_01.csv"),
    (["fit", "--data", "drivers", "--model-out", "m.json", "--report-out",
      "./drivers/../drivers/driver_03.csv"],
     "./drivers/../drivers/driver_03.csv", "drivers/driver_03.csv"),
    (["eval", "--model", "model.json", "--data", "drivers/driver_02.csv",
      "--out", "drivers/driver_02.csv"], "drivers/driver_02.csv", "drivers/driver_02.csv"),
    (["bench", "--model", "model.json", "--data", "drivers", "--out", "link/model.json"],
     "link/model.json", "model.json"),
], ids=["update_data", "update_model", "fit_roster", "fit_report_dotted", "eval_data",
        "bench_model_symlinked"])
def test_output_naming_an_input_exit_3(build_copy, argv, output, given, capsys):
    # each of these once exited 0 with the input replaced by the output
    before = file_bytes(build_copy)
    assert main(argv + ["--config", "config.json"]) == 3
    assert capsys.readouterr().err == f"error: output {output} and input {given} name one file\n"
    assert file_bytes(build_copy) == before


@pytest.mark.parametrize("argv, copies, output, given", [
    (["advisory", "--route", "route.csv", "--out", "new", "--config", "new/advisory_meta.json"],
     {"new/advisory_meta.json": "config.json"}, "new/advisory_meta.json",
     "new/advisory_meta.json"),
    (["simulate", "--advisory", "advisory/advisory_time.csv", "--out", "new",
      "--config", "new/driver_02.csv"],
     {"new/driver_02.csv": "config.json"}, "new/driver_02.csv", "new/driver_02.csv"),
    (["fit", "--data", "drivers", "--model-out", "config.json", "--config", "config.json"],
     {}, "config.json", "config.json"),
    (["update", "--model", "model.json", "--data", "drivers/driver_01.csv", "--segment", "10",
      "30", "--out", "m.json", "--log", "./drivers/../config.json", "--config", "config.json"],
     {}, "./drivers/../config.json", "config.json"),
    (["eval", "--model", "model.json", "--data", "drivers/driver_02.csv", "--out", "config.json",
      "--config", "config.json"], {}, "config.json", "config.json"),
    (["bench", "--model", "model.json", "--data", "drivers", "--out", "link/config.json",
      "--config", "config.json"], {}, "link/config.json", "config.json"),
    (["advisory", "--route", "new/advisory_time.csv", "--out", "new", "--config", "config.json"],
     {"new/advisory_time.csv": "route.csv"}, "new/advisory_time.csv", "new/advisory_time.csv"),
    (["advisory", "--route", "new/advisory_distance.csv", "--out", "link/new",
      "--config", "config.json"], {"new/advisory_distance.csv": "route.csv"},
     "link/new/advisory_distance.csv", "new/advisory_distance.csv"),
    (["simulate", "--advisory", "new/driver_01.csv", "--out", "new", "--config", "config.json"],
     {"new/driver_01.csv": "advisory/advisory_time.csv"}, "new/driver_01.csv",
     "new/driver_01.csv"),
    (["simulate", "--advisory", "new/driver_03.csv", "--out", "link/new",
      "--config", "config.json"], {"new/driver_03.csv": "advisory/advisory_time.csv"},
     "link/new/driver_03.csv", "new/driver_03.csv"),
], ids=["advisory_config", "simulate_config", "fit_config", "update_log_config_dotted",
        "eval_config", "bench_config_symlinked", "advisory_route", "advisory_route_symlinked",
        "simulate_advisory", "simulate_advisory_symlinked"])
def test_output_naming_the_config_or_the_advisory_input_exit_3(build_copy, argv, copies, output,
                                                                given, capsys):
    # each of these once exited 0 with the configuration, the route or the
    # advisory replaced by an output: --config was no input to the file
    # rule, and advisory and simulate did not apply it
    for target, source in copies.items():
        (build_copy / target).parent.mkdir(exist_ok=True)
        shutil.copyfile(build_copy / source, build_copy / target)
    before = file_bytes(build_copy)
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: output {output} and input {given} name one file\n"
    assert file_bytes(build_copy) == before


@pytest.mark.parametrize("stage", ["fit", "bench"])
@pytest.mark.parametrize("data, later, first", [
    (["drivers/driver_03.csv", "drivers/driver_03.csv"], "drivers/driver_03.csv",
     "drivers/driver_03.csv"),
    (["drivers", "drivers/driver_03.csv"], "drivers/driver_03.csv", "drivers/driver_03.csv"),
    (["drivers", "link/drivers"], "link/drivers/driver_01.csv", "drivers/driver_01.csv"),
], ids=["twice", "directly_and_in_its_directory", "symlinked_directory"])
def test_data_file_named_twice_exit_3(build_copy, stage, data, later, first, capsys):
    # a file named twice was read twice: its pairs counted double in the fit
    # and could fall on both sides of the train/test cut
    before = file_bytes(build_copy)
    out = {"fit": ["--model-out", "m.json"],
           "bench": ["--model", "model.json", "--out", "r.json"]}[stage]
    assert main([stage, "--data", *data, *out, "--config", "config.json"]) == 3
    assert capsys.readouterr().err == f"error: input {later} and input {first} name one file\n"
    assert file_bytes(build_copy) == before


def all_paths(root):
    """Every file and directory under root, by relative path."""
    return sorted(p.relative_to(root) for p in root.rglob("*"))


@pytest.mark.parametrize("argv, made, message", [
    (["advisory", "--route", "route.csv", "--out", "o1"], ["o1/advisory_time.csv"],
     "output path is a directory: o1/advisory_time.csv"),
    (["advisory", "--route", "route.csv", "--out", "o3"], ["o3"],
     "output directory o3 cannot be made: o3 is not a directory"),
    (["simulate", "--advisory", "advisory/advisory_time.csv", "--out", "o2"], ["o2"],
     "output directory o2 cannot be made: o2 is not a directory"),
    (["simulate", "--advisory", "advisory/advisory_time.csv", "--out", "o4"],
     ["o4/driver_02.csv"], "output path is a directory: o4/driver_02.csv"),
    (["advisory", "--route", "route.csv", "--out", "o3/sub/x"], ["o3"],
     "output directory o3/sub/x cannot be made: o3 is not a directory"),
    (["simulate", "--advisory", "advisory/advisory_time.csv", "--out", "o3/sub/x"], ["o3"],
     "output directory o3/sub/x cannot be made: o3 is not a directory"),
], ids=["advisory_output_is_a_directory", "advisory_out_is_a_file", "simulate_out_is_a_file",
        "simulate_output_is_a_directory", "advisory_out_under_a_file",
        "simulate_out_under_a_file"])
def test_bad_out_directory_exits_2_before_solving_or_driving(build_copy, monkeypatch, argv,
                                                             made, message, capsys):
    # each of these used to run the solve or a drive first, and some wrote
    # files before failing on the --out directory or naming a temp file
    def refuse(*args, **kwargs):
        raise AssertionError("the work ran before the --out directory was checked")

    monkeypatch.setattr(cli, "solve_eco_dp", refuse)
    monkeypatch.setattr(cli, "simulate_driver", refuse)
    for path in made:  # a path ending in .csv is made a directory, the rest a file
        if path.endswith(".csv"):
            (build_copy / path).mkdir(parents=True)
        else:
            (build_copy / path).write_text("")
    before, paths = file_bytes(build_copy), all_paths(build_copy)
    assert main(argv + ["--config", "config.json"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert (file_bytes(build_copy), all_paths(build_copy)) == (before, paths)


@pytest.mark.parametrize("argv", [
    ["fit", "--data", "drivers", "--model-out", ""],
    ["fit", "--data", "drivers", "--model-out", "m.json", "--report-out", ""],
    ["update", "--model", "model.json", "--data", "drivers/driver_01.csv", "--segment", "10",
     "30", "--out", ""],
    ["update", "--model", "model.json", "--data", "drivers/driver_01.csv", "--segment", "10",
     "30", "--out", "u.json", "--log", ""],
    ["eval", "--model", "model.json", "--data", "drivers/driver_01.csv", "--out", ""],
    ["bench", "--model", "model.json", "--data", "drivers", "--out", ""],
    ["advisory", "--route", "route.csv", "--out", ""],
    ["simulate", "--advisory", "advisory/advisory_time.csv", "--out", ""],
], ids=["fit_model_out", "fit_report_out", "update_out", "update_log", "eval_out", "bench_out",
        "advisory_out", "simulate_out"])
def test_empty_output_path_exits_2_before_any_work(build_copy, monkeypatch, argv, capsys):
    # each of these used to run the whole stage, then exit 2 from open("") or
    # os.makedirs(""), or exit 0 with nothing written; fit and update also
    # made a temp file in the working directory's parent first
    def refuse(*args, **kwargs):
        raise AssertionError("the work ran before the empty output path was refused")

    for kernel in ("solve_eco_dp", "simulate_driver", "fit_trajectories", "stream_ticks",
                   "evaluate_horizons", "bench_update"):
        monkeypatch.setattr(cli, kernel, refuse)
    root = build_copy.parent
    before, paths = file_bytes(root), all_paths(root)
    assert main(argv + ["--config", "config.json"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: [Errno 2] No such file or directory: ''\n")
    assert (file_bytes(root), all_paths(root)) == (before, paths)


@pytest.mark.parametrize("stage", ["fit", "update", "eval", "bench"])
@pytest.mark.parametrize("row, cells, message", [
    (5, "0.1,nan,100.0,10.0", "v contains non-finite values"),
    (5, "0.2,10.0,100.0,10.0", "time spacing must equal {period}; sample 3 has spacing 0.125"),
], ids=["nan_speed", "bad_time"])
def test_trajectory_refusal_names_the_file(build_copy, stage, row, cells, message, capsys):
    # the constructor's message used to reach the command line without the file
    bad = build_copy / "drivers" / "driver_02.csv"
    lines = bad.read_text().splitlines(keepends=True)
    lines[row] = cells + "\n"
    bad.write_text("".join(lines))
    t = np.loadtxt(bad, delimiter=",", skiprows=1, usecols=0)
    data = {"fit": "drivers", "bench": "drivers"}.get(stage, "drivers/driver_02.csv")
    argv = command_for(stage, build_copy, "config.json", "out")
    argv[argv.index("--data") + 1] = data
    assert main(argv) == 3
    message = message.format(period=float(np.median(np.diff(t))))
    assert capsys.readouterr().err == f"error: drivers/driver_02.csv: {message}\n"
    assert not (build_copy / "out").exists()


def write_model_version(path, version):
    doc = json.loads(path.read_text())
    doc["schema_version"] = version
    path.write_text(json.dumps(doc))


def write_route_row(root, cells):
    """r.csv: the toy route with the node at 40 m replaced by cells."""
    lines = (root / "route.csv").read_text().splitlines(keepends=True)
    lines[5] = cells + "\n"
    (root / "r.csv").write_text("".join(lines))


def shift_advisory(src, dst, start):
    """dst: the advisory time CSV at src with its times moved to begin at start."""
    table = np.loadtxt(src, delimiter=",", skiprows=1)
    header = src.read_text().splitlines()[0]
    dst.write_text(header + "\n" + "".join(f"{t + start!r},{v!r}\n" for t, v in table.tolist()))


ADVISORY = ["advisory", "--route", "route.csv", "--out", "o"]
SIMULATE = ["simulate", "--advisory", "advisory/advisory_time.csv", "--out", "o"]
FIT = ["fit", "--data", "drivers", "--model-out", "m.json"]


@pytest.mark.parametrize("argv, setup, code, message", [
    (["fit", "--data", "bad.csv", "--model-out", "m.json"],
     lambda root: (root / "bad.csv").write_text(
         "t_s,v_mps,f_tr_n,v_ref_mps\n0.0,1.0,2.0,3.0\n0.025,1.0,x,3.0\n"), 3,
     "bad.csv: malformed trajectory row: could not convert string 'x' to float64 "
     "at row 1, column 3."),
    (["fit", "--data", "one.csv", "--model-out", "m.json"],
     lambda root: (root / "one.csv").write_text("t_s,v_mps,f_tr_n,v_ref_mps\n0.0,1.0,2.0,3.0\n"),
     3, "one.csv: expected at least 2 rows of 4 columns, got (1, 4)"),
    (["eval", "--model", "model.json", "--data", "drivers/driver_01.csv"],
     lambda root: write_model_version(root / "model.json", 2), 3,
     "model.json: unsupported schema_version 2, expected 1"),
    (["bench", "--model", "model.json", "--data", "empty"],
     lambda root: (root / "empty").mkdir(), 2, "no .csv files in directory empty"),
    (["fit", "--data", "drivers", "nope.csv", "--model-out", "m.json"], None, 2,
     "data file not found: nope.csv"),
    (["eval", "--model", "model.json", "--data", "drivers/driver_01.csv", "--config", "c.json"],
     lambda root: (root / "c.json").write_text(json.dumps(
         dict(TOY_CONFIG, eval={"horizons_s": [10.0]}))), 3,
     "eval needs --segment (or eval.segment_s in the configuration)"),
    (["advisory", "--route", "r.csv", "--out", "o"],
     lambda root: write_route_row(root, "40.0,5.0,5.1,0,0.0"), 4,
     "route infeasible at node 4 (40.0 m): no grid speed inside limits [5.0, 5.1]"),
    (["advisory", "--route", "r.csv", "--out", "o"],
     lambda root: write_route_row(root, "40.0,5.0,4.0,0,0.0"), 3,
     "r.csv: need 0 <= v_min < v_max at every node"),
    (["advisory", "--route", "r.csv", "--out", "o"],
     lambda root: write_route_row(root, "40.0,0.0,13.9,0,inf"), 3,
     "r.csv: route arrays must be finite"),
    (["advisory", "--route", "r.csv", "--out", "o"],
     lambda root: write_route_row(root, "40.0,nan,13.9,0,0.0"), 3,
     "r.csv: route arrays must be finite"),
    (ADVISORY + ["--config", "cfg.json"], lambda root: write_config(
        root, **advisory_with(powertrain={"engine_idle_kg_per_s": 0.0})), 3,
     "section 'advisory.powertrain': engine idle fuel rate must be positive"),
    (ADVISORY + ["--config", "cfg.json"], lambda root: write_config(
        root, **advisory_with(v_levels=1)), 3,
     "section 'advisory': advisory.v_levels must be an integer >= 2, got 1"),
    (ADVISORY + ["--config", "cfg.json"], lambda root: write_config(
        root, **advisory_with(soc_initial=0.1)), 3,
     "section 'advisory': initial state of charge must lie within the bounds"),
    (ADVISORY + ["--config", "cfg.json"], lambda root: write_config(
        root, sample_period=1000.0), 3, "profile is shorter than one sample period"),
    (SIMULATE + ["--config", "cfg.json"], lambda root: write_config(
        root, drivers=dict(TOY_CONFIG["drivers"], gain_jitter=1.0)), 3,
     "section 'drivers': drivers.gain_jitter must lie in [0, 1), got 1.0"),
    (SIMULATE + ["--config", "cfg.json"], lambda root: write_config(
        root, drivers=dict(TOY_CONFIG["drivers"], distracted={})), 3,
     "section 'drivers.distracted' must be a list of JSON objects, got {}"),
    (SIMULATE + ["--config", "cfg.json"], lambda root: write_config(
        root, **distracted_with(noise_scale=-1.0)), 3,
     "section 'drivers.distracted': drivers.distracted.noise_scale must be >= 0, got -1.0"),
    (SIMULATE + ["--config", "cfg.json"], lambda root: write_config(
        root, driver=dict(TOY_CONFIG["driver"], kp=-1.0)), 3,
     "section 'driver': gains must be non-negative"),
    (SIMULATE + ["--config", "cfg.json"], lambda root: write_config(
        root, driver=dict(TOY_CONFIG["driver"], reaction_delay=-0.1)), 3,
     "section 'driver': driver.reaction_delay must be >= 0, got -0.1"),
    (SIMULATE + ["--config", "cfg.json"], lambda root: write_config(
        root, driver=dict(TOY_CONFIG["driver"], force_rate_limit=0.0)), 3,
     "section 'driver': driver.force_rate_limit must be positive, got 0.0"),
    (SIMULATE + ["--config", "cfg.json"], lambda root: write_config(
        root, driver=dict(TOY_CONFIG["driver"], noise_std=-1.0)), 3,
     "section 'driver': driver.noise_std must be >= 0, got -1.0"),
    (SIMULATE + ["--config", "cfg.json"], lambda root: write_config(
        root, driver=dict(TOY_CONFIG["driver"], compliance=2.0)), 3,
     "section 'driver': driver.compliance must lie in [0, 1], got 2.0"),
    (SIMULATE + ["--config", "cfg.json"], lambda root: write_config(
        root, driver=dict(TOY_CONFIG["driver"], hold_tau=0.0)), 3,
     "section 'driver': driver.hold_tau must be positive, got 0.0"),
    (FIT + ["--ridge", "-1"], None, 3,
     "section 'fit': fit.ridge must be a number >= 0, got -1.0"),
    (FIT + ["--degree", "0"], None, 3,
     "section 'fit': fit.max_degree must be an integer >= 1, got 0"),
    (FIT + ["--split", "0.5", "0.0001", "0.4999"], None, 3,
     "validation part is empty; dataset is too small for this split"),
    (["fit", "--data", "short.csv", "--model-out", "m.json", "--degree", "5"],
     lambda root: (root / "short.csv").write_text("".join(
         (root / "drivers" / "driver_01.csv").read_text().splitlines(keepends=True)[:21])), 3,
     "15 transition pairs cannot determine 21 columns; add data or use ridge > 0"),
    (["update", "--model", "model.json", "--data", "drivers/driver_01.csv", "--segment", "10",
      "30", "--out", "u.json", "--cadence", "0"], None, 3,
     "section 'rls': cadence must be positive, got 0.0"),
    # a floor at the top limit made a grid of one speed repeated, and one
    # above it a falling grid that the DP refused as infeasible (exit 4)
    (ADVISORY + ["--config", "cfg.json"], lambda root: write_config(
        root, **advisory_with(speed_floor=13.9)), 3,
     "speed_floor 13.9 m/s must lie below the route's top speed limit 13.9 m/s"),
    (ADVISORY + ["--config", "cfg.json"], lambda root: write_config(
        root, **advisory_with(speed_floor=20.0)), 3,
     "speed_floor 20.0 m/s must lie below the route's top speed limit 13.9 m/s"),
    # every drive starts at t = 0: an advisory that starts later once shifted
    # each drive by its start, silently
    (["simulate", "--advisory", "late.csv", "--out", "o"], lambda root: shift_advisory(
        root / "advisory" / "advisory_time.csv", root / "late.csv", 100.0), 3,
     "late.csv: advisory time must start at 0.0 s, got 100.0 s"),
], ids=["malformed_row", "one_row", "schema_version", "empty_data_directory",
        "missing_data_file", "eval_without_segment", "no_grid_speed_inside_the_limits",
        "route_v_max_below_v_min", "route_inf_grade", "route_nan_v_min",
        "advisory.powertrain.engine_idle_kg_per_s", "advisory.v_levels",
        "advisory.soc_initial", "sample_period_over_the_drive", "drivers.gain_jitter",
        "drivers.distracted-object", "drivers.distracted.noise_scale", "driver.kp",
        "driver.reaction_delay", "driver.force_rate_limit", "driver.noise_std",
        "driver.compliance", "driver.hold_tau", "ridge", "degree", "split_leaving_a_part_empty",
        "fewer_pairs_than_columns", "cadence", "speed_floor_at_the_top_limit",
        "speed_floor_above_the_top_limit", "advisory_time_origin"])
def test_refused_input_exits_with_its_message(build_copy, argv, setup, code, message, capsys):
    if setup is not None:
        setup(build_copy)
    if "--config" not in argv:
        argv = argv + ["--config", "config.json"]
    before, paths = file_bytes(build_copy), all_paths(build_copy)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert (file_bytes(build_copy), all_paths(build_copy)) == (before, paths)


@pytest.mark.parametrize("split, shown", [
    (0.8, "0.8"),
    ([0.8, 0.1, "0.1"], "(0.8, 0.1, '0.1')"),
    ([0.8, 0.1, None], "(0.8, 0.1, None)"),
    ([0.8, [0.1], 0.1], "(0.8, [0.1], 0.1)"),
    ("abc", "'abc'"),
    ([0.8, 0.1, True], "(0.8, 0.1, True)"),
], ids=["number", "string_entry", "null_entry", "list_entry", "string", "bool_entry"])
def test_split_is_held_to_the_number_rule(build_copy, split, shown, capsys):
    # the split's annotation is none the number rule checks: these failed a
    # len() or a comparison with messages naming no key, and true was taken
    # as 1, refused only by the sum
    write_config(build_copy, fit=dict(TOY_CONFIG["fit"], split=split))
    before, paths = file_bytes(build_copy), all_paths(build_copy)
    assert main(FIT + ["--config", "cfg.json"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: section 'fit': fit.split needs three fractions in (0, 1], got {shown}\n")
    assert (file_bytes(build_copy), all_paths(build_copy)) == (before, paths)


def cap_address_space():
    """Hold a child process to 2 GiB of address space."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("degree, columns", [(3000, 4504501),
                                             (1000000000, 500000001500000001)])
def test_fit_refuses_a_huge_degree_before_building_its_basis(toy_build, tmp_path, degree,
                                                             columns):
    # two 400-sample drives: samples 0..639 train, 399 + 239 pairs. Each case
    # runs in a child held to 2 GiB and 60 s, so a fit that built the basis
    # (4.5 million monomials at degree 3000) or asked for R (591 TiB) fails
    # fast instead of filling memory
    data = tmp_path / "drivers"
    data.mkdir()
    for name in ("driver_01.csv", "driver_02.csv"):
        rows = (toy_build / "drivers" / name).read_text().splitlines(keepends=True)
        (data / name).write_text("".join(rows[:401]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "koopdrive.cli", "fit", "--data", str(data),
         "--model-out", str(tmp_path / "model.json"), "--degree", str(degree)],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap_address_space)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", f"error: 638 transition pairs cannot determine {columns} columns; "
        "add data or use ridge > 0\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["drivers"]


def test_bad_json_exit_3(tmp_path, toy_route):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["advisory", "--route", str(toy_route), "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 3


def test_unknown_config_key_exit_3(tmp_path, toy_route):
    cfg = dict(TOY_CONFIG)
    cfg["typo_section"] = {}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["advisory", "--route", str(toy_route), "--config", str(p),
                 "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("cells", [("nan", "2.5"), ("2.5", "nan"), ("-1", "1.0"), ("0.5", "0")],
                         ids=["nan", "2.5", "minus_1", "half"])
def test_route_stop_other_than_0_or_1_exit_3(tmp_path, config_file, cells, capsys):
    # stop cells of data rows 100 and 200 of the shipped route, both 0 there
    lines = SHIPPED_ROUTE.read_text().splitlines()
    for row, cell in zip((100, 200), cells):
        fields = lines[row].split(",")
        fields[3] = cell
        lines[row] = ",".join(fields)
    route = tmp_path / "route.csv"
    route.write_text("\n".join(lines) + "\n")
    out = tmp_path / "adv"
    assert main(["advisory", "--route", str(route), "--config", str(config_file),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    bad = next(float(c) for c in cells if float(c) not in (0.0, 1.0))
    row = 100 if float(cells[0]) not in (0.0, 1.0) else 200
    assert f"got {bad!r} in data row {row} (position_m {10.0 * (row - 1)!r})" in err
    assert not out.exists()


_FIRST_STEP = "node positions must rise by a positive finite step, got {} between the first two"


@pytest.mark.parametrize("nodes,row,cell,message", [
    (2, 2, "inf", _FIRST_STEP.format("inf")),
    (None, 2, "-10.0", _FIRST_STEP.format("-10.0")),
    (None, 300, "nan", "node position spacing must equal 10.0; sample 298 has spacing nan"),
    (None, 300, "2991.0", "node position spacing must equal 10.0; sample 298 has spacing 11.0"),
], ids=["two_nodes_second_inf", "second_negative", "nan", "off_grid"])
def test_route_positions_off_the_grid_exit_3(tmp_path, config_file, nodes, row, cell, message,
                                             capsys):
    # every node position must sit on one grid of positive finite step; a
    # two-node route whose second node is at inf would otherwise read as a
    # route of infinite step and fail only in the solver
    lines = SHIPPED_ROUTE.read_text().splitlines()[:None if nodes is None else nodes + 1]
    fields = lines[row].split(",")
    fields[0] = cell
    lines[row] = ",".join(fields)
    route = tmp_path / "route.csv"
    route.write_text("\n".join(lines) + "\n")
    out = tmp_path / "adv"
    assert main(["advisory", "--route", str(route), "--config", str(config_file),
                 "--out", str(out)]) == 3
    assert f"{route}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("shift", [100.0, -10.0])
def test_route_not_starting_at_0_m_exit_3(tmp_path, config_file, shift, capsys):
    # the profile places node j at j * step_m, so a route shifted along the
    # road would be written out as if it started at 0 m
    header, *rows = SHIPPED_ROUTE.read_text().splitlines()
    shifted = [f"{float(row.split(',')[0]) + shift!r},{row.split(',', 1)[1]}" for row in rows]
    route = tmp_path / "route.csv"
    route.write_text("\n".join([header, *shifted]) + "\n")
    out = tmp_path / "adv"
    assert main(["advisory", "--route", str(route), "--config", str(config_file),
                 "--out", str(out)]) == 3
    assert (f"{route}: node positions must start at 0.0 m, got {shift!r} m"
            in capsys.readouterr().err)
    assert not out.exists()


def test_infeasible_route_exit_4(tmp_path, config_file):
    # mandatory 9 m/s next to a stop is kinematically unreachable
    p = tmp_path / "bad_route.csv"
    p.write_text("position_m,v_min_mps,v_max_mps,stop,grade\n"
                 "0.0,0.0,13.9,1,0.0\n"
                 "10.0,9.0,13.9,0,0.0\n"
                 "20.0,0.0,13.9,1,0.0\n")
    assert main(["advisory", "--route", str(p), "--config", str(config_file),
                 "--out", str(tmp_path / "o")]) == 4


def test_eval_missing_model_exit_2(tmp_path, config_file):
    assert main(["eval", "--model", str(tmp_path / "no_model.json"),
                 "--data", str(tmp_path / "no_data.csv"),
                 "--config", str(config_file)]) == 2


def test_simulate_requires_config(tmp_path, toy_route):
    out = tmp_path / "o"
    rc = main(["simulate", "--advisory", str(toy_route), "--out", str(out)])
    assert rc == 3


@pytest.mark.parametrize("stage", ["advisory", "simulate"])
def test_command_without_vehicle_section_exit_3(tmp_path, toy_build, stage, capsys):
    # both price or drive the configured vehicle; no other section stands in
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({k: v for k, v in TOY_CONFIG.items() if k != "vehicle"}))
    assert main(command_for(stage, toy_build, cfg, out)) == 3
    err = capsys.readouterr().err
    assert f"{stage} requires --config with a vehicle section" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_advisory_prices_the_configured_vehicle(tmp_path, toy_route):
    # a lighter vehicle changes the plan, and the command writes what the
    # library solves for that vehicle
    route = RouteSpec.read_csv(str(toy_route))
    written = {}
    for mass in (2200.0, 1800.0):
        vehicle = dict(TOY_CONFIG["vehicle"], mass=mass)
        out = tmp_path / f"adv_{mass:.0f}"
        assert main(["advisory", "--route", str(toy_route), "--config",
                     str(write_config(tmp_path, vehicle=vehicle)), "--out", str(out)]) == 0
        profile = solve_eco_dp(route, VehicleParams(**vehicle),
                               EcoDpConfig(**TOY_CONFIG["advisory"]))
        profile.to_csv(str(tmp_path / "expected.csv"))
        distance = (out / "advisory_distance.csv").read_bytes()
        assert distance == (tmp_path / "expected.csv").read_bytes()
        total_cost = json.loads((out / "advisory_meta.json").read_text())["total_cost"]
        assert total_cost == profile.total_cost
        written[mass] = (distance, total_cost)
    assert written[1800.0][0] != written[2200.0][0]
    assert written[1800.0][1] != written[2200.0][1]


def test_fit_rejects_malformed_csv(tmp_path, config_file):
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n")
    rc = main(["fit", "--data", str(bad), "--config", str(config_file),
               "--model-out", str(tmp_path / "m.json")])
    assert rc == 3


def test_fit_state_peak_without_pow2_scale_exit_3(tmp_path, config_file, capsys):
    # a training force peak of 1.5e308 rounds to 2**1024, which no float holds
    t = np.arange(400) * 0.025
    data = tmp_path / "driver_01.csv"
    Trajectory(sample_period=0.025, t=t, v=np.full(400, 10.0), f_tr=np.full(400, 1.5e308),
               v_ref=np.full(400, 12.0)).write_csv(data)
    out = tmp_path / "m.json"
    assert main(["fit", "--data", str(data), "--config", str(config_file),
                 "--model-out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "f_tr" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("action", ["error", "always"])
def test_fit_on_a_test_sample_whose_lift_overflows_exit_3(tmp_path, toy_build, action, capsys):
    # the last driver's tail is the test split; 1e120 cubed overflows its
    # lift, which exits 3 naming the samples, with no numpy warning whether
    # warnings are errors, as in this suite's settings, or are all shown
    data = tmp_path / "drivers"
    shutil.copytree(toy_build / "drivers", data)
    traj = Trajectory.read_csv(data / "driver_03.csv")
    traj.v[-20] = 1e120
    traj.write_csv(data / "driver_03.csv")
    out = tmp_path / "m.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action, RuntimeWarning)
        assert main(["fit", "--data", str(data), "--config", str(toy_build / "config.json"),
                     "--model-out", str(out)]) == 3
    err = capsys.readouterr().err
    assert re.search(r"trajectory 0: samples \d+\.\.\d+ \(t = .* s\) lift to non-finite", err)
    assert "Traceback" not in err and "Warning" not in err
    assert caught == []
    assert not out.exists()


@pytest.mark.parametrize("stage", ["eval", "update", "bench"])
def test_data_at_another_sample_period_exit_3(tmp_path, toy_build, stage, capsys):
    # the model is fit on 0.025 s data; every second sample of a driver is 0.05 s data
    traj = Trajectory.read_csv(toy_build / "drivers" / "driver_01.csv")
    coarse = tmp_path / "coarse.csv"
    Trajectory(sample_period=2 * traj.sample_period, t=traj.t[::2], v=traj.v[::2],
               f_tr=traj.f_tr[::2], v_ref=traj.v_ref[::2]).write_csv(coarse)
    out = tmp_path / "out"
    argv = command_for(stage, toy_build, toy_build / "config.json", out)
    argv[argv.index("--data") + 1] = str(coarse)
    if stage == "eval":
        argv.append("--online")
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "sample_period 0.05" in err and "the model has 0.02" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("stage", ["eval", "update", "fit"])
def test_recording_cut_after_1024_s_has_the_model_period(tmp_path, toy_build, stage):
    # past t = 1024 s the spacings of arange(n) * 0.025 are a few ulps of t off
    # 0.025, so the period read back as their median is 3.6e-12 relative off
    traj = Trajectory.read_csv(toy_build / "drivers" / "driver_01.csv")
    late = tmp_path / "late.csv"
    Trajectory(sample_period=0.025, t=(np.arange(len(traj)) + 41200) * 0.025, v=traj.v,
               f_tr=traj.f_tr, v_ref=traj.v_ref).write_csv(late)
    assert abs(Trajectory.read_csv(late).sample_period - 0.025) > 1e-12 * 0.025
    out = tmp_path / "out"
    argv = command_for(stage, toy_build, toy_build / "config.json", out)
    data = argv.index("--data") + 1
    if stage == "fit":  # a roster mixing an early and a late recording
        argv[data:data + 1] = [str(toy_build / "drivers" / "driver_01.csv"), str(late)]
    else:
        argv[data] = str(late)
    if stage == "update":
        argv[argv.index("--segment") + 1:argv.index("--segment") + 3] = ["1040", "1060"]
    if stage == "eval":
        argv += ["--segment", "1040", "1060", "--online"]
    assert main(argv) == 0
    assert out.exists()


def test_update_without_config_uses_online_settings_lambda(tmp_path, toy_route, config_file):
    out = run_pipeline(tmp_path, toy_route, config_file, "f")
    upd = out / "model_upd.json"
    assert main(["update", "--model", str(out / "model.json"),
                 "--data", str(out / "drivers" / "driver_01.csv"),
                 "--segment", "10", "30", "--out", str(upd)]) == 0
    provenance = json.loads(upd.read_text())["provenance"]
    assert provenance["lambda"] == OnlineSettings().lam
    assert provenance["cadence_s"] == OnlineSettings().cadence_s


def test_update_unknown_rls_key_exit_3(tmp_path, toy_route, config_file):
    out = run_pipeline(tmp_path, toy_route, config_file, "g")
    cfg = dict(TOY_CONFIG, rls={"lamda": 0.99})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    upd = out / "model_upd.json"
    assert main(["update", "--model", str(out / "model.json"),
                 "--data", str(out / "drivers" / "driver_01.csv"),
                 "--segment", "10", "30", "--config", str(p), "--out", str(upd)]) == 3
    assert not upd.exists()


def test_rejected_update_exit_4(tmp_path, toy_route, config_file, capsys):
    # a per-sample forgetting factor this small leaves the first fold of
    # pairs the information of its last few rows only, singular to working
    # precision by the offline fit's rank rule
    out = run_pipeline(tmp_path, toy_route, config_file, "h")
    upd = out / "model_upd.json"
    assert main(["update", "--model", str(out / "model.json"),
                 "--data", str(out / "drivers" / "driver_01.csv"),
                 "--segment", "10", "20", "--config", str(config_file),
                 "--lam", "0.001", "--out", str(upd)]) == 4
    assert "information is singular to working precision" in capsys.readouterr().err
    assert not upd.exists()


@pytest.mark.parametrize("cadence", ["1.0", "0.5"])
def test_update_whose_fold_overflows_theta_exit_4(tmp_path, cadence, capsys):
    # the last sample lifts to finite but huge values: its pair's error norm
    # overflows to inf and is accepted, and the fold after it is refused
    # rather than leaving a non-finite theta for the snapshot to find
    model = tmp_path / "model.json"
    KoopmanModel(LiftedBasis(), np.zeros((9, 10)), 0.025).save(model)
    rng = np.random.default_rng(0)
    v = 10.0 + rng.standard_normal(41)
    v[-1] = 5e102
    data = tmp_path / "traj.csv"
    Trajectory(sample_period=0.025, t=np.arange(41) * 0.025, v=v,
               f_tr=100.0 * rng.standard_normal(41), v_ref=np.full(41, 10.0)).write_csv(data)
    upd = tmp_path / "upd.json"
    assert main(["update", "--model", str(model), "--data", str(data), "--segment", "0", "1.0",
                 "--cadence", cadence, "--out", str(upd)]) == 4
    assert "folded theta is not finite" in capsys.readouterr().err
    assert not upd.exists()


@pytest.mark.parametrize("command", [
    ["update", "--segment", "0", "10", "--out", "upd.json"],
    ["eval", "--online", "--segment", "0", "10", "--horizons", "1", "--out", "eval.csv"],
], ids=["update", "eval-online"])
def test_refused_tick_names_its_samples_and_times(tmp_path, command, capsys):
    # the speed of sample 250 overflows the lift, so pair 9 of the tick
    # that starts at sample 240 (t = 6.0 s) is refused; the message once
    # named the pair in the tick but not the tick
    model = tmp_path / "model.json"
    KoopmanModel(LiftedBasis(), np.zeros((9, 10)), 0.025).save(model)
    v = np.full(401, 10.0)
    v[250] = 1e120
    data = tmp_path / "traj.csv"
    Trajectory(sample_period=0.025, t=np.arange(401) * 0.025, v=v, f_tr=np.full(401, 100.0),
               v_ref=np.full(401, 10.0)).write_csv(data)
    out = tmp_path / command[-1]
    argv = command[:1] + ["--model", str(model), "--data", str(data)] + command[1:-1] + [str(out)]
    assert main(argv) == 4
    assert capsys.readouterr() == ("", (
        "error: tick of samples 240 to 280 (t = 6.0 s to 7.0 s): tick aborted at buffered "
        "pair 9: update rejected: non-finite prediction error\n"))
    assert not out.exists()


def test_update_of_an_updated_model_records_this_run(tmp_path):
    # the carried-over provenance once overwrote this run's update count and
    # forgetting factor with the first run's
    model = tmp_path / "model.json"
    KoopmanModel(LiftedBasis(), np.zeros((9, 10)), 0.025).save(model)
    rng = np.random.default_rng(1)
    data = tmp_path / "traj.csv"
    Trajectory(sample_period=0.025, t=np.arange(201) * 0.025, v=10.0 + rng.standard_normal(201),
               f_tr=100.0 * rng.standard_normal(201), v_ref=np.full(201, 10.0)).write_csv(data)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["update", "--model", str(model), "--data", str(data), "--segment", "0", "1.0",
                 "--lam", "0.99", "--out", str(first)]) == 0
    assert main(["update", "--model", str(first), "--data", str(data), "--segment", "0", "4.0",
                 "--lam", "0.95", "--out", str(second)]) == 0
    provenance = [json.loads(path.read_text())["provenance"] for path in (first, second)]
    assert [(prov["updates"], prov["lambda"]) for prov in provenance] == [(40, 0.99), (160, 0.95)]
    assert provenance[1]["updated_from"] == "first.json"
    assert list(provenance[0]) == list(provenance[1]) == [
        "fitted_by", "updates", "lambda", "updated_from", "update_segment", "cadence_s"]


def test_update_of_a_fitted_model_records_rls(tmp_path, toy_build):
    # the fitted model's "fitted_by": "edmd.fit" was once carried over
    fitted = json.loads((toy_build / "model.json").read_text())["provenance"]
    assert fitted["fitted_by"] == "edmd.fit"
    upd = tmp_path / "upd.json"
    assert main(["update", "--model", str(toy_build / "model.json"),
                 "--data", str(toy_build / "drivers" / "driver_01.csv"),
                 "--segment", "10", "30", "--out", str(upd)]) == 0
    provenance = json.loads(upd.read_text())["provenance"]
    assert provenance["fitted_by"] == "rls"
    assert list(provenance)[:3] == ["fitted_by", "updates", "lambda"]
    assert provenance["updated_from"] == "model.json"


def test_update_segment_past_data_exit_3(tmp_path, toy_route, config_file, capsys):
    out = run_pipeline(tmp_path, toy_route, config_file, "i")
    upd = out / "model_upd.json"
    assert main(["update", "--model", str(out / "model.json"),
                 "--data", str(out / "drivers" / "driver_01.csv"),
                 "--segment", "10", "9999", "--config", str(config_file),
                 "--out", str(upd)]) == 3
    assert "extends beyond" in capsys.readouterr().err
    assert not upd.exists()


def write_config(tmp_path, **sections):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(TOY_CONFIG, **sections)))
    return p


def simulate_with(tmp_path, toy_route, config_file, cfg):
    adv = tmp_path / "adv"
    assert main(["advisory", "--route", str(toy_route), "--config", str(config_file),
                 "--out", str(adv)]) == 0
    out = tmp_path / "drivers"
    rc = main(["simulate", "--advisory", str(adv / "advisory_time.csv"),
               "--config", str(cfg), "--out", str(out)])
    assert not out.exists()
    return rc


def test_missing_config_key_exit_3(tmp_path, toy_route, config_file, capsys):
    vehicle = {k: v for k, v in TOY_CONFIG["vehicle"].items() if k != "mass"}
    cfg = write_config(tmp_path, vehicle=vehicle)
    assert simulate_with(tmp_path, toy_route, config_file, cfg) == 3
    assert "missing keys: mass" in capsys.readouterr().err


def test_distracted_entry_without_t_start_exit_3(tmp_path, toy_route, config_file):
    drivers = dict(TOY_CONFIG["drivers"], distracted=[{"index": 2, "t_end": 25.0}])
    cfg = write_config(tmp_path, drivers=drivers)
    assert simulate_with(tmp_path, toy_route, config_file, cfg) == 3


@pytest.mark.parametrize("drivers", [
    dict(TOY_CONFIG["drivers"], gain_jiter=0.1),
    dict(TOY_CONFIG["drivers"], distracted=[{"index": 2, "t_start": 10.0, "t_end": 25.0,
                                             "complaince": 0.2}]),
], ids=["drivers", "distracted"])
def test_unknown_drivers_key_exit_3(tmp_path, toy_route, config_file, drivers, capsys):
    cfg = write_config(tmp_path, drivers=drivers)
    assert simulate_with(tmp_path, toy_route, config_file, cfg) == 3
    assert "unknown keys" in capsys.readouterr().err


@pytest.mark.parametrize("index", ["2", -1, 3, True],
                         ids=["string", "negative", "equal_to_count", "bool"])
def test_bad_distracted_index_exit_3(tmp_path, toy_route, config_file, index, capsys):
    cfg = write_config(tmp_path, **distracted_with(index=index))
    assert simulate_with(tmp_path, toy_route, config_file, cfg) == 3
    err = capsys.readouterr().err
    assert f"index {index!r}" in err and "[0, 3)" in err


def test_driver_count_below_a_distracted_index_exit_3(tmp_path, toy_route, config_file,
                                                      capsys):
    adv = tmp_path / "adv"
    assert main(["advisory", "--route", str(toy_route), "--config", str(config_file),
                 "--out", str(adv)]) == 0
    out = tmp_path / "drivers"
    assert main(["simulate", "--advisory", str(adv / "advisory_time.csv"), "--config",
                 str(config_file), "--drivers", "2", "--out", str(out)]) == 3
    assert "index 2" in capsys.readouterr().err
    assert not out.exists()


def test_advisory_meta_does_not_depend_on_the_directory(tmp_path, config_file, monkeypatch):
    metas = []
    for sub, relative in (("a", True), ("b/c", False)):
        d = tmp_path / sub
        d.mkdir(parents=True)
        route = write_toy_route(d / "route.csv")
        monkeypatch.chdir(d)
        assert main(["advisory", "--route", "route.csv" if relative else str(route),
                     "--config", str(config_file), "--out", str(d / "advisory")]) == 0
        metas.append((d / "advisory" / "advisory_meta.json").read_bytes())
    assert metas[0] == metas[1]
    meta = json.loads(metas[0])
    assert meta["route"] == "route.csv"
    digest = hashlib.sha256((tmp_path / "a" / "route.csv").read_bytes()).hexdigest()
    assert meta["route_sha256"] == digest


def test_simulate_reuses_csv_cells_only_for_equal_bytes(tmp_path, config_file, monkeypatch):
    # a driver reuses the t and v_ref cells of the driver before only when
    # its own columns have the same bytes: drivers 3 and 4 differ from the
    # advisory only in the sign of one zero in v_ref and driver 5 only in the
    # sign of t[0], so the roster formats three row templates. One usable
    # CPU, so this process writes every driver.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    t = np.arange(5) * 0.025
    v_ref = np.array([0.0, 1.5, 0.0, 0.1 + 0.2, 7.0])
    advisory = tmp_path / "advisory_time.csv"
    advisory.write_text("t_s,v_ref_mps\n" + "".join(f"{a!r},{r!r}\n"
                                                      for a, r in zip(t.tolist(), v_ref.tolist())))
    flipped, t_signed = v_ref.copy(), t.copy()
    flipped[2] = t_signed[0] = -0.0
    columns = [(t, v_ref), (t, v_ref), (t, flipped), (t, flipped), (t_signed, v_ref)]
    n = len(t)

    def fake_driver(vehicle, driver, v_ref, sample_period, *, seed, windows):
        t_col, v_ref_col = columns[seed - TOY_CONFIG["seed"]]
        return Trajectory(sample_period=sample_period, t=t_col, v=np.full(n, 3.0 + seed),
                          f_tr=np.full(n, -1.0), v_ref=v_ref_col)

    monkeypatch.setattr("koopdrive.cli.simulate_driver", fake_driver)
    _row_template.cache_clear()
    out = tmp_path / "drivers"
    assert main(["simulate", "--advisory", str(advisory), "--config", str(config_file),
                 "--drivers", "5", "--out", str(out)]) == 0
    info = _row_template.cache_info()
    assert (info.misses, info.hits) == (3, 2)
    for k, (t_col, v_ref_col) in enumerate(columns):
        cols = (t_col, np.full(n, 3.0 + k), np.full(n, -1.0), v_ref_col)
        expected = ["t_s,v_mps,f_tr_n,v_ref_mps"] + [
            ",".join(repr(float(col[i])) for col in cols) for i in range(n)
        ]
        assert (out / f"driver_0{k + 1}.csv").read_bytes() == (
            "\n".join(expected) + "\n").encode()
    assert (out / "driver_03.csv").read_text().split("\n")[3].endswith(",-0.0")
    assert (out / "driver_05.csv").read_text().split("\n")[1].startswith("-0.0,")


@pytest.fixture
def toy_advisory(tmp_path, toy_route, config_file):
    """The toy route's advisory_time.csv."""
    adv = tmp_path / "adv"
    assert main(["advisory", "--route", str(toy_route), "--config", str(config_file),
                 "--out", str(adv)]) == 0
    return adv / "advisory_time.csv"


def assert_no_child_process(threads):
    # neither a running worker nor an exited one left unjoined: waitpid finds
    # no child at all (active_children alone would reap an unjoined one); and
    # no thread the pool started (its manager, a queue feeder) is left, so
    # the count is back to threads, read before the command
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


def test_simulate_on_several_processes_matches_one(tmp_path, toy_advisory, config_file,
                                                   monkeypatch):
    # 5 drivers on 4 usable CPUs: a pool of four forked workers
    written = {}
    threads = threading.active_count()
    for cpus in ({0}, {0, 1, 2, 3}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        out = tmp_path / f"drivers_{len(cpus)}"
        assert main(["simulate", "--advisory", str(toy_advisory), "--config",
                     str(config_file), "--drivers", "5", "--out", str(out)]) == 0
        assert_no_child_process(threads)
        written[len(cpus)] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(written[1]) == [f"driver_0{k}.csv" for k in range(1, 6)]
    assert written[1] == written[4]


def test_simulate_on_one_cpu_imports_no_process_module(tmp_path, toy_advisory, config_file):
    # a fresh process, so no other test's imports count: the one-CPU run is
    # the serial loop, which loads neither process module
    script = ("import os, sys\n"
              "os.sched_getaffinity = lambda pid: {0}\n"
              "from koopdrive.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(code, sorted(m for m in sys.modules if m.split('.')[0] in "
              "('multiprocessing', 'concurrent')))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, "simulate", "--advisory", str(toy_advisory),
         "--config", str(config_file), "--out", str(tmp_path / "drivers")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert len(list((tmp_path / "drivers").iterdir())) == TOY_CONFIG["drivers"]["count"]


def test_simulate_failure_in_a_worker_exits_as_serial(tmp_path, toy_advisory, config_file,
                                                      monkeypatch, capsys):
    # drivers 2 and 3 fail; on two processes each runs in a worker, and
    # driver 2's failure is reported, as the serial loop reports it
    real = cli.simulate_driver

    def failing(vehicle, driver, v_ref, sample_period, *, seed, windows):
        if seed in (1, 2):
            raise ValueError(f"driver seed {seed} failed")
        return real(vehicle, driver, v_ref, sample_period, seed=seed, windows=windows)

    monkeypatch.setattr("koopdrive.cli.simulate_driver", failing)
    outcomes = []
    threads = threading.active_count()
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        code = main(["simulate", "--advisory", str(toy_advisory), "--config",
                     str(config_file), "--out", str(tmp_path / f"drivers_{len(cpus)}")])
        outcomes.append((code, capsys.readouterr().err))
        assert_no_child_process(threads)
    assert outcomes == [(3, "error: driver seed 1 failed\n")] * 2


def test_simulate_reports_the_lower_failure_that_raises_later(tmp_path, toy_advisory,
                                                              config_file, monkeypatch, capsys):
    # drivers 2 and 3 fail, driver 2 half a second after it starts: on two
    # processes one worker sleeps in driver 2 while the other runs drivers 1
    # and 3, so driver 3 raises first. Driver 2's failure is still the one
    # reported, as the serial loop reports it; results read in completion
    # order would report driver 3's.
    real = cli.simulate_driver
    raised = tmp_path / "raised.txt"

    def failing(vehicle, driver, v_ref, sample_period, *, seed, windows):
        if seed in (1, 2):
            if seed == 1:
                time.sleep(0.5)
            with open(raised, "a", encoding="utf-8") as fh:
                fh.write(f"{seed}\n")
            raise ValueError(f"driver seed {seed} failed")
        return real(vehicle, driver, v_ref, sample_period, seed=seed, windows=windows)

    monkeypatch.setattr("koopdrive.cli.simulate_driver", failing)
    threads = threading.active_count()
    for cpus, order in (({0}, "1\n"), ({0, 1}, "2\n1\n")):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        raised.write_text("")
        code = main(["simulate", "--advisory", str(toy_advisory), "--config",
                     str(config_file), "--out", str(tmp_path / f"drivers_{len(cpus)}")])
        assert (code, capsys.readouterr().err) == (3, "error: driver seed 1 failed\n"), cpus
        assert raised.read_text() == order, cpus  # the case's premise: who raised first
        assert_no_child_process(threads)


def test_simulate_worker_that_dies_exits_2(tmp_path, toy_advisory, config_file, monkeypatch,
                                          capsys):
    caller = os.getpid()
    real = cli.simulate_driver

    def dying(vehicle, driver, v_ref, sample_period, *, seed, windows):
        if seed == 1 and os.getpid() != caller:
            os._exit(7)
        return real(vehicle, driver, v_ref, sample_period, seed=seed, windows=windows)

    monkeypatch.setattr("koopdrive.cli.simulate_driver", dying)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    threads = threading.active_count()
    assert main(["simulate", "--advisory", str(toy_advisory), "--config", str(config_file),
                 "--out", str(tmp_path / "drivers")]) == 2
    assert capsys.readouterr().err == ("error: a roster worker process died before "
                                       "reporting its driver\n")
    assert_no_child_process(threads)


def test_simulate_gives_each_drive_its_seed_gains_and_windows(tmp_path, toy_advisory,
                                                              monkeypatch):
    # driver 2's two windows are given around driver 0's one: each drive gets
    # seed + index, that index's windows in file order and PI gains drawn
    # from default_rng([seed + index, 17]). On two CPUs the spy runs in the
    # pool's workers, so it records to a file.
    distracted = [{"index": 2, "t_start": 30.0, "t_end": 40.0, "compliance": 0.5,
                   "noise_scale": 1.5},
                  {"index": 0, "t_start": 5.0, "t_end": 8.0},
                  {"index": 2, "t_start": 10.0, "t_end": 25.0}]
    cfg = write_config(tmp_path, seed=11, drivers={"count": 3, "gain_jitter": 0.1,
                                                   "distracted": distracted})
    calls = tmp_path / "calls.jsonl"
    real = cli.simulate_driver

    def spy(vehicle, driver, v_ref, sample_period, *, seed, windows):
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([seed, dataclasses.asdict(driver),
                                 [dataclasses.asdict(w) for w in windows]]) + "\n")
        return real(vehicle, driver, v_ref, sample_period, seed=seed, windows=windows)

    expected = {}
    for i in range(3):
        jrng = np.random.default_rng([11 + i, 17])
        kp, ki = (TOY_CONFIG["driver"][gain] * (1.0 + 0.1 * (2.0 * jrng.random() - 1.0))
                  for gain in ("kp", "ki"))
        expected[11 + i] = [dict(TOY_CONFIG["driver"], kp=kp, ki=ki),
                            [{"compliance": 0.2, "noise_scale": 2.0, **w}
                             for w in distracted if w["index"] == i]]
    assert [len(expected[11 + i][1]) for i in range(3)] == [1, 0, 2]
    monkeypatch.setattr("koopdrive.cli.simulate_driver", spy)
    written = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        calls.write_text("")
        out = tmp_path / f"drivers_{len(cpus)}"
        assert main(["simulate", "--advisory", str(toy_advisory), "--config", str(cfg),
                     "--out", str(out)]) == 0
        records = [json.loads(line) for line in calls.read_text().splitlines()]
        assert sorted(seed for seed, _, _ in records) == [11, 12, 13], cpus
        assert {seed: [driver, windows] for seed, driver, windows in records} == expected
        written[len(cpus)] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert written[1] == written[2]


def assert_simulate_refused(tmp_path, speeds, config, message, monkeypatch, capsys):
    """simulate on an advisory of the given speeds exits 3 with message and
    leaves no --out directory, on one CPU and on two: every drive refuses
    the input, so none is written and no directory is made."""
    advisory = tmp_path / "advisory_time.csv"
    advisory.write_text("t_s,v_ref_mps\n" + "".join(f"{k * 0.025},{v}\n"
                                                   for k, v in enumerate(speeds)))
    threads = threading.active_count()
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        out = tmp_path / f"drivers_{len(cpus)}"
        assert main(["simulate", "--advisory", str(advisory), "--config", str(config),
                     "--out", str(out)]) == 3, cpus
        assert capsys.readouterr().err == f"error: {message}\n", cpus
        assert not out.exists(), cpus
        assert_no_child_process(threads)


def test_simulate_negative_first_advisory_speed_exit_3(tmp_path, config_file, monkeypatch,
                                                        capsys):
    # a drive starts at the advisory's first speed, which may not be negative
    assert_simulate_refused(tmp_path, ["-0.5", "1.0", "2.0"], config_file,
                            "the advisory's first speed must be >= 0, got -0.5",
                            monkeypatch, capsys)


@pytest.mark.parametrize("speeds, driver, message", [
    (["0.0", "nan", "2.0"], {}, "advisory speeds must be finite"),
    (["0.0", "1.0", "2.0"], {"reaction_delay": 1e308},
     "reaction_delay of 1e+308 s over sample_period=0.025 s is not a finite number of samples"),
], ids=["nan_speed", "huge_reaction_delay"])
def test_simulate_input_every_drive_refuses_leaves_no_out_directory(tmp_path, speeds, driver,
                                                                    message, monkeypatch,
                                                                    capsys):
    # the --out directory used to be made before the first drive ran
    config = write_config(tmp_path, driver=dict(TOY_CONFIG["driver"], **driver))
    assert_simulate_refused(tmp_path, speeds, config, message, monkeypatch, capsys)


def test_roster_shares_columns_only_for_equal_bytes(tmp_path):
    # driver 3's t differs from driver 2's only in the sign of t[0], and
    # drivers 4 and 5 follow another advisory
    t = np.arange(5) * 0.025
    t_signed = t.copy()
    t_signed[0] = -0.0
    v_ref = np.array([0.0, 1.5, 2.0, 0.1 + 0.2, 7.0])
    other = v_ref + 1.0
    columns = [(t, v_ref), (t, v_ref), (t_signed, v_ref), (t_signed, other), (t, other)]
    paths = []
    for i, (t_col, v_ref_col) in enumerate(columns):
        paths.append(tmp_path / f"driver_{i + 1}.csv")
        Trajectory(sample_period=0.025, t=t_col, v=np.full(5, 3.0 + i), f_tr=np.full(5, -1.0),
                   v_ref=v_ref_col).write_csv(paths[-1])
    trajs = _read_trajectories([str(p) for p in paths])
    assert [trajs[i].t is trajs[i - 1].t for i in range(1, 5)] == [True, False, True, False]
    assert [trajs[i].v_ref is trajs[i - 1].v_ref for i in range(1, 5)] == [True, True, False, True]
    for traj, (t_col, v_ref_col) in zip(trajs, columns):
        assert traj.t.tobytes() == t_col.tobytes()
        assert traj.v_ref.tobytes() == v_ref_col.tobytes()
    # a shared column is read-only; one held by a single trajectory is not
    assert [traj.t.flags.writeable for traj in trajs] == [False, False, False, False, True]
    assert not any(traj.v_ref.flags.writeable for traj in trajs)
    with pytest.raises(ValueError, match="read-only"):
        trajs[1].t[0] = 1.0
    assert all(traj.v.flags.writeable and traj.f_tr.flags.writeable for traj in trajs)


def test_unknown_eval_key_exit_3(tmp_path, toy_route, config_file):
    out = run_pipeline(tmp_path, toy_route, config_file, "j")
    cfg = write_config(tmp_path, eval=dict(TOY_CONFIG["eval"], horizon_s=[5.0]))
    reports = out / "reports.csv"
    assert main(["eval", "--model", str(out / "model.json"),
                 "--data", str(out / "drivers" / "driver_01.csv"),
                 "--config", str(cfg), "--out", str(reports)]) == 3
    assert not reports.exists()


@pytest.mark.parametrize("flags, horizons", [
    ([], [10.0, 5.0]), (["--horizons", "5", "20", "10"], [5.0, 20.0, 10.0]),
    (["--horizons", "2.25", "2.2", "0.025"], [2.25, 2.2, 0.025]),
], ids=["configured", "flag", "labels"])
def test_bench_reports_each_horizon_in_order(tmp_path, toy_build, flags, horizons, capsys):
    out = tmp_path / "bench.json"
    assert main(command_for("bench", toy_build, toy_build / "config.json", out) + flags) == 0
    pairs = sum(len(Trajectory.read_csv(p)) - 1 for p in sorted((toy_build / "drivers").iterdir()))
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(horizons) + 1
    for line, h in zip(lines, horizons):
        assert re.fullmatch(rf"horizon {re.escape(f'{h!r:>5}')} s: refit +\d+\.\d ms, "
                            r"tick +\d+\.\d us, speedup +(\d+\.\d|inf)x", line), line
    assert lines[-1] == (f"warning: dataset has only {pairs} transition pairs; timings below "
                         "1e5 pairs understate the retraining cost")
    report = json.loads(out.read_text())
    assert set(report) == {"horizons_s", "n_pairs", "offline_fit_s", "online_total_s",
                           "online_per_tick_s", "speedup", "hardware", "warning"}
    assert report["horizons_s"] == horizons and report["n_pairs"] == pairs
    for key in ("offline_fit_s", "online_total_s", "online_per_tick_s", "speedup"):
        assert len(report[key]) == len(horizons), key


@pytest.mark.parametrize("horizon", ["1000", "0.01"], ids=["past_the_drive", "under_one_step"])
def test_bench_horizon_outside_the_last_trajectory_exit_3(tmp_path, toy_build, horizon, capsys):
    out = tmp_path / "bench.json"
    argv = command_for("bench", toy_build, toy_build / "config.json", out)
    assert main(argv + ["--horizons", "5", horizon]) == 3
    captured = capsys.readouterr()
    assert captured.err == (f"error: horizon {float(horizon)} s does not fit in the last "
                            "trajectory\n")
    assert captured.out == "" and not out.exists()


def test_bench_non_numeric_model_ridge_exit_3(tmp_path, toy_route, config_file):
    # bench refits with the ridge in the model's provenance, read from the file
    out = run_pipeline(tmp_path, toy_route, config_file, "r")
    payload = json.loads((out / "model.json").read_text())
    payload["provenance"]["ridge"] = "none"
    model = tmp_path / "model_bad_ridge.json"
    model.write_text(json.dumps(payload))
    assert main(["bench", "--model", str(model), "--data", str(out / "drivers"),
                 "--config", str(config_file), "--horizons", "5.0"]) == 3


@pytest.fixture(scope="module")
def toy_build(tmp_path_factory):
    """One advisory, roster and fitted model on the toy route for the config cases."""
    root = tmp_path_factory.mktemp("toy_build")
    route = write_toy_route(root / "route.csv")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(TOY_CONFIG))
    assert main(["advisory", "--route", str(route), "--config", str(cfg),
                 "--out", str(root / "advisory")]) == 0
    assert main(["simulate", "--advisory", str(root / "advisory" / "advisory_time.csv"),
                 "--config", str(cfg), "--out", str(root / "drivers")]) == 0
    assert main(["fit", "--data", str(root / "drivers"), "--config", str(cfg),
                 "--model-out", str(root / "model.json")]) == 0
    return root


def command_for(stage, build, cfg, out):
    data = str(build / "drivers" / "driver_01.csv")
    model = str(build / "model.json")
    return {
        "advisory": ["advisory", "--route", str(build / "route.csv"), "--out", str(out)],
        "simulate": ["simulate", "--advisory", str(build / "advisory" / "advisory_time.csv"),
                     "--out", str(out)],
        "fit": ["fit", "--data", str(build / "drivers"), "--model-out", str(out)],
        "update": ["update", "--model", model, "--data", data, "--segment", "10", "30",
                   "--out", str(out)],
        "eval": ["eval", "--model", model, "--data", data, "--out", str(out)],
        "bench": ["bench", "--model", model, "--data", str(build / "drivers"),
                  "--out", str(out)],
    }[stage] + ["--config", str(cfg)]


def distracted_with(**entry):
    window = dict(TOY_CONFIG["drivers"]["distracted"][0], **entry)
    return {"drivers": dict(TOY_CONFIG["drivers"], distracted=[window])}


def advisory_with(powertrain=None, **entries):
    sec = dict(TOY_CONFIG["advisory"], **entries)
    if powertrain is not None:
        sec["powertrain"] = powertrain
    return {"advisory": sec}


@pytest.mark.parametrize("stage, sections, message", [
    ("simulate", {"vehicle": dict(TOY_CONFIG["vehicle"], mass="x")}, "section 'vehicle'"),
    ("simulate", {"driver": dict(TOY_CONFIG["driver"], kp="x")}, "section 'driver'"),
    ("simulate", distracted_with(t_start="x"), "section 'drivers.distracted'"),
    ("advisory", {"advisory": dict(TOY_CONFIG["advisory"], gamma="x")}, "section 'advisory'"),
    ("update", {"rls": {"lam": "x"}}, "section 'rls'"),
    ("update", {"rls": {"cadence_s": "x"}}, "section 'rls'"),
    ("fit", {"fit": dict(TOY_CONFIG["fit"], max_degree="x")}, "max_degree"),
    ("fit", {"fit": dict(TOY_CONFIG["fit"], max_degree=2.5)}, "max_degree"),
    ("fit", {"fit": dict(TOY_CONFIG["fit"], split="0.8")}, "section 'fit'"),
    ("eval", {"eval": dict(TOY_CONFIG["eval"], segment_s=[10])}, "eval.segment_s"),
    ("eval", {"eval": dict(TOY_CONFIG["eval"], horizons_s="5")}, "eval.horizons_s"),
    ("eval", {"eval": dict(TOY_CONFIG["eval"], horizons_s=["5"])}, "eval.horizons_s"),
    ("eval", {"eval": dict(TOY_CONFIG["eval"], horizons_s=[])}, "eval.horizons_s"),
    ("advisory", advisory_with(powertrain=True),
     "section 'advisory.powertrain' must be a JSON object"),
    ("advisory", advisory_with(powertrain=[1]),
     "section 'advisory.powertrain' must be a JSON object"),
    ("advisory", advisory_with(powertrain="x"),
     "section 'advisory.powertrain' must be a JSON object"),
    ("simulate", {"drivers": dict(TOY_CONFIG["drivers"],
                                  distracted=TOY_CONFIG["drivers"]["distracted"] + [[1]])},
     "section 'drivers.distracted' must be a JSON object"),
    ("eval", {"eval": []}, "section 'eval' must be a JSON object"),
], ids=["vehicle.mass", "driver.kp", "distracted.t_start", "advisory.gamma", "rls.lam",
        "rls.cadence_s", "fit.max_degree", "fit.max_degree-float", "fit.split", "eval.segment_s",
        "eval.horizons_s-str", "eval.horizons_s-list-of-str", "eval.horizons_s-empty",
        "advisory.powertrain-true", "advisory.powertrain-list", "advisory.powertrain-str",
        "drivers.distracted-list", "eval-list"])
def test_wrong_typed_config_value_exit_3(tmp_path, toy_build, stage, sections, message,
                                         capsys):
    out = tmp_path / "out"
    good = write_config(tmp_path)
    assert main(command_for(stage, toy_build, good, out)) == 0
    if out.is_dir():
        shutil.rmtree(out)
    else:
        out.unlink()
    capsys.readouterr()
    bad = write_config(tmp_path, **sections)
    assert main(command_for(stage, toy_build, bad, out)) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("stage, sections, message", [
    ("advisory", {"fit": dict(TOY_CONFIG["fit"], ridg=0.0)}, "section 'fit': unknown keys: ridg"),
    ("advisory", {"eval": dict(TOY_CONFIG["eval"], horizons_s="x")}, "eval.horizons_s"),
    ("simulate", advisory_with(gama=0.5), "section 'advisory': unknown keys: gama"),
    ("simulate", {"rls": {"lam": "x"}}, "rls.lam must be finite"),
    ("fit", advisory_with(gama=0.5), "section 'advisory': unknown keys: gama"),
    ("fit", {"eval": dict(TOY_CONFIG["eval"], horizons_s="x")}, "eval.horizons_s"),
    ("fit", {"rls": {"lam": 7}}, "section 'rls': forgetting factor"),
    ("update", advisory_with(gama=0.5), "section 'advisory': unknown keys: gama"),
    ("update", {"eval": dict(TOY_CONFIG["eval"], segment_s=[10])}, "eval.segment_s"),
    ("eval", advisory_with(gama=0.5), "section 'advisory': unknown keys: gama"),
    ("eval", {"rls": {"lam": 7}}, "section 'rls': forgetting factor"),
    ("bench", advisory_with(gama=0.5), "section 'advisory': unknown keys: gama"),
    ("bench", {"vehicle": dict(TOY_CONFIG["vehicle"], mass="x")}, "vehicle.mass"),
    # keys of removed options: the unscaled fit, the fuel-rate normaliser and
    # the powertrain's copy of the vehicle, which is described once, in vehicle
    ("fit", {"fit": dict(TOY_CONFIG["fit"], scaling="pow2")},
     "section 'fit': unknown keys: scaling"),
    ("advisory", advisory_with(m_dot_norm=1.0), "section 'advisory': unknown keys: m_dot_norm"),
    *[("advisory", advisory_with(powertrain={key: 1.0}),
       f"section 'advisory.powertrain': unknown keys: {key}")
      for key in ("mass", "a0", "a1", "a2", "gravity")],
], ids=["advisory-fit.ridg", "advisory-eval.horizons_s", "simulate-advisory.gama",
        "simulate-rls.lam", "fit-advisory.gama", "fit-eval.horizons_s", "fit-rls.lam",
        "update-advisory.gama", "update-eval.segment_s", "eval-advisory.gama", "eval-rls.lam",
        "bench-advisory.gama", "bench-vehicle.mass", "fit-fit.scaling",
        "advisory-advisory.m_dot_norm", "advisory-powertrain.mass", "advisory-powertrain.a0",
        "advisory-powertrain.a1", "advisory-powertrain.a2", "advisory-powertrain.gravity"])
def test_section_the_command_does_not_read_is_checked_too(tmp_path, toy_build, stage, sections,
                                                          message, capsys):
    # eval runs without --online, so it does not read the rls section either
    out = tmp_path / "out"
    cfg = write_config(tmp_path, **sections)
    assert main(command_for(stage, toy_build, cfg, out)) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("stage, flags, sections", [
    ("eval", ["--horizons", "inf"], {}),
    ("eval", [], {"eval": dict(TOY_CONFIG["eval"], horizons_s=[10.0, math.inf])}),
    ("bench", ["--horizons", "inf"], {}),
    ("update", ["--cadence", "inf"], {}),
    ("update", [], {"rls": dict(TOY_CONFIG["rls"], cadence_s=math.inf)}),
    ("eval", ["--online", "--cadence", "inf"], {}),
    ("eval", ["--horizons", "1e307"], {}),
    ("eval", [], {"eval": dict(TOY_CONFIG["eval"], horizons_s=[10.0, 1e307])}),
    ("bench", ["--horizons", "1e307"], {}),
    ("update", ["--cadence", "1e307"], {}),
    ("update", [], {"rls": dict(TOY_CONFIG["rls"], cadence_s=1e307)}),
    ("eval", ["--online", "--cadence", "1e307"], {}),
    ("bench", ["--cadence", "1e307"], {}),
    ("update", ["--segment", "0", "inf"], {}),
    ("eval", ["--segment", "0", "inf"], {}),
    ("eval", [], {"eval": dict(TOY_CONFIG["eval"], segment_s=[0.0, 1e307])}),
], ids=["eval_flag", "eval.horizons_s", "bench_flag", "update_flag", "rls.cadence_s",
        "eval_online_flag", "eval_flag-overflow", "eval.horizons_s-overflow",
        "bench_flag-overflow", "update_flag-overflow", "rls.cadence_s-overflow",
        "eval_online_flag-overflow", "bench_cadence_flag-overflow", "update_segment_flag",
        "eval_segment_flag", "eval.segment_s-overflow"])
def test_non_finite_horizon_or_cadence_exit_3(tmp_path, toy_build, stage, flags, sections,
                                              capsys):
    cfg = write_config(tmp_path, **sections)
    text = cfg.read_text()
    if sections and "1e+307" not in text:  # the overflow cases write a finite value
        assert "Infinity" in text
    out = tmp_path / "out"
    assert main(command_for(stage, toy_build, cfg, out) + flags) == 3
    err = capsys.readouterr().err
    assert "finite" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("stage, sections, message", [
    ("simulate", {"drivers": dict(TOY_CONFIG["drivers"], count=True, distracted=[])},
     "driver count"),
    ("simulate", {"seed": True}, "seed"),
    ("simulate", {"vehicle": dict(TOY_CONFIG["vehicle"], mass=True)}, "mass"),
    ("simulate", {"drivers": dict(TOY_CONFIG["drivers"], gain_jitter=False)}, "gain_jitter"),
    ("simulate", distracted_with(compliance=True), "compliance"),
    ("advisory", {"sample_period": True}, "sample_period"),
    ("advisory", {"advisory": dict(TOY_CONFIG["advisory"], gamma=True)}, "gamma"),
    ("fit", {"fit": dict(TOY_CONFIG["fit"], max_degree=True)}, "max_degree"),
    ("fit", {"fit": dict(TOY_CONFIG["fit"], ridge=True)}, "ridge"),
    ("update", {"rls": {"lam": True}}, "lam"),
    ("eval", {"eval": dict(TOY_CONFIG["eval"], horizons_s=[10.0, True])}, "eval.horizons_s"),
    ("eval", {"eval": dict(TOY_CONFIG["eval"], segment_s=[True, 30.0])}, "eval.segment_s"),
    ("simulate", {"driver": dict(TOY_CONFIG["driver"], reaction_delay=math.inf)},
     "reaction_delay must be finite"),
    ("simulate", {"driver": dict(TOY_CONFIG["driver"], kp=math.nan)}, "kp must be finite"),
    ("advisory", {"advisory": dict(TOY_CONFIG["advisory"], v_levels=2.5)}, "v_levels"),
    ("advisory", {"advisory": dict(TOY_CONFIG["advisory"], soc_levels=11.0)}, "soc_levels"),
    ("simulate", distracted_with(t_start=-math.inf), "t_start must be finite"),
    ("simulate", distracted_with(t_end=math.inf), "t_end must be finite"),
    ("simulate", distracted_with(noise_scale=math.inf), "noise_scale must be finite"),
    ("simulate", {"vehicle": dict(TOY_CONFIG["vehicle"], f_min=-math.inf)},
     "f_min must be finite"),
    ("simulate", {"vehicle": dict(TOY_CONFIG["vehicle"], f_max=math.inf)},
     "f_max must be finite"),
    ("advisory", {"sample_period": math.inf},
     "sample_period must be a positive finite number, got inf"),
    # a valid period, but the profile's duration is no finite number of samples
    ("advisory", {"sample_period": 5e-324}, "over sample_period=5e-324 s"),
    # JSON integers too large for a float, which overflowed in float()
    ("advisory", {"sample_period": 10**400}, "sample_period must be a positive finite"),
    ("simulate", {"vehicle": dict(TOY_CONFIG["vehicle"], mass=10**400)},
     "mass must be finite"),
    ("advisory", {"advisory": dict(TOY_CONFIG["advisory"], gamma=10**400)},
     "gamma must be finite"),
    ("fit", {"fit": dict(TOY_CONFIG["fit"], ridge=10**400)}, "ridge must be finite"),
    ("fit", {"fit": dict(TOY_CONFIG["fit"], split=[10**400, 0.1, 0.1])}, "split needs"),
    ("update", {"rls": {"cadence_s": 10**400}}, "cadence_s must be finite"),
    ("eval", {"eval": dict(TOY_CONFIG["eval"], horizons_s=[10**400])}, "eval.horizons_s"),
    ("eval", {"eval": dict(TOY_CONFIG["eval"], segment_s=[0.0, 10**400])}, "eval.segment_s"),
    ("simulate", distracted_with(t_start=10**400), "t_start must be finite"),
], ids=["drivers.count", "seed", "vehicle.mass", "drivers.gain_jitter",
        "distracted.compliance", "sample_period", "advisory.gamma", "fit.max_degree",
        "fit.ridge", "rls.lam", "eval.horizons_s", "eval.segment_s",
        "driver.reaction_delay-inf", "driver.kp-nan", "advisory.v_levels-fraction",
        "advisory.soc_levels-float", "distracted.t_start-inf", "distracted.t_end-inf",
        "distracted.noise_scale-inf", "vehicle.f_min-inf", "vehicle.f_max-inf",
        "sample_period-inf", "sample_period-subnormal", "sample_period-1e400",
        "vehicle.mass-1e400", "advisory.gamma-1e400", "fit.ridge-1e400",
        "fit.split-1e400", "rls.cadence_s-1e400", "eval.horizons_s-1e400",
        "eval.segment_s-1e400", "distracted.t_start-1e400"])
def test_boolean_non_finite_or_fractional_config_value_exit_3(tmp_path, toy_build, stage,
                                                             sections, message, capsys):
    # a JSON true is an int to isinstance, and was taken as the number 1
    out = tmp_path / "out"
    cfg = write_config(tmp_path, **sections)
    assert main(command_for(stage, toy_build, cfg, out)) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_removed_scaling_flag_is_a_usage_error(tmp_path, toy_build, capsys):
    out = tmp_path / "model.json"
    with pytest.raises(SystemExit) as exc:
        main(command_for("fit", toy_build, toy_build / "config.json", out)
             + ["--scaling", "pow2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --scaling pow2" in capsys.readouterr().err
    assert not out.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_flag_rows() -> list[tuple[str, set, str]]:
    """(flag, commands, key) of each row of README's flag-override table."""
    table = README.read_text(encoding="utf-8").split("| flag | command | key |\n", 1)[1]
    rows = []
    for line in table.split("\n\n", 1)[0].splitlines()[1:]:
        flag, commands, key = re.fullmatch(r"\| `(--[\w-]+)` \| (.+) \| `([\w.]+)` \|",
                                           line).groups()
        rows.append((flag, set(re.findall(r"`(\w+)`", commands)), key))
    return rows


def test_flag_table_matches_parser_config_and_readme():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    options = {}  # dest -> {command: the flag's option strings there}
    for command, parser in subparsers.items():
        for action in parser._actions:
            options.setdefault(action.dest, {})[command] = action.option_strings
    rows = readme_flag_rows()
    assert sorted(key for _, _, key in rows) == sorted(cli._FLAG_KEYS.values())
    # the cli docstring names each flag and its key in one sentence of prose
    prose = re.search(r"a flag overrides one key:(.*?)\.\s", cli.__doc__, re.S).group(1)
    assert sorted(re.findall(r"(--[\w-]+)\s+([\w.]+)", prose)) == sorted(
        (flag, key) for flag, _, key in rows)
    for dest, dotted in cli._FLAG_KEYS.items():
        assert dest in options, dest
        *sections, name = dotted.split(".")
        cls = cli.Config
        for section in sections:
            cls = typing.get_type_hints(cls)[section]
        assert name in {f.name for f in dataclasses.fields(cls)}, dotted
        flag, commands = next((flag, commands) for flag, commands, key in rows if key == dotted)
        assert commands == set(options[dest]), dotted
        assert all(flag in strings for strings in options[dest].values()), dotted


# each command's options as (option strings, dest, type, nargs, required, default,
# metavar, help), recorded when each command still declared its own --lam,
# --cadence and --horizons
COMMAND_OPTIONS = {
    "advisory": {
        (("-h", "--help"), "help", None, 0, False, "==SUPPRESS==", None,
         "show this help message and exit"),
        (("--route",), "route", None, None, True, None, None,
         "route CSV (node limits, stops, grades)"),
        (("--out",), "out", None, None, True, None, None, "output directory"),
        (("--gamma",), "gamma", "float", None, False, None, None,
         "fuel/time trade-off override in [0, 1]"),
        (("--config",), "config", None, None, False, None, None, "JSON configuration file"),
    },
    "simulate": {
        (("-h", "--help"), "help", None, 0, False, "==SUPPRESS==", None,
         "show this help message and exit"),
        (("--advisory",), "advisory", None, None, True, None, None,
         "advisory time CSV from 'advisory'"),
        (("--out",), "out", None, None, True, None, None, "output directory for driver CSVs"),
        (("--drivers",), "drivers", "int", None, False, None, None,
         "number of drivers (overrides config)"),
        (("--seed",), "seed", "int", None, False, None, None, "top-level seed (overrides config)"),
        (("--config",), "config", None, None, False, None, None, "JSON configuration file"),
    },
    "fit": {
        (("-h", "--help"), "help", None, 0, False, "==SUPPRESS==", None,
         "show this help message and exit"),
        (("--data",), "data", None, "+", True, None, None,
         "trajectory CSV files or directories of them"),
        (("--model-out",), "model_out", None, None, True, None, None, "model JSON output path"),
        (("--report-out",), "report_out", None, None, False, None, None,
         "fit report JSON output path"),
        (("--ridge",), "ridge", "float", None, False, None, None, "ridge penalty override"),
        (("--degree",), "degree", "int", None, False, None, None, "basis degree override"),
        (("--split",), "split", "float", 3, False, None, ("TRAIN", "VAL", "TEST"),
         "split fractions override"),
        (("--config",), "config", None, None, False, None, None, "JSON configuration file"),
    },
    "update": {
        (("-h", "--help"), "help", None, 0, False, "==SUPPRESS==", None,
         "show this help message and exit"),
        (("--model",), "model", None, None, True, None, None, "model JSON to start from"),
        (("--data",), "data", None, None, True, None, None, "trajectory CSV"),
        (("--segment",), "segment", "float", 2, True, None, ("T0", "T1"),
         "segment bounds in seconds"),
        (("--out",), "out", None, None, True, None, None, "updated model JSON output path"),
        (("--log",), "log", None, None, False, None, None, "per-tick log CSV output path"),
        (("--lam",), "lam", "float", None, False, None, None, "forgetting factor override"),
        (("--cadence",), "cadence", "float", None, False, None, None,
         "tick cadence override in seconds"),
        (("--config",), "config", None, None, False, None, None, "JSON configuration file"),
    },
    "eval": {
        (("-h", "--help"), "help", None, 0, False, "==SUPPRESS==", None,
         "show this help message and exit"),
        (("--model",), "model", None, None, True, None, None, "model JSON"),
        (("--data",), "data", None, None, True, None, None, "trajectory CSV"),
        (("--segment",), "eval_segment", "float", 2, False, None, ("T0", "T1"),
         "segment bounds in seconds"),
        (("--horizons",), "horizons", "float", "+", False, None, None, "horizons in seconds"),
        (("--online",), "online", None, 0, False, False, None,
         "also evaluate the online-adapted predictor"),
        (("--lam",), "lam", "float", None, False, None, None, "forgetting factor override"),
        (("--cadence",), "cadence", "float", None, False, None, None,
         "tick cadence override in seconds"),
        (("--out",), "out", None, None, False, None, None, "report CSV output path"),
        (("--config",), "config", None, None, False, None, None, "JSON configuration file"),
    },
    "bench": {
        (("-h", "--help"), "help", None, 0, False, "==SUPPRESS==", None,
         "show this help message and exit"),
        (("--model",), "model", None, None, True, None, None, "model JSON"),
        (("--data",), "data", None, "+", True, None, None,
         "trajectory CSV files or directories of them"),
        (("--horizons",), "horizons", "float", "+", False, None, None, "horizons in seconds"),
        (("--lam",), "lam", "float", None, False, None, None, "forgetting factor override"),
        (("--cadence",), "cadence", "float", None, False, None, None,
         "tick cadence override in seconds"),
        (("--out",), "out", None, None, False, None, None, "benchmark report JSON output path"),
        (("--config",), "config", None, None, False, None, None, "JSON configuration file"),
    },
}


def test_each_command_keeps_its_options():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    options = {command: {(tuple(a.option_strings), a.dest, getattr(a.type, "__name__", a.type),
                          a.nargs, a.required, a.default, a.metavar, a.help)
                         for a in parser._actions}
               for command, parser in subparsers.items()}
    assert options == COMMAND_OPTIONS


@pytest.mark.parametrize("sections, message", [
    (advisory_with(powertrain={"battery_capacity_j": math.nan}),
     "battery_capacity_j must be finite"),
    (advisory_with(powertrain={"eta_regen": math.inf}), "eta_regen must be finite"),
    (advisory_with(powertrain={"engine_power_max_w": math.inf}),
     "engine_power_max_w must be finite"),
    (advisory_with(a_max=math.inf), "a_max must be finite"),
    (advisory_with(a_min=-math.inf), "a_min must be finite"),
    (advisory_with(speed_floor=math.inf), "speed_floor must be finite"),
], ids=["powertrain.battery_capacity_j-nan", "powertrain.eta_regen-inf",
        "powertrain.engine_power_max_w-inf", "a_max-inf", "a_min-inf", "speed_floor-inf"])
def test_non_finite_advisory_value_exit_3(tmp_path, toy_build, sections, message, capsys):
    # the nested powertrain section is held to the finiteness rule too, and
    # an infinite a_max would drop a bound
    out = tmp_path / "out"
    cfg = write_config(tmp_path, **sections)
    assert "NaN" in cfg.read_text() or "Infinity" in cfg.read_text()
    assert main(command_for("advisory", toy_build, cfg, out)) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("seed", 12345), ("windows", [{"t_start": 1.0}])],
                         ids=["seed", "windows"])
def test_per_driver_key_in_driver_section_exit_3(tmp_path, toy_build, key, value, capsys):
    # simulate gives each drive its seed and windows, so DriverParams has no
    # such field and the key is unknown like any other
    out = tmp_path / "out"
    cfg = write_config(tmp_path, driver=dict(TOY_CONFIG["driver"], **{key: value}))
    assert main(command_for("simulate", toy_build, cfg, out)) == 3
    err = capsys.readouterr().err
    assert err == f"error: section 'driver': unknown keys: {key}\n"
    assert "Traceback" not in err
    assert not out.exists()


def test_fit_from_a_directory_named_like_a_glob_pattern(tmp_path, toy_build):
    # "runs[1]" is a glob character class; the directory is escaped, so its
    # CSVs are found and the fit equals the one from the roster's own directory
    runs = tmp_path / "runs[1]"
    shutil.copytree(toy_build / "drivers", runs)
    model = tmp_path / "model.json"
    assert main(["fit", "--data", str(runs), "--config", str(toy_build / "config.json"),
                 "--model-out", str(model)]) == 0
    assert model.read_bytes() == (toy_build / "model.json").read_bytes()


def test_bench_boolean_model_ridge_exit_3(tmp_path, toy_build, capsys):
    # bench refits with the ridge in the model's provenance, read from the file
    payload = json.loads((toy_build / "model.json").read_text())
    payload["provenance"]["ridge"] = True
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    out = tmp_path / "bench.json"
    assert main(["bench", "--model", str(model), "--data", str(toy_build / "drivers"),
                 "--config", str(toy_build / "config.json"), "--horizons", "5.0",
                 "--out", str(out)]) == 3
    assert "ridge" in capsys.readouterr().err
    assert not out.exists()


def assert_cells_follow_format_rule(path, int_columns=(), text_columns=()):
    """Every float cell is the repr of its float and every integer cell the
    str of its int, so each cell reads back to the value that was written."""
    header, *rows = path.read_text().splitlines()
    names = header.split(",")
    assert rows
    for row in rows:
        cells = row.split(",")
        assert len(cells) == len(names)
        for name, cell in zip(names, cells):
            if name in int_columns:
                assert cell == str(int(cell)), (path.name, name, cell)
            elif name not in text_columns:
                assert cell == repr(float(cell)), (path.name, name, cell)


def test_outputs_follow_the_cell_format_rule(tmp_path, toy_build):
    cfg = toy_build / "config.json"
    data = str(toy_build / "drivers" / "driver_03.csv")
    reports, ticks = tmp_path / "reports.csv", tmp_path / "ticks.csv"
    assert main(["eval", "--model", str(toy_build / "model.json"), "--data", data,
                 "--config", str(cfg), "--online", "--out", str(reports)]) == 0
    assert main(["update", "--model", str(toy_build / "model.json"), "--data", data,
                 "--segment", "10", "30", "--config", str(cfg), "--cadence", "0.3",
                 "--out", str(tmp_path / "model_upd.json"), "--log", str(ticks)]) == 0
    assert_cells_follow_format_rule(toy_build / "advisory" / "advisory_time.csv")
    assert_cells_follow_format_rule(toy_build / "advisory" / "advisory_distance.csv",
                                    int_columns=("engine_on", "stop"))
    assert_cells_follow_format_rule(toy_build / "drivers" / "driver_03.csv")
    assert_cells_follow_format_rule(reports, int_columns=("n_windows", "n_samples"),
                                    text_columns=("variant",))
    assert_cells_follow_format_rule(ticks, int_columns=("tick", "pairs"))
    assert [row.split(",")[1] for row in reports.read_text().splitlines()[1:]] == [
        "offline", "offline", "online", "online"]

    assert_cells_follow_format_rule(SHIPPED_ROUTE, int_columns=("stop",))


def permute_monomials(doc):
    mono = doc["basis"]["monomials"]
    mono[2], mono[3] = mono[3], mono[2]


def with_scaler(scale, offset=(0.0, 0.0)):
    return lambda doc: doc["basis"].update(scaler={"scale": list(scale), "offset": list(offset)})


@pytest.mark.parametrize("edit, loads", [
    (None, True),
    (lambda doc: doc["basis"].update(state_dim=3), False),
    (permute_monomials, False),
    (lambda doc: doc.update(input_dim=7), False),
    (lambda doc: doc.update(B=[row + [0.0] for row in doc["B"]]), False),
    (with_scaler((16.0, 512.0)), True),
    (with_scaler((16.0, 512.0), offset=(1.0, 0.0)), False),
    (with_scaler((3.0, 512.0)), False),
    (with_scaler((-16.0, 512.0)), False),
    (lambda doc: doc["basis"].update(scaler=None), False),
    (lambda doc: doc["basis"].update(max_degree=True), False),
    (lambda doc: doc["basis"].update(max_degree=3.7), False),
    (lambda doc: doc["basis"].update(max_degree="3"), False),
    (lambda doc: doc["basis"].update(max_degree=10**9), False),
    (lambda doc: doc["basis"].update(state_dim=2.0), False),
    # compared by value, these exponents once equalled the canonical ones
    (lambda doc: doc["basis"].update(monomials=[[float(e) for e in exps]
                                                for exps in doc["basis"]["monomials"]]), False),
], ids=["canonical", "state_dim_3", "permuted_monomials", "input_dim_7", "two_column_B",
        "scaled_canonical", "offset_1", "scale_3", "scale_minus_16", "scaler_null",
        "max_degree_true", "max_degree_3.7", "max_degree_str", "max_degree_huge",
        "state_dim_2.0", "float_monomials"])
def test_other_model_shapes_are_rejected(tmp_path, edit, loads, capsys):
    n = 9
    model = KoopmanModel(basis=LiftedBasis(), theta=0.9 * np.eye(n, n + 1), sample_period=0.025)
    path = tmp_path / "model.json"
    model.save(path)
    if edit is not None:
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    t = np.arange(800) * 0.025
    data = tmp_path / "traj.csv"
    Trajectory(sample_period=0.025, t=t, v=np.full(800, 10.0), f_tr=np.zeros(800),
               v_ref=np.full(800, 12.0)).write_csv(data)
    rc = main(["eval", "--model", str(path), "--data", str(data), "--segment", "0", "15",
               "--horizons", "5"])
    if loads:
        assert KoopmanModel.load(path).B.shape == (n, 1)
        assert rc == 0
    else:
        with pytest.raises(ModelFileError):
            KoopmanModel.load(path)
        assert rc == 3
        assert "error:" in capsys.readouterr().err
