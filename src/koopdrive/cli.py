"""Command line pipeline: advisory, simulate, fit, update, eval, bench.

Every command validates all of its inputs before creating any output, writes
files atomically (temp file plus rename), and reports failures on stderr
with one of four exit codes: 0 on success, 2 for I/O problems, 3 for invalid
inputs or configuration, 4 for numerical failures (rank-deficient data,
diverging rollouts, infeasible routes, rejected RLS updates).

A JSON configuration file supplies the physical and algorithmic parameters;
sections use the corresponding dataclass field names. Individual flags
override single values. A top-level seed drives every stochastic choice, and
per-driver seeds derive from it as seed + driver index, so one seed pins the
whole pipeline byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import os
import sys

import numpy as np

from .advisory import (
    EcoDpConfig,
    PowertrainParams,
    RouteInfeasibleError,
    RouteSpec,
    resample_to_time,
    solve_eco_dp,
)
from .driversim import DistractionWindow, DriverParams, VehicleParams, simulate_driver
from .edmd import FitConfig, RankDeficientDataError, fit_trajectories
from .evaluate import (
    bench_update,
    evaluate_horizons,
    format_reports,
    reports_to_csv,
)
from .model import (
    KoopmanModel,
    RolloutDivergenceError,
    Trajectory,
    _check_same_sample_period,
    _check_sample_period,
    _check_spacing,
    _is_number,
    _read_csv_table,
    _write_csv_table,
    _write_json,
)
from .rls import OnlineSettings, RlsUpdateRejectedError, init_rls, snapshot_model, stream_ticks

ADVISORY_TIME_HEADER = "t_s,v_ref_mps"
DEFAULT_HORIZONS_S = (50.0, 20.0, 10.0, 5.0)

_CONFIG_SECTIONS = ("seed", "sample_period", "vehicle", "driver", "drivers",
                    "fit", "rls", "eval", "advisory")


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: configuration must be a JSON object")
    unknown = sorted(set(cfg) - set(_CONFIG_SECTIONS))
    if unknown:
        raise ValueError(f"{path}: unknown configuration keys: {', '.join(unknown)}")
    return cfg


def _section(cfg: dict, name: str) -> dict:
    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        raise ValueError(f"configuration section '{name}' must be an object")
    return dict(sec)


def _check_keys(values: dict, allowed, section: str) -> None:
    unknown = sorted(set(values) - set(allowed))
    if unknown:
        raise ValueError(f"section '{section}': unknown keys: {', '.join(unknown)}")


def _build(cls, values: dict, section: str):
    fields = dataclasses.fields(cls)
    _check_keys(values, [f.name for f in fields], section)
    missing = [f.name for f in fields if f.name not in values
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValueError(f"section '{section}': missing keys: {', '.join(missing)}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:  # a check, or a comparison of a wrong type
        raise ValueError(f"section '{section}': {exc}") from None


def _is_number_list(value) -> bool:
    return isinstance(value, list) and all(_is_number(x) for x in value)


def _eval_section(cfg: dict) -> dict:
    sec = _section(cfg, "eval")
    _check_keys(sec, ("horizons_s", "segment_s"), "eval")
    if "segment_s" in sec and not (_is_number_list(sec["segment_s"])
                                   and len(sec["segment_s"]) == 2):
        raise ValueError(f"eval.segment_s must be two finite numbers, got {sec['segment_s']!r}")
    if "horizons_s" in sec and not (_is_number_list(sec["horizons_s"]) and sec["horizons_s"]):
        raise ValueError(
            f"eval.horizons_s must be a non-empty list of finite numbers, got {sec['horizons_s']!r}"
        )
    return sec


def _online_settings(cfg: dict, args) -> OnlineSettings:
    """The rls section, with --lam and --cadence overriding single values."""
    sec = _section(cfg, "rls")
    if args.lam is not None:
        sec["lam"] = args.lam
    if args.cadence is not None:
        sec["cadence_s"] = args.cadence
    return _build(OnlineSettings, sec, "rls")


def _sample_period(cfg: dict) -> float:
    period = cfg.get("sample_period", 0.025)
    _check_sample_period(period)
    return float(period)


def _expand_data_paths(paths) -> list[str]:
    out: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            inside = sorted(glob.glob(os.path.join(p, "*.csv")))
            if not inside:
                raise FileNotFoundError(f"no .csv files in directory {p}")
            out.extend(inside)
        else:
            if not os.path.exists(p):
                raise FileNotFoundError(f"data file not found: {p}")
            out.append(p)
    return out


def _read_trajectories(paths) -> list[Trajectory]:
    """Read trajectory CSVs, holding repeated time and advisory columns once.

    A trajectory whose t (or v_ref) bytes equal the trajectory before's takes
    that array in place of its own, so a roster on one time grid following
    one advisory keeps a single copy of each. Bytes, not values, so a -0.0
    never shares with a 0.0. A shared array is made read-only: a write to it
    would change every trajectory holding it, so it fails instead.
    """
    trajectories: list[Trajectory] = []
    for path in paths:
        traj = Trajectory.read_csv(path)
        if trajectories:
            prev = trajectories[-1]
            for name in ("t", "v_ref"):
                shared = getattr(prev, name)
                if getattr(traj, name).tobytes() == shared.tobytes():
                    shared.flags.writeable = False
                    setattr(traj, name, shared)
        trajectories.append(traj)
    return trajectories


# ---------------------------------------------------------------- advisory

def _eco_config(cfg: dict, gamma_override: float | None) -> EcoDpConfig:
    sec = _section(cfg, "advisory")
    pt = sec.pop("powertrain", None)
    if pt is not None:
        sec["powertrain"] = _build(PowertrainParams, pt, "advisory.powertrain")
    if gamma_override is not None:
        sec["gamma"] = gamma_override
    return _build(EcoDpConfig, sec, "advisory")


def cmd_advisory(args) -> int:
    cfg = _load_config(args.config)
    eco = _eco_config(cfg, args.gamma)
    period = _sample_period(cfg)
    if not os.path.exists(args.route):
        raise FileNotFoundError(f"route file not found: {args.route}")
    route = RouteSpec.read_csv(args.route)
    # imported here: hashlib loads OpenSSL, about 3.5 MB of RSS that the
    # other commands would carry for nothing
    import hashlib
    with open(args.route, "rb") as fh:
        route_sha256 = hashlib.sha256(fh.read()).hexdigest()

    profile = solve_eco_dp(route, eco)
    t, v_ref = resample_to_time(profile, period)

    os.makedirs(args.out, exist_ok=True)
    profile.to_csv(os.path.join(args.out, "advisory_distance.csv"))
    _write_csv_table(os.path.join(args.out, "advisory_time.csv"), ADVISORY_TIME_HEADER,
                     zip(t.tolist(), v_ref.tolist()))
    _write_json(os.path.join(args.out, "advisory_meta.json"), {
        "route": os.path.basename(args.route),
        "route_sha256": route_sha256,
        "gamma": eco.gamma,
        "total_cost": profile.total_cost,
        "duration_s": profile.duration,
        "soc_initial": eco.soc_initial,
        "soc_final": float(profile.soc[-1]),
        "engine_steps": int(np.sum(profile.engine_on)),
        "sample_period": period,
        "samples": len(t),
    })
    print(f"advisory: {profile.duration:.1f} s over {route.total_length:.0f} m, "
          f"cost {profile.total_cost:.3f}, final SoC {profile.soc[-1]:.3f}")
    return 0


def _read_advisory_time_csv(path: str, period: float) -> np.ndarray:
    data = _read_csv_table(path, ADVISORY_TIME_HEADER, 2, "advisory")
    _check_spacing(f"{path}: advisory time", data[:, 0], period)
    return data[:, 1]


# ---------------------------------------------------------------- simulate

def cmd_simulate(args) -> int:
    if args.config is None:
        raise ValueError("simulate requires --config (vehicle parameters live there)")
    cfg = _load_config(args.config)
    period = _sample_period(cfg)
    vehicle = _build(VehicleParams, _section(cfg, "vehicle"), "vehicle")
    driver_sec = _section(cfg, "driver")
    per_driver = sorted({"seed", "windows"} & set(driver_sec))
    if per_driver:
        raise ValueError(
            f"section 'driver': {', '.join(per_driver)} cannot be set here; each driver's "
            "seed is the top-level seed plus its index, and its windows come from "
            "drivers.distracted"
        )
    driver_base = _build(DriverParams, driver_sec, "driver")

    roster = _section(cfg, "drivers")
    _check_keys(roster, ("count", "gain_jitter", "distracted"), "drivers")
    count = args.drivers if args.drivers is not None else roster.get("count", 1)
    if not (_is_number(count, int) and count >= 1):
        raise ValueError(f"driver count must be a positive integer, got {count!r}")
    gain_jitter = roster.get("gain_jitter", 0.0)
    if not (_is_number(gain_jitter) and 0 <= gain_jitter < 1):
        raise ValueError(f"gain_jitter must lie in [0, 1), got {gain_jitter!r}")
    distracted = roster.get("distracted", [])
    if not isinstance(distracted, list):
        raise ValueError("drivers.distracted must be a list")
    windows = []
    for d in distracted:
        if not isinstance(d, dict) or "index" not in d:
            raise ValueError("each drivers.distracted entry needs an 'index'")
        index = d["index"]
        if not (_is_number(index, int) and 0 <= index < count):
            raise ValueError(f"drivers.distracted index {index!r} must be an integer "
                             f"in [0, {count}) for a roster of {count} drivers")
        fields = {k: v for k, v in d.items() if k != "index"}
        windows.append((index, _build(DistractionWindow, fields, "drivers.distracted")))

    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    if not _is_number(seed, int):
        raise ValueError(f"seed must be an integer, got {seed!r}")

    v_ref = _read_advisory_time_csv(args.advisory, period)

    drivers = []
    for i in range(count):
        gains = {}
        if gain_jitter > 0:
            jrng = np.random.default_rng([seed + i, 17])
            for gain in ("kp", "ki"):
                base = getattr(driver_base, gain)
                gains[gain] = base * (1.0 + gain_jitter * (2.0 * jrng.random() - 1.0))
        drivers.append(dataclasses.replace(
            driver_base, seed=seed + i,
            windows=tuple(w for index, w in windows if index == i), **gains))

    os.makedirs(args.out, exist_ok=True)
    width = max(2, len(str(count)))
    # a driver whose t and v_ref bytes equal the driver before's reuses its
    # row template, so those cells are formatted once for the whole roster;
    # bytes, not values, so a -0.0 never borrows "0.0"
    template = columns = None
    for i, driver in enumerate(drivers):
        traj = simulate_driver(vehicle, driver, v_ref, sample_period=period)
        same = (traj.t.tobytes(), traj.v_ref.tobytes())
        template = traj.write_csv(os.path.join(args.out, f"driver_{i + 1:0{width}d}.csv"),
                                  template if same == columns else None)
        columns = same
    print(f"simulate: wrote {count} trajectories of {len(v_ref)} samples to {args.out}")
    return 0


# ---------------------------------------------------------------- fit

def cmd_fit(args) -> int:
    cfg = _load_config(args.config)
    sec = _section(cfg, "fit")
    if args.ridge is not None:
        sec["ridge"] = args.ridge
    if args.degree is not None:
        sec["max_degree"] = args.degree
    if args.scaling is not None:
        sec["scaling"] = args.scaling
    if args.split is not None:
        sec["split"] = args.split
    if isinstance(sec.get("split"), list):
        sec["split"] = tuple(sec["split"])
    fit_cfg = _build(FitConfig, sec, "fit")

    paths = _expand_data_paths(args.data)
    trajectories = _read_trajectories(paths)
    model, report = fit_trajectories(trajectories, fit_cfg)
    model.provenance["data_files"] = [os.path.basename(p) for p in paths]

    model.save(args.model_out)
    if args.report_out:
        _write_json(args.report_out, report.to_dict())
    print(f"fit: {report.split_pairs['train']} training pairs, "
          f"residual {report.residual_fro:.4g}, "
          f"condition {report.condition_number:.3g}, model -> {args.model_out}")
    return 0


# ---------------------------------------------------------------- update

def cmd_update(args) -> int:
    cfg = _load_config(args.config)
    online = _online_settings(cfg, args)

    model = KoopmanModel.load(args.model)
    traj = Trajectory.read_csv(args.data)
    _check_same_sample_period("data", traj.sample_period, "the model", model.sample_period)
    i0, i1 = traj.segment_indices(*args.segment)

    state = init_rls(model, online.lam)
    ticks = stream_ticks(state, model.basis, traj, i0, i1,
                         online.tick_steps(traj.sample_period))
    log_rows = [(tick, float(traj.t[end]), len(errs), float(np.mean(errs)))
                for tick, (end, errs) in enumerate(ticks, start=1)]

    updated = snapshot_model(state, model.basis, model.sample_period,
                             provenance={**model.provenance,
                                         "updated_from": os.path.basename(args.model),
                                         "update_segment": list(args.segment),
                                         "cadence_s": online.cadence_s})
    updated.save(args.out)
    if args.log:
        _write_csv_table(args.log, "tick,t_end_s,pairs,mean_err_norm", log_rows)
    print(f"update: {state.update_count} updates over {len(log_rows)} ticks, "
          f"model -> {args.out}")
    return 0


# ---------------------------------------------------------------- eval

def cmd_eval(args) -> int:
    cfg = _load_config(args.config)
    eval_sec = _eval_section(cfg)
    horizons = args.horizons or eval_sec.get("horizons_s", DEFAULT_HORIZONS_S)
    segment = args.segment or eval_sec.get("segment_s")
    if segment is None:
        raise ValueError("eval needs --segment (or eval.segment_s in the configuration)")
    online = _online_settings(cfg, args) if args.online else None

    model = KoopmanModel.load(args.model)
    traj = Trajectory.read_csv(args.data)

    reports = evaluate_horizons(traj, model, horizons, segment)
    if online is not None:
        reports += evaluate_horizons(traj, model, horizons, segment, online=online)
    print(format_reports(reports))
    if args.out:
        reports_to_csv(reports, args.out)
    return 0


# ---------------------------------------------------------------- bench

def cmd_bench(args) -> int:
    cfg = _load_config(args.config)
    horizons = args.horizons or _eval_section(cfg).get("horizons_s", DEFAULT_HORIZONS_S)
    online = _online_settings(cfg, args)

    model = KoopmanModel.load(args.model)
    paths = _expand_data_paths(args.data)
    trajectories = _read_trajectories(paths)

    report = bench_update(trajectories, model, horizons, online=online)
    for h, off, tick, s in zip(report.horizons_s, report.offline_fit_s,
                               report.online_per_tick_s, report.speedup):
        print(f"horizon {h:>5.1f} s: refit {off * 1e3:8.1f} ms, "
              f"tick {tick * 1e6:8.1f} us, speedup {s:8.1f}x")
    if report.warning:
        print(f"warning: {report.warning}")
    if args.out:
        _write_json(args.out, report.to_dict())
    return 0


# ---------------------------------------------------------------- wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koopdrive",
        description="Identify, adapt, and exercise lifted linear driver-response models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("advisory", help="solve the eco-driving advisory for a route")
    p.add_argument("--route", required=True, help="route CSV (node limits, stops, grades)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument("--gamma", type=float, help="fuel/time trade-off override in [0, 1]")
    p.set_defaults(func=cmd_advisory)

    p = sub.add_parser("simulate", help="synthesize driver trajectories for an advisory")
    p.add_argument("--advisory", required=True, help="advisory time CSV from 'advisory'")
    p.add_argument("--out", required=True, help="output directory for driver CSVs")
    p.add_argument("--config", help="JSON configuration file (required)")
    p.add_argument("--drivers", type=int, help="number of drivers (overrides config)")
    p.add_argument("--seed", type=int, help="top-level seed (overrides config)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit the lifted linear model offline")
    p.add_argument("--data", required=True, nargs="+",
                   help="trajectory CSV files or directories of them")
    p.add_argument("--model-out", required=True, help="model JSON output path")
    p.add_argument("--report-out", help="fit report JSON output path")
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument("--ridge", type=float, help="ridge penalty override")
    p.add_argument("--degree", type=int, help="basis degree override")
    p.add_argument("--scaling", choices=["pow2", "none"], help="pre-scaler override")
    p.add_argument("--split", type=float, nargs=3, metavar=("TRAIN", "VAL", "TEST"),
                   help="split fractions override")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("update", help="adapt a model over a trajectory segment")
    p.add_argument("--model", required=True, help="model JSON to start from")
    p.add_argument("--data", required=True, help="trajectory CSV")
    p.add_argument("--segment", required=True, type=float, nargs=2, metavar=("T0", "T1"),
                   help="segment bounds in seconds")
    p.add_argument("--out", required=True, help="updated model JSON output path")
    p.add_argument("--log", help="per-tick log CSV output path")
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument("--lam", type=float, help="forgetting factor override")
    p.add_argument("--cadence", type=float, help="tick cadence override in seconds")
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("eval", help="multi-horizon prediction accuracy report")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--data", required=True, help="trajectory CSV")
    p.add_argument("--segment", type=float, nargs=2, metavar=("T0", "T1"),
                   help="segment bounds in seconds")
    p.add_argument("--horizons", type=float, nargs="+", help="horizons in seconds")
    p.add_argument("--online", action="store_true",
                   help="also evaluate the online-adapted predictor")
    p.add_argument("--lam", type=float, help="forgetting factor override")
    p.add_argument("--cadence", type=float, help="tick cadence override in seconds")
    p.add_argument("--out", help="report CSV output path")
    p.add_argument("--config", help="JSON configuration file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="time full refits against streaming ticks")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--data", required=True, nargs="+",
                   help="trajectory CSV files or directories of them")
    p.add_argument("--horizons", type=float, nargs="+", help="horizons in seconds")
    p.add_argument("--lam", type=float, help="forgetting factor override")
    p.add_argument("--cadence", type=float, help="tick cadence override in seconds")
    p.add_argument("--out", help="benchmark report JSON output path")
    p.add_argument("--config", help="JSON configuration file")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        return _fail(str(exc), 2)
    except (RouteInfeasibleError, RankDeficientDataError, RolloutDivergenceError,
            RlsUpdateRejectedError) as exc:
        return _fail(str(exc), 4)
    except json.JSONDecodeError as exc:
        return _fail(f"malformed JSON: {exc}", 3)
    except ValueError as exc:
        return _fail(str(exc), 3)


if __name__ == "__main__":
    sys.exit(main())
