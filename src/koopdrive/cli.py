"""Command line pipeline: advisory, simulate, fit, update, eval, bench.

Every command validates all of its inputs before creating any output.
Output paths are checked before the first write (_check_outputs): one that
is an existing directory exits 2, and two that name one file exit 3.
simulate makes its --out directory only as a drive is written, so an input
that every drive refuses leaves no directory. Every command writes files
atomically (temp file plus rename), and reports failures on stderr with one
of four exit codes: 0 on success, 2 for I/O problems, 3 for invalid
inputs or configuration, 4 for numerical failures (rank-deficient data,
diverging rollouts, infeasible routes, an RLS prediction error that is not
finite or RLS information singular to working precision).

A JSON configuration file supplies the physical and algorithmic parameters.
Every command builds all of it, by one rule (_build), into a Config: a
section or nested object (advisory.powertrain, a drivers.distracted entry)
fills the dataclass whose field names it uses, a JSON list becomes a tuple,
and a section that is no object, or an unknown or missing key or a
wrong-typed value in any section, read by the command or not, exits 3 naming
the dotted section. Before the build a flag overrides one key: --gamma
advisory.gamma, --drivers drivers.count, --seed seed, --ridge fit.ridge,
--degree fit.max_degree, --split fit.split, --lam rls.lam, --cadence
rls.cadence_s, --horizons eval.horizons_s and eval's --segment
eval.segment_s. A top-level seed drives every stochastic choice, and
per-driver seeds derive from it as seed + driver index, so one seed pins the
whole pipeline byte for byte.

simulate runs its roster on p = min(usable CPUs, drivers) processes
(_map_roster; the CPUs os.sched_getaffinity counts). With p = 1 the caller
runs every driver and starts no process. Otherwise p workers of a
concurrent.futures process pool simulate and write one driver per task
while the caller waits. Every driver file is byte-identical to a one-CPU
run, and a failure exits as that run would, with the lowest-numbered
failing driver's code and message; a worker that dies exits 2. Workers
start by "fork": the executor's initializer binds the simulate closure once
in each worker, which inherits it, with the built Config, the advisory and
the CSV row template, without pickling, and workers start in about 4 ms,
where "forkserver" and "spawn" workers took 0.25-0.42 s each to start and
import the package (2-CPU Linux host, Python 3.11). The pool forks every
worker before it starts its manager thread, and the only other threads are
numpy's OpenBLAS pool, which OpenBLAS's own fork handler stops before the
fork, so the process forks with one thread; Python 3.12+ warns only about
forking a multi-threaded process.

main runs each command with numpy's OpenBLAS at one thread and puts the
count it found back on return, also when the command raises. The largest
products the package makes are fit's 4115 x 19 fold blocks, too small to
gain from threads, and with two threads fit's folds stalled for about a
second in some fresh processes: on the shipped roster (2-CPU x86 VM), a
fresh `koopdrive fit` took 1.04-2.59 s, 8 of 14 runs over 2 s, with two
threads and 0.97-1.42 s in 14 of 14 with one. The count is set by a call,
since OPENBLAS_NUM_THREADS is read only when numpy loads: through ctypes,
the scipy_openblas get and set calls of the library numpy's core module
links. Where that library or either call is missing, nothing is changed.
Only this process's BLAS pool is touched; a library caller that does not
go through main keeps its own.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import glob
import json
import os
import sys
import typing
from dataclasses import dataclass, field

import numpy as np

from .advisory import (
    EcoDpConfig,
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
    _check_fields,
    _check_same_sample_period,
    _check_sample_period,
    _check_spacing,
    _is_number,
    _read_csv_table,
    _row_template,
    _write_csv_table,
    _write_json,
)
from .rls import OnlineSettings, RlsUpdateRejectedError, init_rls, snapshot_model, stream_ticks

ADVISORY_TIME_HEADER = "t_s,v_ref_mps"

# argparse dest -> the key its flag overrides (update's --segment is no key)
_FLAG_KEYS = {"gamma": "advisory.gamma", "drivers": "drivers.count", "seed": "seed",
              "ridge": "fit.ridge", "degree": "fit.max_degree", "split": "fit.split",
              "lam": "rls.lam", "cadence": "rls.cadence_s", "horizons": "eval.horizons_s",
              "eval_segment": "eval.segment_s"}


@dataclass(frozen=True)
class DistractedDriver(DistractionWindow):
    """A drivers.distracted entry: a window and its driver's roster index."""

    index: object = field(kw_only=True)  # Roster checks it, against its count


@dataclass(frozen=True)
class Roster:
    """The drivers section: roster size, PI gain spread, distraction windows."""

    count: int = 1
    gain_jitter: float = 0.0
    distracted: tuple[DistractedDriver, ...] = ()

    def __post_init__(self):
        if not (_is_number(self.count, int) and self.count >= 1):
            raise ValueError(f"count must be an integer, got {self.count!r}, "
                             "and the driver count is at least 1")
        _check_fields(self)
        if not 0 <= self.gain_jitter < 1:
            raise ValueError(f"gain_jitter must lie in [0, 1), got {self.gain_jitter!r}")
        for d in self.distracted:
            if not (_is_number(d.index, int) and 0 <= d.index < self.count):
                raise ValueError(f"distracted index {d.index!r} must be an integer in "
                                 f"[0, {self.count}) for a roster of {self.count} drivers")


@dataclass(frozen=True)
class EvalSettings:
    """The eval section: the horizons eval and bench score, and eval's segment."""

    horizons_s: tuple[float, ...] = (50.0, 20.0, 10.0, 5.0)
    segment_s: tuple[float, ...] | None = None

    def __post_init__(self):
        _check_fields(self)
        if not self.horizons_s:
            raise ValueError("horizons_s must not be empty")
        if self.segment_s is not None and len(self.segment_s) != 2:
            raise ValueError(f"segment_s must be two numbers, got {self.segment_s!r}")


@dataclass(frozen=True)
class Config:
    """The configuration file: seed, sample period and one field per section."""

    seed: int = 0
    sample_period: float = 0.025
    vehicle: VehicleParams | None = None  # no defaults, so None unless given
    driver: DriverParams = field(default_factory=DriverParams)
    drivers: Roster = field(default_factory=Roster)
    fit: FitConfig = field(default_factory=FitConfig)
    rls: OnlineSettings = field(default_factory=OnlineSettings)
    eval: EvalSettings = field(default_factory=EvalSettings)
    advisory: EcoDpConfig = field(default_factory=EcoDpConfig)

    def __post_init__(self):
        _check_sample_period(self.sample_period)
        _check_fields(self)


def _require_vehicle(cfg: Config, command: str) -> None:
    """Refuse a configuration without the vehicle that advisory prices and simulate drives."""
    if cfg.vehicle is None:
        raise ValueError(f"{command} requires --config with a vehicle section")


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_config(args) -> Config:
    """The --config file ({} without one), the _FLAG_KEYS flags set over it, as a Config."""
    values = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    for dest, dotted in _FLAG_KEYS.items():
        value = getattr(args, dest, None)
        if value is None or not isinstance(values, dict):
            continue
        section, _, key = dotted.rpartition(".")
        target = values.setdefault(section, {}) if section else values
        if isinstance(target, dict):  # any other section fails the build
            target[key] = value
    return _build(Config, values, "")


def _build(cls, values, section: str):
    """cls built from a JSON object; every message names the dotted section.

    A field annotated with a config class C, or C | None, is built the same
    way from an object named section.field, and a tuple[C, ...] field from a
    list of them. Any other list becomes a tuple.
    """
    where = f"section '{section}'" if section else "configuration"
    if not isinstance(values, dict):
        raise ValueError(f"{where} must be a JSON object, got {values!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(values) - set(fields))
    if unknown:
        raise ValueError(f"{where}: unknown keys: {', '.join(unknown)}")
    missing = [name for name, f in fields.items() if name not in values
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValueError(f"{where}: missing keys: {', '.join(missing)}")
    hints = typing.get_type_hints(cls)
    kwargs = {name: _field_value(hints[name], value, f"{section}.{name}".lstrip("."))
              for name, value in values.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:  # a check, or a comparison of a wrong type
        message = str(exc)
        if section and message.partition(" ")[0] in fields:
            message = f"{section}.{message}"
        raise ValueError(f"{where}: {message}") from None


def _field_value(hint, value, section: str):
    """The JSON value of a field annotated hint, built as _build says."""
    params = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and dataclasses.is_dataclass(params[0]):
        if not isinstance(value, list):
            raise ValueError(f"section '{section}' must be a list of JSON objects, got {value!r}")
        return tuple(_build(params[0], entry, section) for entry in value)
    for cls in (hint, *params):
        if dataclasses.is_dataclass(cls):
            return _build(cls, value, section)
    return tuple(value) if isinstance(value, list) else value


def _expand_data_paths(paths) -> list[str]:
    out: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            inside = sorted(glob.glob(os.path.join(glob.escape(p), "*.csv")))
            if not inside:
                raise FileNotFoundError(f"no .csv files in directory {p}")
            out.extend(inside)
        else:
            if not os.path.exists(p):
                raise FileNotFoundError(f"data file not found: {p}")
            out.append(p)
    return out


def _check_outputs(*paths) -> None:
    """Refuse the given output paths before any is written, so a command
    with two outputs writes neither: FileNotFoundError naming the first
    path whose directory is missing, IsADirectoryError naming the first
    that is a directory, and ValueError when two name one file."""
    paths = [path for path in paths if path is not None]
    for path in paths:
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise FileNotFoundError(f"output directory not found for {path}")
        if os.path.isdir(path):
            raise IsADirectoryError(f"output path is a directory: {path}")
    if len({os.path.realpath(path) for path in paths}) < len(paths):
        raise ValueError(f"outputs {' and '.join(paths)} name one file")


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


# set only in a pool worker, by its initializer: the calling process never
# binds it, so no run outlives its _map_roster call there
_roster_run = None


def _bind_roster_run(run) -> None:
    """A pool worker's initializer: bind the run its tasks call."""
    global _roster_run
    _roster_run = run


def _call_roster_run(i: int) -> None:
    """A pool task: run roster index i in this worker."""
    _roster_run(i)


def _map_roster(run, count: int) -> None:
    """Call run(i) for every roster index i in range(count), on p processes,
    and raise what the serial loop would raise.

    p = min(usable CPUs, count), and p = 1 where os.sched_getaffinity does
    not exist. With p = 1 the caller runs the serial loop itself. Otherwise
    a concurrent.futures process pool of p workers started with the "fork"
    method runs one index per task while the caller waits: the executor's
    initializer binds run once in each worker, which inherits it without
    pickling, so a task sends one int and returns None. The results are read
    in index order, so the failure with the lowest index is raised, as the
    serial loop would raise it, and tasks not yet started are cancelled;
    higher indices may have run. A worker that dies raises
    ChildProcessError. Every worker is joined before this returns or raises.
    """
    try:
        procs = min(len(os.sched_getaffinity(0)), count)
    except AttributeError:
        procs = 1
    if procs <= 1:
        for i in range(count):
            run(i)
        return
    # imported here: the other commands and a one-CPU run start no worker
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    try:
        with ProcessPoolExecutor(procs, multiprocessing.get_context("fork"),
                                 initializer=_bind_roster_run, initargs=(run,)) as pool:
            list(pool.map(_call_roster_run, range(count)))
    except BrokenProcessPool:
        raise ChildProcessError(
            "a roster worker process died before reporting its driver") from None


# ---------------------------------------------------------------- advisory

def cmd_advisory(args) -> int:
    cfg = _load_config(args)
    _require_vehicle(cfg, "advisory")
    period = float(cfg.sample_period)
    if not os.path.exists(args.route):
        raise FileNotFoundError(f"route file not found: {args.route}")
    route = RouteSpec.read_csv(args.route)
    # imported here: hashlib loads OpenSSL, about 3.5 MB of RSS that the
    # other commands would carry for nothing
    import hashlib
    with open(args.route, "rb") as fh:
        route_sha256 = hashlib.sha256(fh.read()).hexdigest()

    profile = solve_eco_dp(route, cfg.vehicle, cfg.advisory)
    t, v_ref = resample_to_time(profile, period)

    os.makedirs(args.out, exist_ok=True)
    profile.to_csv(os.path.join(args.out, "advisory_distance.csv"))
    _write_csv_table(os.path.join(args.out, "advisory_time.csv"), ADVISORY_TIME_HEADER,
                     zip(t.tolist(), v_ref.tolist()))
    _write_json(os.path.join(args.out, "advisory_meta.json"), {
        "route": os.path.basename(args.route),
        "route_sha256": route_sha256,
        "gamma": cfg.advisory.gamma,
        "total_cost": profile.total_cost,
        "duration_s": profile.duration,
        "soc_initial": cfg.advisory.soc_initial,
        "soc_final": float(profile.soc[-1]),
        "engine_steps": int(np.sum(profile.engine_on)),
        "sample_period": period,
        "samples": len(t),
    })
    print(f"advisory: {profile.duration:.1f} s over {route.total_length:.0f} m, "
          f"cost {profile.total_cost:.3f}, final SoC {profile.soc[-1]:.3f}")
    return 0


def _read_advisory_time_csv(path: str, period: float) -> tuple[np.ndarray, np.ndarray]:
    """The advisory's t and v_ref columns."""
    data = _read_csv_table(path, ADVISORY_TIME_HEADER, 2, "advisory")
    _check_spacing(f"{path}: advisory time", data[:, 0], period)
    return data[:, 0], data[:, 1]


# ---------------------------------------------------------------- simulate

def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    _require_vehicle(cfg, "simulate")
    period = float(cfg.sample_period)
    roster = cfg.drivers

    t, v_ref = _read_advisory_time_csv(args.advisory, period)

    drivers = []
    for i in range(roster.count):
        gains = {}
        if roster.gain_jitter > 0:
            jrng = np.random.default_rng([cfg.seed + i, 17])
            for gain in ("kp", "ki"):
                base = getattr(cfg.driver, gain)
                gains[gain] = base * (1.0 + roster.gain_jitter * (2.0 * jrng.random() - 1.0))
        drivers.append(dataclasses.replace(cfg.driver, **gains))

    width = max(2, len(str(roster.count)))
    # the t and v_ref cells are formatted once, from the advisory's columns;
    # a driver whose t or v_ref bytes differ from them formats its own
    # (bytes, not values, so a -0.0 never borrows "0.0")
    template = _row_template(t, v_ref)
    columns = (t.tobytes(), v_ref.tobytes())

    def simulate(i):
        traj = simulate_driver(cfg.vehicle, drivers[i], v_ref, period, seed=cfg.seed + i,
                               windows=tuple(w for w in roster.distracted if w.index == i))
        same = (traj.t.tobytes(), traj.v_ref.tobytes()) == columns
        # made here, not before the roster: an input every drive refuses
        # fails the first drive before any directory is made
        os.makedirs(args.out, exist_ok=True)
        traj.write_csv(os.path.join(args.out, f"driver_{i + 1:0{width}d}.csv"),
                       template if same else None)

    _map_roster(simulate, roster.count)
    print(f"simulate: wrote {roster.count} trajectories of {len(v_ref)} samples to {args.out}")
    return 0


# ---------------------------------------------------------------- fit

def cmd_fit(args) -> int:
    cfg = _load_config(args)
    _check_outputs(args.model_out, args.report_out)
    paths = _expand_data_paths(args.data)
    trajectories = _read_trajectories(paths)
    model, report = fit_trajectories(trajectories, cfg.fit)
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
    online = _load_config(args).rls
    _check_outputs(args.out, args.log)

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
    cfg = _load_config(args)
    horizons, segment = cfg.eval.horizons_s, cfg.eval.segment_s
    if segment is None:
        raise ValueError("eval needs --segment (or eval.segment_s in the configuration)")
    online = cfg.rls if args.online else None
    _check_outputs(args.out)

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
    cfg = _load_config(args)
    _check_outputs(args.out)

    model = KoopmanModel.load(args.model)
    paths = _expand_data_paths(args.data)
    trajectories = _read_trajectories(paths)

    report = bench_update(trajectories, model, cfg.eval.horizons_s, online=cfg.rls)
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
    p.add_argument("--gamma", type=float, help="fuel/time trade-off override in [0, 1]")
    p.set_defaults(func=cmd_advisory)

    p = sub.add_parser("simulate", help="synthesize driver trajectories for an advisory")
    p.add_argument("--advisory", required=True, help="advisory time CSV from 'advisory'")
    p.add_argument("--out", required=True, help="output directory for driver CSVs")
    p.add_argument("--drivers", type=int, help="number of drivers (overrides config)")
    p.add_argument("--seed", type=int, help="top-level seed (overrides config)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit the lifted linear model offline")
    p.add_argument("--data", required=True, nargs="+",
                   help="trajectory CSV files or directories of them")
    p.add_argument("--model-out", required=True, help="model JSON output path")
    p.add_argument("--report-out", help="fit report JSON output path")
    p.add_argument("--ridge", type=float, help="ridge penalty override")
    p.add_argument("--degree", type=int, help="basis degree override")
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
    p.add_argument("--lam", type=float, help="forgetting factor override")
    p.add_argument("--cadence", type=float, help="tick cadence override in seconds")
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("eval", help="multi-horizon prediction accuracy report")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--data", required=True, help="trajectory CSV")
    p.add_argument("--segment", dest="eval_segment", type=float, nargs=2,
                   metavar=("T0", "T1"), help="segment bounds in seconds")
    p.add_argument("--horizons", type=float, nargs="+", help="horizons in seconds")
    p.add_argument("--online", action="store_true",
                   help="also evaluate the online-adapted predictor")
    p.add_argument("--lam", type=float, help="forgetting factor override")
    p.add_argument("--cadence", type=float, help="tick cadence override in seconds")
    p.add_argument("--out", help="report CSV output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="time full refits against streaming ticks")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--data", required=True, nargs="+",
                   help="trajectory CSV files or directories of them")
    p.add_argument("--horizons", type=float, nargs="+", help="horizons in seconds")
    p.add_argument("--lam", type=float, help="forgetting factor override")
    p.add_argument("--cadence", type=float, help="tick cadence override in seconds")
    p.add_argument("--out", help="benchmark report JSON output path")
    p.set_defaults(func=cmd_bench)

    for p in sub.choices.values():  # every command builds the whole configuration
        p.add_argument("--config", help="JSON configuration file")
    return parser


def _blas_thread_calls():
    """The (get, set) thread-count calls of the OpenBLAS that numpy's core
    module links, or None where the library or either call is missing."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, put = (lib.scipy_openblas_get_num_threads64_,
                    lib.scipy_openblas_set_num_threads64_)
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = (), ctypes.c_int
    put.argtypes, put.restype = (ctypes.c_int,), None
    return get, put


@contextlib.contextmanager
def _one_blas_thread():
    """numpy's OpenBLAS at one thread inside the block, the count it had
    put back on leaving it; no change where the calls are missing."""
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    old = get()
    put(1)
    try:
        yield
    finally:
        put(old)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with _one_blas_thread():
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
