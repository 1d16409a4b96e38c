#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the koopdrive pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from `src/`, the
shipped configuration and route from `configs/`; the seed replaces only the
configuration's top-level `seed`. Every CLI stage is called in-process
through `koopdrive.cli.main`, in one process and one closed loop: each call
starts when the previous one has returned.

Each run sets up twice: a fresh interpreter imports the package, and
advisory -> simulate -> fit builds the model and the driver roster. Then it
makes its timed passes. A traced run then makes one `bench` call at its
cadence; untraced runs leave it out to fit the run budget.
Workloads (see bench/README.md for the rationale):

  online_adapt   pass: eval --online and update on the distracted driver,
                 then a replay of its whole trajectory at the 1 s cadence:
                 update_tick, snapshot_model and a 5 s lifted forecast
  fine_tick      the same stages and replay at a 0.1 s cadence, update only

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run. Earlier lines list every metric with its unit, the error rate,
the output digest and the run metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CONFIG = os.path.join(ROOT, "configs", "default.json")
ROUTE = os.path.join(ROOT, "configs", "route_urban.csv")
WORK = os.path.join(ROOT, ".bench_build")

FORECAST_S = 5.0
EVAL_HORIZON_S = 5.0

# replay cadence in seconds, and whether each replay tick also forecasts
WORKLOADS = {
    "online_adapt": {"cadence": 1.0, "forecast": True},
    "fine_tick": {"cadence": 0.1, "forecast": False},
}
SETUPS = 2
# the reference kernel runs before and after every stage call, and between
# replay ticks at least this often
PROBE_EVERY_S = 0.005
# kernel runs per probe: between ticks, and around a stage call, where the
# two probes alone scale a call lasting seconds
PROBE_REPS = 3
STAGE_PROBE_REPS = 15
# nominal length of one timed pass on a 2-core x86 host; it turns --seconds
# into a fixed pass count, so one --seconds value always does the same work
PASS_S = 6.0

END_TO_END_UNITS = {
    "setup_s": "s", "replay_rel": "probe", "peak_rss_mb": "MB", "tick_p50_rel": "probe",
    "rmse_v_offline_mps": "m/s", "rmse_f_online_n": "N",
}
# Printed but not gated. Times in seconds swing with the shared host's speed
# (the *_rel metrics are the same times in probe units), the tick tail in
# probe units still moves with the host's mix of speeds, and the online speed
# error's quartile spread across seeds is about 0.3 of its median. See
# bench/README.md.
REPORTED_ONLY_UNITS = {
    "wall_s": "s", "wall_rel": "probe", "tick_p50_ms": "ms", "tick_p99_ms": "ms",
    "tick_p95_rel": "probe", "tick_p99_rel": "probe", "probe_ms": "ms",
    "advisory_s": "s", "simulate_s": "s", "fit_s": "s",
    "eval_s": "s", "update_s": "s", "rmse_v_online_mps": "m/s",
}

# smaller roster, coarser planner grid and a short replay, for the smoke test
SMOKE = {"drivers": 4, "v_levels": 16, "soc_levels": 11, "replay_s": 60.0}


class CheckFailed(Exception):
    """An output check found a wrong or missing result."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="'smoke' runs a reduced roster and replay for the self-test")
    return p.parse_args(argv)


def sha256_files(root):
    """Digest of every file under root, by relative path and content."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(x for x in dirnames if x != "__pycache__")
        for fn in sorted(filenames):
            path = os.path.join(dirpath, fn)
            rel = os.path.relpath(path, root)
            h.update(rel.encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def count_lines(path):
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


class SpeedProbe:
    """Measures the host's current speed with a fixed reference kernel.

    On a shared host the same code can run at two speeds about 1.8x apart,
    switching within a fraction of a second or holding one speed for
    minutes, so raw times from two runs are not comparable. The kernel is
    eight RLS-style rank-one updates of a fixed 10-feature problem: the mix of
    small numpy calls and interpreter work a replay tick makes, but none of
    koopdrive's code, so no change to the package moves it. A time divided by
    the mean kernel time measured just before and just after it is in probe
    units, which the host's speed moves far less than it moves seconds.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.P0 = np.eye(10)
        self.theta0 = 0.1 * rng.standard_normal((9, 10))
        self.x = rng.standard_normal(9)
        self.u = np.array([0.3])
        self.samples = []
        self.last = self.measure(PROBE_REPS)

    def _kernel(self):
        import numpy as np

        P, theta = self.P0.copy(), self.theta0.copy()
        for _ in range(8):
            z = np.concatenate([self.x, self.u])
            Pz = P @ z
            K = Pz / (0.99 + float(z @ Pz))
            theta += np.outer(self.x - theta @ z, K)
            P_new = (P - np.outer(K, Pz)) / 0.99
            P = 0.5 * (P_new + P_new.T)

    def measure(self, reps):
        """Median time of reps kernel runs, in seconds."""
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        self.samples.append(statistics.median(times))
        return self.samples[-1]

    def start(self, reps):
        self.last = self.measure(reps)

    def scale(self, seconds, reps):
        """Times measured since the last probe, in probe units."""
        now = self.measure(reps)
        unit = 0.5 * (self.last + now)
        self.last = now
        return [s / unit for s in seconds]


class Run:
    """State of one benchmark run: counters, timings, checks and tracing."""

    def __init__(self, args, spec, cfg, work):
        from tracing import Tracer

        self.args = args
        self.spec = spec
        self.cfg = cfg
        self.work = work
        self.tracer = Tracer()
        self.probe = SpeedProbe()
        self.traced = False
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.stage_s = {}
        self.ticks_s = []
        self.ticks_rel = []
        self.busy_rel = 0.0
        self.pass_rel = []
        self.replay_rel = []
        self.untraced_pass_s = []
        self.traced_pass_s = []
        self.replay_pairs_traced = 0
        self.rmse = None

    def problem(self, message, op_failed=False):
        self.problems.append(message)
        self.failed += int(op_failed)
        print(f"check failed: {message}", file=sys.stderr)

    @contextlib.contextmanager
    def segment(self, traced):
        """Run a block with the layer wrappers installed when traced."""
        self.traced = traced
        try:
            if traced:
                with self.tracer.active():
                    yield
            else:
                yield
        finally:
            self.traced = False

    def rel(self, seconds, reps):
        """Times measured since the probe's last start, in probe units."""
        values = self.probe.scale(seconds, reps)
        self.busy_rel += sum(values)
        return values

    def span(self, name):
        return self.tracer.span(name) if self.traced else contextlib.nullcontext()

    def stage(self, name, *argv):
        """One CLI stage call; returns True when it exited with code 0."""
        from koopdrive import cli

        self.attempted += 1
        out = io.StringIO()
        code = None
        self.probe.start(STAGE_PROBE_REPS)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), self.span(f"cli.{name}"):
                code = cli.main([name, *argv])
        except Exception:
            traceback.print_exc()
        seconds = time.perf_counter() - t0
        self.stage_s.setdefault(name, []).append(seconds)
        self.rel([seconds], STAGE_PROBE_REPS)
        if code != 0:
            self.problem(f"stage {name} exited with {code}", op_failed=True)
        return code == 0

    def check(self, label, fn, *args):
        """Run an output check; a failure marks its stage call as failed."""
        try:
            return fn(*args)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            self.problem(f"{label}: {exc}", op_failed=True)
            return None


# ------------------------------------------------------------------ stages

def driver_file(cfg):
    index = cfg["drivers"]["distracted"][0]["index"]
    width = max(2, len(str(cfg["drivers"]["count"])))
    return f"driver_{index + 1:0{width}d}.csv"


def build_stages(run, d, cfg_path):
    """advisory -> simulate -> fit into directory d; True when all succeeded."""
    return (run.stage("advisory", "--route", ROUTE, "--config", cfg_path,
                      "--out", os.path.join(d, "advisory"))
            and run.stage("simulate", "--advisory", os.path.join(d, "advisory", "advisory_time.csv"),
                          "--config", cfg_path, "--out", os.path.join(d, "drivers"))
            and run.stage("fit", "--data", os.path.join(d, "drivers"), "--config", cfg_path,
                          "--model-out", os.path.join(d, "model.json"),
                          "--report-out", os.path.join(d, "report.json")))


def check_build(run, d):
    """Advisory files and row counts, the driver roster, the model and report."""
    cfg = run.cfg
    meta_path = os.path.join(d, "advisory", "advisory_meta.json")
    with open(meta_path, encoding="utf-8") as fh:
        samples = json.load(fh)["samples"]
    if count_lines(os.path.join(d, "advisory", "advisory_time.csv")) != samples + 1:
        raise CheckFailed("advisory_time.csv row count differs from advisory_meta samples")
    if not os.path.exists(os.path.join(d, "advisory", "advisory_distance.csv")):
        raise CheckFailed("advisory_distance.csv missing")
    drivers = sorted(os.listdir(os.path.join(d, "drivers")))
    if len(drivers) != cfg["drivers"]["count"]:
        raise CheckFailed(f"expected {cfg['drivers']['count']} driver CSVs, found {len(drivers)}")
    rows = {count_lines(os.path.join(d, "drivers", f)) for f in drivers}
    if rows != {samples + 1}:
        raise CheckFailed(f"driver CSVs have row counts {sorted(rows)}, expected {samples + 1}")
    check_model_file(os.path.join(d, "model.json"))
    with open(os.path.join(d, "report.json"), encoding="utf-8") as fh:
        if not json.load(fh)["split_pairs"]["train"] > 0:
            raise CheckFailed("fit report has no training pairs")
    return True


def check_model_file(path):
    """The saved model reloads and saves back to the same bytes."""
    import numpy as np

    from koopdrive.model import KoopmanModel

    m = KoopmanModel.load(path)
    copy = path + ".reload"
    m.save(copy)
    with open(path, "rb") as a, open(copy, "rb") as b:
        same = a.read() == b.read()
    os.unlink(copy)
    again = KoopmanModel.load(path)
    if not (same and np.array_equal(m.A, again.A) and np.array_equal(m.B, again.B)):
        raise CheckFailed(f"{os.path.basename(path)} does not reload bit-exactly")


def check_bench(path, horizons):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if report["horizons_s"] != [float(h) for h in horizons]:
        raise CheckFailed(f"bench horizons {report['horizons_s']}")
    for key in ("offline_fit_s", "online_per_tick_s"):
        if not all(math.isfinite(x) and x > 0 for x in report[key]):
            raise CheckFailed(f"bench {key} is not positive and finite")


def online_stages(run, build_dir, d, cfg_path, cadence):
    """eval --online and update on the distracted driver, into directory d."""
    data = os.path.join(build_dir, "drivers", driver_file(run.cfg))
    model = os.path.join(build_dir, "model.json")
    t0, t1 = run.cfg["eval"]["segment_s"]
    ok = run.stage("eval", "--model", model, "--data", data, "--config", cfg_path, "--online",
                   "--cadence", repr(cadence), "--out", os.path.join(d, "reports.csv"))
    ok = run.stage("update", "--model", model, "--data", data, "--segment", repr(t0), repr(t1),
                   "--config", cfg_path, "--cadence", repr(cadence),
                   "--out", os.path.join(d, "model_adapted.json"),
                   "--log", os.path.join(d, "ticks.csv")) and ok
    return ok


def check_online(run, build_dir, d, cadence):
    """Eval rows and accuracy, then the update count and its tick log."""
    from koopdrive.model import KoopmanModel, Trajectory

    horizons = run.cfg["eval"]["horizons_s"]
    with open(os.path.join(d, "reports.csv"), encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    if len(rows) != 2 * len(horizons):
        raise CheckFailed(f"reports.csv has {len(rows)} rows, expected {2 * len(horizons)}")
    at = {(float(r[0]), r[1]): r for r in rows}
    off = at[(EVAL_HORIZON_S, "offline")]
    on = at[(EVAL_HORIZON_S, "online")]
    rmse = {"rmse_v_offline_mps": float(off[2]), "rmse_v_online_mps": float(on[2]),
            "rmse_f_online_n": float(on[4])}
    if not rmse["rmse_v_online_mps"] < rmse["rmse_v_offline_mps"]:
        raise CheckFailed(f"online speed RMSE {on[2]} does not beat offline {off[2]} "
                          f"at the {EVAL_HORIZON_S} s horizon")

    traj = Trajectory.read_csv(os.path.join(build_dir, "drivers", driver_file(run.cfg)))
    pairs = len(traj.window(*run.cfg["eval"]["segment_s"])) - 1
    adapted = KoopmanModel.load(os.path.join(d, "model_adapted.json"))
    if adapted.provenance.get("updates") != pairs:
        raise CheckFailed(f"update applied {adapted.provenance.get('updates')} pairs, "
                          f"the segment has {pairs}")
    tick_steps = max(int(round(cadence / traj.sample_period)), 1)
    if count_lines(os.path.join(d, "ticks.csv")) != 1 + math.ceil(pairs / tick_steps):
        raise CheckFailed("ticks.csv row count does not match the segment's ticks")
    return rmse


# ------------------------------------------------------------------ replay

def replay(run, build_dir, cadence, forecast, limit_s):
    """Closed-loop streaming adaptation over one whole trajectory.

    Returns bytes summarising the final state and the forecasts.
    """
    import numpy as np

    from koopdrive import rls
    from koopdrive.model import KoopmanModel, Trajectory
    from tracing import REPLAY_SPAN

    model = KoopmanModel.load(os.path.join(build_dir, "model.json"))
    traj = Trajectory.read_csv(os.path.join(build_dir, "drivers", driver_file(run.cfg)))
    if limit_s is not None:
        traj = traj.slice_samples(0, int(round(limit_s / traj.sample_period)) + 1)
    n = len(traj)
    dt = traj.sample_period
    tick_steps = max(int(round(cadence / dt)), 1)
    horizon = int(round(FORECAST_S / dt))
    states = traj.states()
    # the advisory ahead of the last tick is held at its final value
    ahead = np.concatenate([traj.v_ref, np.full(horizon, traj.v_ref[-1])])
    state = rls.init_rls(model, run.cfg["rls"]["lam"])
    forecast_sum = 0.0
    ticks = run.ticks_s
    window = []  # ticks since the last probe
    pos = 0
    with run.span(REPLAY_SPAN):
        run.probe.start(PROBE_REPS)
        window_t0 = time.perf_counter()
        while pos < n - 1:
            end = min(pos + tick_steps, n - 1)
            run.attempted += 1
            pred = None
            t0 = time.perf_counter()
            try:
                rls.update_tick(state, model.basis, traj.slice_samples(pos, end + 1))
                if forecast:
                    snap = rls.snapshot_model(state, model.basis, model.sample_period)
                    pred = snap.rollout(states[end], ahead[end:end + horizon])
            except (ValueError, ArithmeticError) as exc:
                run.problem(f"replay tick ending at sample {end}: {exc}", op_failed=True)
            t1 = time.perf_counter()
            ticks.append(t1 - t0)
            window.append(t1 - t0)
            if t1 - window_t0 >= PROBE_EVERY_S or end == n - 1:
                run.ticks_rel.extend(run.rel(window, PROBE_REPS))
                window = []
                window_t0 = time.perf_counter()
            if pred is not None:
                forecast_sum += float(pred.v[-1]) + float(pred.f_tr[-1])
            pos = end

    if state.update_count != n - 1:
        run.problem(f"replay applied {state.update_count} of {n - 1} pairs")
    if not np.all(np.isfinite(state.theta)):
        run.problem("replay ended with non-finite theta")
    if not np.array_equal(state.P, state.P.T):
        run.problem("replay ended with an asymmetric P")
    try:
        np.linalg.cholesky(state.P)
    except np.linalg.LinAlgError:
        run.problem("replay ended with P not positive definite")
    if run.traced:
        run.replay_pairs_traced += state.update_count
    return state.theta.tobytes() + state.P.tobytes() + repr(forecast_sum).encode()


# ------------------------------------------------------------------ workloads

def setup(run, i, cfg_text):
    """One set-up: a fresh interpreter importing the package, a workspace with
    the seeded configuration, and the model and trajectories built by
    advisory -> simulate -> fit.

    Returns (seconds, directory, whether the build succeeded)."""
    d = os.path.join(run.work, f"setup{i}")
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    probe = subprocess.run([sys.executable, "-c", "import koopdrive.cli"], env=env,
                           cwd=ROOT, timeout=120)
    os.makedirs(d)
    cfg_path = os.path.join(d, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(cfg_text)
    built = build_stages(run, d, cfg_path)
    seconds = time.perf_counter() - t0
    if probe.returncode != 0:
        run.problem(f"importing koopdrive.cli exited with {probe.returncode}")
    if built:
        built = run.check("build outputs", check_build, run, d) is not None
    return seconds, d, built


def timed_passes(run, passes, cfg_path, build_dir, limit_s):
    """Timed pass: eval --online, update, then the replay at the cadence.
    After the passes of a traced run, bench times refits against ticks at
    that cadence.

    Returns the output digest of each pass."""
    cadence = run.spec["cadence"]
    digests = []
    for j in range(passes):
        d = os.path.join(run.work, f"pass{j}")
        os.makedirs(d)
        traced = run.args.trace == 1 and j > 0
        with run.segment(traced):
            t0 = time.perf_counter()
            busy0 = run.busy_rel
            ok = online_stages(run, build_dir, d, cfg_path, cadence)
            busy1 = run.busy_rel
            summary = replay(run, build_dir, cadence, run.spec["forecast"], limit_s)
            (run.traced_pass_s if traced else run.untraced_pass_s).append(
                time.perf_counter() - t0)
            if not traced:
                run.pass_rel.append(run.busy_rel - busy0)
                run.replay_rel.append(run.busy_rel - busy1)
        if ok:
            run.rmse = run.check("online outputs", check_online, run, build_dir, d, cadence)
        with open(os.path.join(d, "replay_state.bin"), "wb") as fh:
            fh.write(summary)
        digests.append(sha256_files(d))
    if run.args.trace == 0:
        return digests
    with run.segment(True):
        ok = run.stage("bench", "--model", os.path.join(build_dir, "model.json"),
                       "--data", os.path.join(build_dir, "drivers"), "--config", cfg_path,
                       "--cadence", repr(cadence), "--out", os.path.join(run.work, "bench.json"))
    if ok:
        run.check("bench output", check_bench, os.path.join(run.work, "bench.json"),
                  run.cfg["eval"]["horizons_s"])
    return digests


# ------------------------------------------------------------------ reporting

def metadata(args):
    import numpy as np

    cpu = platform.processor() or "unknown cpu"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    revision = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # not an enclosing repository's HEAD
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            revision = rev.stdout.strip() if rev.returncode == 0 else None
        except OSError:
            pass
    blas_name = blas_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    return {
        "hardware": f"{platform.platform()} / {cpu}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": blas_threads(),
        "process_threads": process_threads(),
        "git_revision": revision,
        "source_sha256": sha256_files(os.path.join(SRC, "koopdrive")),
        "seed": args.seed,
        "trace": bool(args.trace),
        "size": args.size,
    }


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def process_threads():
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def end_to_end(run, setup_s):
    """Every end-to-end value the run measured, gated or not, by name."""
    import numpy as np

    m = {"setup_s": statistics.median(setup_s)}
    if run.untraced_pass_s:
        m["wall_s"] = statistics.median(run.untraced_pass_s)
        m["wall_rel"] = statistics.median(run.pass_rel)
        m["replay_rel"] = statistics.median(run.replay_rel)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for stage, calls in run.stage_s.items():
        m[f"{stage}_s"] = statistics.median(calls)
    if run.ticks_s:
        ticks_ms = np.asarray(run.ticks_s) * 1e3
        m["tick_p50_ms"] = float(np.percentile(ticks_ms, 50))
        m["tick_p99_ms"] = float(np.percentile(ticks_ms, 99))
        m["tick_p50_rel"], m["tick_p95_rel"], m["tick_p99_rel"] = (
            float(x) for x in np.percentile(run.ticks_rel, [50, 95, 99]))
    m["probe_ms"] = statistics.median(run.probe.samples) * 1e3
    m.update(run.rmse or {})
    return m


def per_layer(run):
    from tracing import layer_metrics

    metrics, coverage = layer_metrics(run.tracer.spans)
    calls = metrics["rls.rls_update.calls"][0]
    if calls != coverage["tick_pairs"]:
        run.problem(f"traced rls_update calls {calls} differ from the "
                    f"{coverage['tick_pairs']} pairs update_tick returned")
    if coverage["replay_updates"] != run.replay_pairs_traced:
        run.problem(f"traced replay rls_update calls {coverage['replay_updates']} differ "
                    f"from the {run.replay_pairs_traced} pairs the replay applied")
    if run.traced_pass_s and run.untraced_pass_s:
        ratio = statistics.median(run.traced_pass_s) / statistics.median(run.untraced_pass_s)
        metrics["trace.overhead_ratio"] = (ratio, "ratio")
    return metrics


def configure(args):
    with open(CONFIG, encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["seed"] = args.seed
    if args.size == "smoke":
        count = SMOKE["drivers"]
        cfg["drivers"]["count"] = count
        cfg["drivers"]["distracted"][0]["index"] = count - 1
        cfg["advisory"]["v_levels"] = SMOKE["v_levels"]
        cfg["advisory"]["soc_levels"] = SMOKE["soc_levels"]
    return cfg


def main(argv=None):
    args = parse_args(argv)
    if not (os.path.isfile(os.path.join(SRC, "koopdrive", "cli.py"))
            and os.path.isfile(CONFIG) and os.path.isfile(ROUTE)):
        print(f"error: koopdrive sources or configs not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    spec = WORKLOADS[args.workload]
    cfg = configure(args)
    cfg_text = json.dumps(cfg, indent=2) + "\n"
    passes = max(2, round(args.seconds / PASS_S))
    limit_s = SMOKE["replay_s"] if args.size == "smoke" else None
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = Run(args, spec, cfg, work)
    try:
        setups = []
        for i in range(SETUPS):
            traced = args.trace == 1 and i > 0
            with run.segment(traced):
                setups.append(setup(run, i, cfg_text))
        setup_s = [s for s, _, _ in setups]
        build_dir = setups[0][1]
        cfg_path = os.path.join(build_dir, "config.json")
        if not all(built for _, _, built in setups):
            run.problem("set-up did not build the model and trajectories; passes skipped")
            digests = []
        else:
            build = [sha256_files(d) for _, d, _ in setups]
            if len(set(build)) != 1:
                run.problem("set-ups of one seed produced different outputs")
            digests = [build[0] + d
                       for d in timed_passes(run, passes, cfg_path, build_dir, limit_s)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    if len(set(digests)) != 1 or len(digests) != passes:
        run.problem("passes of one seed produced different or missing outputs")
    digest = hashlib.sha256("".join(digests[:1]).encode()).hexdigest()

    if args.trace:
        metrics = per_layer(run)
        extra = {}
        if "bench" in run.stage_s:
            extra["bench_s (traced)"] = (statistics.median(run.stage_s["bench"]), "s")
    else:
        measured = end_to_end(run, setup_s)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in measured.items()
                   if k in END_TO_END_UNITS}
        extra = {k: (v, REPORTED_ONLY_UNITS[k]) for k, v in measured.items()
                 if k in REPORTED_ONLY_UNITS}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {passes}  "
          f"ticks {len(run.ticks_s)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value!r} {unit}")
    for name, (value, unit) in extra.items():
        print(f"  {name:<48} {value!r} {unit} (not gated)")
    print(f"  {'error_rate':<48} {run.failed / max(run.attempted, 1)!r} "
          f"({run.failed} failed of {run.attempted} stage calls and ticks)")
    record = {"workload": args.workload, "output_sha256": digest, **metadata(args),
              "samples_s": {"setup": setup_s, "pass": run.untraced_pass_s,
                            "traced_pass": run.traced_pass_s, **run.stage_s}}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
