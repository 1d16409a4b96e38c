"""Multi-horizon prediction accuracy and update-cost benchmarking.

A segment of a recorded trajectory is partitioned into consecutive windows
of one horizon each, the blocks model._pair_blocks cuts at the horizon's
steps; any remainder shorter than the horizon is neither cut nor scored. A
window's span is cut when it is scored and dropped once it is, so each
variant's pass over a horizon cuts its windows again and no list of windows
is held. model._window_errors, the window scorer of the model module's pair
rule, scores the span: a rollout re-initialized from the measured state at
the window start, compared with the measured states after it. This module
only chooses the windows and pools their errors; it cuts no span, reads no
trajectory column and forms no pair. Squared errors are pooled across all
predicted samples of all windows before taking the root. The seeded first
sample of a window is a measurement, not a prediction, so it does not enter
the pool.

One call scores the frozen model (variant "offline") on every horizon's
windows and, given online settings, then scores the adapted predictor
(variant "online") on the same windows, so the two are compared window for
window. The online variant streams the segment once, for all horizons
together, through recursive least-squares ticks (1 s of samples per tick by
default), and predicts each window with the parameter snapshot taken at that
window's start; updates made inside a window therefore only benefit later
windows, keeping the evaluation causal. The starts are the first samples of
the windows _pair_blocks cuts, each window dropped as soon as its start is
read, so no start is computed here either. The state folds its pairs in fixed
blocks counted from the segment start, and a snapshot folds the pairs pending
since into a copy, so the snapshots do not depend on where tick boundaries
fall, and a horizon's report is the same whether it is evaluated alone or
with others.

The window errors, scored under one np.errstate here, and their RMSE are
a block step of the model module's numerical-error rule, so a finite
forecast whose error squares past the float range scores inf.

Reported units follow road practice: speed errors in mph alongside m/s, and
force errors in kN alongside N.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass

import numpy as np

from .edmd import FitConfig, build_matrices, fit
from .model import (KoopmanModel, Trajectory, _check_same_sample_period, _pair_blocks,
                    _samples, _window_errors, _write_csv_table)
from .rls import OnlineSettings, init_rls, snapshot_model, stream_ticks

MPS_TO_MPH = 2.23694

__all__ = [
    "MPS_TO_MPH",
    "HorizonReport",
    "BenchReport",
    "evaluate_horizons",
    "bench_update",
    "format_reports",
    "reports_to_csv",
]


@dataclass
class HorizonReport:
    """Pooled prediction error for one horizon and one variant."""

    horizon_s: float
    variant: str
    rmse_speed_mps: float
    rmse_force_n: float
    n_windows: int
    n_samples: int

    @property
    def rmse_speed_mph(self) -> float:
        return self.rmse_speed_mps * MPS_TO_MPH

    @property
    def rmse_force_kn(self) -> float:
        return self.rmse_force_n / 1000.0


def _horizon_steps(horizon, dt: float, room: int, where: str) -> int:
    """horizon in whole samples of dt; ValueError unless 1 to room of them."""
    steps = int(round(_samples("horizon", horizon, dt)))
    if not 1 <= steps <= room:
        raise ValueError(f"horizon {horizon} s does not fit {where}")
    return steps


def evaluate_horizons(trajectory: Trajectory, model: KoopmanModel, horizons,
                      segment, online: OnlineSettings | None = None) -> list[HorizonReport]:
    """Windowed multi-horizon evaluation over a trajectory segment.

    horizons are window lengths in seconds, each rounded to whole samples
    and fitting inside the segment at least once. The reports describe the
    fixed model (variant "offline"), one per horizon; with online settings
    given, the adapted predictor's reports (variant "online") follow, scored
    on the same windows. Data whose sample period is not the model's raises
    ValueError.
    """
    dt = trajectory.sample_period
    _check_same_sample_period("data", dt, "the model", model.sample_period)
    i0, i1 = trajectory.segment_indices(*segment)
    horizon_steps = [(horizon, _horizon_steps(horizon, dt, i1 - i0, f"inside segment {segment}"))
                     for horizon in horizons]

    def windows(steps):
        # whole windows only: the pairs after the last one are not cut
        return _pair_blocks(trajectory, i0, i1 - (i1 - i0) % steps, steps)

    variants = [("offline", lambda k: model)]
    if online is not None:
        # one RLS state streams the segment once, snapshotted at each start
        tick_steps = online.tick_steps(dt)
        state, models, pos = init_rls(model, online.lam), {}, i0
        for k in sorted({lo for _, steps in horizon_steps for lo, _, _ in windows(steps)}):
            for _ in stream_ticks(state, model.basis, trajectory, pos, k, tick_steps):
                pass
            models[k], pos = snapshot_model(state, model.basis, model.sample_period), k
        variants.append(("online", models.__getitem__))

    reports = []
    with np.errstate(all="ignore"):
        for variant, model_at in variants:
            for horizon, steps in horizon_steps:
                errs = [_window_errors(model_at(lo), span) for lo, _, span in windows(steps)]
                err_v, err_f = (np.concatenate(e) for e in zip(*errs))
                rmse_v, rmse_f = (float(np.sqrt(np.mean(e**2))) for e in (err_v, err_f))
                reports.append(HorizonReport(float(horizon), variant, rmse_v, rmse_f,
                                             n_windows=len(errs), n_samples=len(err_v)))
    return reports


@dataclass
class BenchReport:
    """Retraining cost versus streaming update cost, per horizon."""

    horizons_s: list
    n_pairs: int
    offline_fit_s: list
    online_total_s: list
    online_per_tick_s: list
    speedup: list
    hardware: str
    warning: str | None = None


def bench_update(trajectories, model: KoopmanModel, horizons,
                 online: OnlineSettings) -> BenchReport:
    """Time full refits against streaming ticks on the same data.

    The offline side refits once on the whole accumulated dataset (the new
    window included) with the ridge recorded in the model's provenance (0
    when absent); that data is the same for every horizon, so every horizon
    reports the one refit time. For each horizon the online side applies
    only the ticks covering the final horizon's worth of samples of the last
    trajectory. The per-tick cost is the median tick, since a short horizon
    has as few as 5 ticks and one slow tick would dominate their mean; the
    speedup is the refit time over that median. Results below 1e5
    accumulated pairs carry a warning, since tiny datasets make the
    comparison flatter than deployment would see.
    """
    trajectories = list(trajectories)
    if not trajectories:
        raise ValueError("need at least one trajectory")
    config = FitConfig(ridge=model.provenance.get("ridge", 0.0))
    n_pairs = sum(len(t) - 1 for t in trajectories)
    last = trajectories[-1]
    dt = last.sample_period
    # build_matrices holds the other trajectories to the first one's period
    _check_same_sample_period(f"trajectory {len(trajectories) - 1}", dt, "the model",
                              model.sample_period)

    horizon_steps = [_horizon_steps(horizon, dt, len(last) - 1, "in the last trajectory")
                     for horizon in horizons]

    t0 = time.perf_counter()
    fit(build_matrices(trajectories, model.basis), config)
    offline_s = time.perf_counter() - t0

    online_totals, per_tick = [], []
    for steps in horizon_steps:
        state = init_rls(model, online.lam)
        tick_times = []
        t1 = time.perf_counter()
        for _ in stream_ticks(state, model.basis, last, len(last) - 1 - steps,
                              len(last) - 1, online.tick_steps(dt)):
            tick_times.append(time.perf_counter() - t1)
            t1 = time.perf_counter()
        online_totals.append(float(sum(tick_times)))
        per_tick.append(float(np.median(tick_times)))

    warning = None
    if n_pairs < 100_000:
        warning = (f"dataset has only {n_pairs} transition pairs; timings below "
                   "1e5 pairs understate the retraining cost")
    return BenchReport(
        horizons_s=[float(h) for h in horizons],
        n_pairs=n_pairs,
        offline_fit_s=[offline_s] * len(per_tick),
        online_total_s=online_totals,
        online_per_tick_s=per_tick,
        speedup=[offline_s / t if t > 0 else float("inf") for t in per_tick],
        # platform.platform() and platform.processor() run `uname -p` in a
        # subprocess; these three read os.uname() alone
        hardware="-".join((platform.system(), platform.release(), platform.machine())),
        warning=warning,
    )


def format_reports(reports) -> str:
    """Fixed-width table of horizon reports in road units."""
    lines = [
        f"{'horizon_s':>9}  {'variant':<8}  {'rmse_v_mph':>10}  {'rmse_f_kn':>9}  "
        f"{'windows':>7}  {'samples':>8}"
    ]
    for r in reports:
        lines.append(
            f"{float(r.horizon_s)!r:>9}  {r.variant:<8}  {r.rmse_speed_mph:>10.3f}  "
            f"{r.rmse_force_kn:>9.3f}  {r.n_windows:>7d}  {r.n_samples:>8d}"
        )
    return "\n".join(lines)


def reports_to_csv(reports, path: str) -> None:
    _write_csv_table(
        path, "horizon_s,variant,rmse_speed_mps,rmse_speed_mph,rmse_force_n,"
        "rmse_force_kn,n_windows,n_samples",
        [(float(r.horizon_s), r.variant, r.rmse_speed_mps, r.rmse_speed_mph, r.rmse_force_n,
          r.rmse_force_kn, r.n_windows, r.n_samples) for r in reports])
