"""Multi-horizon prediction accuracy and update-cost benchmarking.

A segment of a recorded trajectory is partitioned into consecutive windows
of one horizon each; any remainder shorter than the horizon is dropped. Each
window is predicted by a rollout re-initialized from the measured state at
the window start, and squared errors are pooled across all predicted samples
of all windows before taking the root. The seeded first sample of a window
is a measurement, not a prediction, so it does not enter the pool.

The online variant streams the segment once, for all horizons together,
through recursive least-squares ticks (1 s of samples per tick by default),
and predicts each window with the parameter snapshot taken at that window's
start; updates made inside a window therefore only benefit later windows,
keeping the evaluation causal. Pairs are applied one at a time in order, so
the snapshots do not depend on where tick boundaries fall, and a horizon's
report is the same whether it is evaluated alone or with others.

Reported units follow road practice: speed errors in mph alongside m/s, and
force errors in kN alongside N.
"""

from __future__ import annotations

import platform
import time
from dataclasses import asdict, dataclass

import numpy as np

from .edmd import FitConfig, build_matrices, fit
from .model import (KoopmanModel, Trajectory, _check_same_sample_period, _samples,
                    _write_csv_table)
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


def _window_errors(model: KoopmanModel, traj: Trajectory, k0: int,
                   steps: int) -> tuple[np.ndarray, np.ndarray]:
    x0 = np.array([traj.v[k0], traj.f_tr[k0]])
    inputs = traj.v_ref[k0:k0 + steps]
    pred = model.rollout(x0, inputs)
    sl = slice(k0 + 1, k0 + steps + 1)
    return pred.v[1:] - traj.v[sl], pred.f_tr[1:] - traj.f_tr[sl]


def _models_at(traj: Trajectory, model: KoopmanModel, starts,
               online: OnlineSettings | None) -> dict:
    """The model each window start predicts with, keyed by sample index.

    Without online settings that is the model itself. Otherwise one RLS
    state streams the segment once, tick by tick, and is snapshotted at
    each start in increasing order.
    """
    starts = sorted(set(starts))
    if online is None:
        return dict.fromkeys(starts, model)
    tick_steps = online.tick_steps(traj.sample_period)
    state = init_rls(model, online.lam)
    models, pos = {}, starts[0]
    for k in starts:
        for _ in stream_ticks(state, model.basis, traj, pos, k, tick_steps):
            pass
        models[k] = snapshot_model(state, model.basis, model.sample_period)
        pos = k
    return models


def evaluate_horizons(trajectory: Trajectory, model: KoopmanModel, horizons,
                      segment, online: OnlineSettings | None = None) -> list[HorizonReport]:
    """Windowed multi-horizon evaluation over a trajectory segment.

    horizons are window lengths in seconds, each rounded to whole samples
    and fitting inside the segment at least once. With online settings
    given, the reports describe the adapted predictor (variant "online");
    otherwise the fixed model (variant "offline"). Data whose sample period
    is not the model's raises ValueError.
    """
    dt = trajectory.sample_period
    _check_same_sample_period("data", dt, "the model", model.sample_period)
    i0, i1 = trajectory.segment_indices(*segment)
    windows = []
    for horizon in horizons:
        steps = int(round(_samples("horizon", horizon, dt)))
        if steps < 1 or i0 + steps > i1:
            raise ValueError(
                f"horizon {horizon} s does not fit inside segment {segment}"
            )
        windows.append((horizon, steps, range(i0, i1 - steps + 1, steps)))
    models = _models_at(trajectory, model,
                        [k for _, _, starts in windows for k in starts], online)

    reports = []
    for horizon, steps, starts in windows:
        errs = [_window_errors(models[k], trajectory, k, steps) for k in starts]
        err_v = np.concatenate([ev for ev, _ in errs])
        err_f = np.concatenate([ef for _, ef in errs])
        reports.append(HorizonReport(
            horizon_s=float(horizon),
            variant="offline" if online is None else "online",
            rmse_speed_mps=float(np.sqrt(np.mean(err_v**2))),
            rmse_force_n=float(np.sqrt(np.mean(err_f**2))),
            n_windows=len(starts),
            n_samples=len(err_v),
        ))
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

    def to_dict(self) -> dict:
        return asdict(self)


def bench_update(trajectories, model: KoopmanModel, horizons,
                 online: OnlineSettings | None = None) -> BenchReport:
    """Time full refits against streaming ticks on the same data.

    For each horizon the offline side refits on the whole accumulated
    dataset (the new window included) with the ridge recorded in the model's
    provenance (0 when absent), while the online side applies only
    the ticks covering the final horizon's worth of samples of the last
    trajectory. The per-tick cost is the median tick, since a short horizon
    has as few as 5 ticks and one slow tick would dominate their mean; the
    speedup is the refit time over that median. Results below 1e5
    accumulated pairs carry a warning, since tiny datasets make the
    comparison flatter than deployment would see.
    """
    trajectories = list(trajectories)
    config = FitConfig(ridge=model.provenance.get("ridge", 0.0))
    online = online or OnlineSettings()
    n_pairs = sum(len(t) - 1 for t in trajectories)
    dt = trajectories[-1].sample_period
    # build_matrices holds the other trajectories to the first one's period
    _check_same_sample_period(f"trajectory {len(trajectories) - 1}", dt, "the model",
                              model.sample_period)

    offline_times, online_totals, per_tick, speedups = [], [], [], []
    for horizon in horizons:
        steps = int(round(_samples("horizon", horizon, dt)))
        last = trajectories[-1]
        if steps < 1 or steps > len(last) - 1:
            raise ValueError(f"horizon {horizon} s does not fit in the last trajectory")

        t0 = time.perf_counter()
        mats = build_matrices(trajectories, model.basis)
        fit(mats, config)
        offline_s = time.perf_counter() - t0

        state = init_rls(model, online.lam)
        tick_times = []
        t1 = time.perf_counter()
        for _ in stream_ticks(state, model.basis, last, len(last) - 1 - steps,
                              len(last) - 1, online.tick_steps(dt)):
            tick_times.append(time.perf_counter() - t1)
            t1 = time.perf_counter()
        online_s = float(sum(tick_times))
        median_tick = float(np.median(tick_times))

        offline_times.append(offline_s)
        online_totals.append(online_s)
        per_tick.append(median_tick)
        speedups.append(offline_s / median_tick if median_tick > 0 else float("inf"))

    warning = None
    if n_pairs < 100_000:
        warning = (f"dataset has only {n_pairs} transition pairs; timings below "
                   "1e5 pairs understate the retraining cost")
    return BenchReport(
        horizons_s=[float(h) for h in horizons],
        n_pairs=n_pairs,
        offline_fit_s=offline_times,
        online_total_s=online_totals,
        online_per_tick_s=per_tick,
        speedup=speedups,
        hardware=f"{platform.platform()} / {platform.processor() or 'unknown cpu'}",
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
            f"{r.horizon_s:>9.1f}  {r.variant:<8}  {r.rmse_speed_mph:>10.3f}  "
            f"{r.rmse_force_kn:>9.3f}  {r.n_windows:>7d}  {r.n_samples:>8d}"
        )
    return "\n".join(lines)


def reports_to_csv(reports, path: str) -> None:
    _write_csv_table(
        path, "horizon_s,variant,rmse_speed_mps,rmse_speed_mph,rmse_force_n,"
        "rmse_force_kn,n_windows,n_samples",
        [(float(r.horizon_s), r.variant, r.rmse_speed_mps, r.rmse_speed_mph, r.rmse_force_n,
          r.rmse_force_kn, r.n_windows, r.n_samples) for r in reports])
