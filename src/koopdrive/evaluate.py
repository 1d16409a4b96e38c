"""Multi-horizon prediction accuracy and update-cost benchmarking.

A segment of a recorded trajectory is partitioned into consecutive windows
of one horizon each; any remainder shorter than the horizon is dropped. Each
window is predicted by a rollout re-initialized from the measured state at
the window start, and squared errors are pooled across all predicted samples
of all windows before taking the root. The seeded first sample of a window
is a measurement, not a prediction, so it does not enter the pool.

The online variant streams the segment through recursive least-squares ticks
(1 s of samples per tick by default) while predicting each window with the
parameter snapshot taken at that window's start; updates made inside a
window therefore only benefit later windows, keeping the evaluation causal.

Reported units follow road practice: speed errors in mph alongside m/s, and
force errors in kN alongside N.
"""

from __future__ import annotations

import math
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from .edmd import FitConfig, build_matrices, fit
from .model import KoopmanModel, Trajectory
from .rls import OnlineSettings, init_rls, snapshot_model, stream_ticks

MPS_TO_MPH = 2.23694

__all__ = [
    "MPS_TO_MPH",
    "OnlineSettings",
    "HorizonReport",
    "BenchReport",
    "rmse",
    "evaluate_horizons",
    "bench_update",
    "format_reports",
    "reports_to_csv",
]


def rmse(predicted, actual) -> float:
    """Root mean square error between two equal-length series."""
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {a.shape}")
    if p.size == 0:
        raise ValueError("need at least one sample")
    return float(np.sqrt(np.mean((p - a) ** 2)))


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


def _segment_indices(traj: Trajectory, segment) -> tuple[int, int]:
    t0, t1 = segment
    if not t0 < t1:
        raise ValueError(f"segment must satisfy t_start < t_end, got {segment}")
    dt = traj.sample_period
    i0 = int(math.ceil((t0 - traj.t[0]) / dt - 1e-9))
    i1 = int(math.floor((t1 - traj.t[0]) / dt + 1e-9))
    if i0 < 0 or i1 > len(traj) - 1:
        raise ValueError(
            f"segment [{t0}, {t1}] extends beyond the trajectory "
            f"[{traj.t[0]}, {traj.t[-1]}]"
        )
    return i0, i1


def _window_errors(model: KoopmanModel, traj: Trajectory, k0: int, steps: int,
                   mode: str) -> tuple[np.ndarray, np.ndarray]:
    x0 = np.array([traj.v[k0], traj.f_tr[k0]])
    inputs = traj.v_ref[k0:k0 + steps]
    pred = model.rollout(x0, inputs, mode=mode)
    sl = slice(k0 + 1, k0 + steps + 1)
    return pred.v[1:] - traj.v[sl], pred.f_tr[1:] - traj.f_tr[sl]


def evaluate_horizons(trajectory: Trajectory, model: KoopmanModel, horizons,
                      segment, online: OnlineSettings | None = None,
                      mode: str = "lifted") -> list[HorizonReport]:
    """Windowed multi-horizon evaluation over a trajectory segment.

    horizons are window lengths in seconds; each must fit inside the segment
    at least once. With online settings given, the reports describe the
    adapted predictor (variant "online"); otherwise the fixed model
    (variant "offline").
    """
    i0, i1 = _segment_indices(trajectory, segment)
    dt = trajectory.sample_period
    variant = "offline" if online is None else "online"
    reports = []
    for horizon in horizons:
        steps = int(round(horizon / dt))
        if steps < 1 or i0 + steps > i1:
            raise ValueError(
                f"horizon {horizon} s does not fit inside segment {segment}"
            )
        n_windows = (i1 - i0) // steps

        if online is None:
            err_v_parts, err_f_parts = [], []
            for w in range(n_windows):
                ev, ef = _window_errors(model, trajectory, i0 + w * steps, steps, mode)
                err_v_parts.append(ev)
                err_f_parts.append(ef)
        else:
            err_v_parts, err_f_parts = _online_window_errors(
                trajectory, model, online, i0, steps, n_windows, mode
            )

        err_v = np.concatenate(err_v_parts)
        err_f = np.concatenate(err_f_parts)
        reports.append(HorizonReport(
            horizon_s=float(horizon),
            variant=variant,
            rmse_speed_mps=float(np.sqrt(np.mean(err_v**2))),
            rmse_force_n=float(np.sqrt(np.mean(err_f**2))),
            n_windows=n_windows,
            n_samples=len(err_v),
        ))
    return reports


def _online_window_errors(traj: Trajectory, model: KoopmanModel,
                          online: OnlineSettings, i0: int, steps: int,
                          n_windows: int, mode: str):
    """Tick-by-tick adaptation with causal per-window snapshots."""
    tick_steps = online.tick_steps(traj.sample_period)
    state = init_rls(model, online.lam)
    err_v_parts, err_f_parts = [], []
    for w in range(n_windows):
        k0 = i0 + w * steps
        snap = snapshot_model(state, model.basis, model.sample_period)
        ev, ef = _window_errors(snap, traj, k0, steps, mode)
        err_v_parts.append(ev)
        err_f_parts.append(ef)
        for _ in stream_ticks(state, model.basis, traj, k0, k0 + steps, tick_steps):
            pass
    return err_v_parts, err_f_parts


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
        return {
            "horizons_s": self.horizons_s,
            "n_pairs": self.n_pairs,
            "offline_fit_s": self.offline_fit_s,
            "online_total_s": self.online_total_s,
            "online_per_tick_s": self.online_per_tick_s,
            "speedup": self.speedup,
            "hardware": self.hardware,
            "warning": self.warning,
        }


def bench_update(trajectories, model: KoopmanModel, horizons,
                 config: FitConfig | None = None,
                 online: OnlineSettings | None = None) -> BenchReport:
    """Time full refits against streaming ticks on the same data.

    For each horizon the offline side refits on the whole accumulated
    dataset (the new window included), while the online side applies only
    the ticks covering the final horizon's worth of samples of the last
    trajectory. Results below 1e5 accumulated pairs carry a warning, since
    tiny datasets make the comparison flatter than deployment would see.
    """
    trajectories = list(trajectories)
    config = config or FitConfig()
    online = online or OnlineSettings()
    n_pairs = sum(len(t) - 1 for t in trajectories)
    dt = trajectories[-1].sample_period

    offline_times, online_totals, per_tick, speedups = [], [], [], []
    for horizon in horizons:
        steps = int(round(float(horizon) / dt))
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
        mean_tick = online_s / len(tick_times)

        offline_times.append(offline_s)
        online_totals.append(online_s)
        per_tick.append(mean_tick)
        speedups.append(offline_s / mean_tick if mean_tick > 0 else float("inf"))

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
    from .model import _atomic_write_text

    lines = ["horizon_s,variant,rmse_speed_mps,rmse_speed_mph,rmse_force_n,"
             "rmse_force_kn,n_windows,n_samples"]
    for r in reports:
        lines.append(
            f"{repr(float(r.horizon_s))},{r.variant},{repr(r.rmse_speed_mps)},"
            f"{repr(r.rmse_speed_mph)},{repr(r.rmse_force_n)},{repr(r.rmse_force_kn)},"
            f"{r.n_windows},{r.n_samples}"
        )
    _atomic_write_text(path, "\n".join(lines) + "\n")
