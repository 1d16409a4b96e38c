"""Synthetic driver and longitudinal vehicle response to an advisory.

The driver is a PI regulator acting on a delayed speed error with additive
Gaussian command noise and a rate limit on how fast the pedal force can
change. Attention to the advisory is a time-varying compliance in [0, 1]:
the effective speed target blends the advisory with the driver's own slowly
filtered speed,

    target(t) = compliance(t) * v_ref(t) + (1 - compliance(t)) * v_hold(t)

where v_hold is an exponential moving average of the actual speed. At full
compliance the driver tracks the advisory; at zero compliance the target
collapses onto the driver's own recent speed, so the advisory is ignored and
the current speed is held. Distraction windows lower compliance and scale up
the command noise over an interval.

The plant is a point mass with a quadratic road load,

    m dv/dt = f_tr - (a0 + a1 v + a2 v^2)

integrated with an explicit Euler step at the sample period. Speed clamps at
standstill and the applied force saturates at the actuator limits. The
sample loop runs on Python floats, and its clamps are comparisons that keep
the tie rules of the builtin min and max (a speed of -0.0 stays -0.0). Given
the same parameters, advisory, and seed, the simulated trajectory is
reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Trajectory, _check_fields, _check_sample_period, _samples

__all__ = [
    "VehicleParams",
    "DriverParams",
    "DistractionWindow",
    "simulate_driver",
]


@dataclass(frozen=True)
class VehicleParams:
    """Point-mass longitudinal plant; values live in the run configuration."""

    mass: float
    a0: float
    a1: float
    a2: float
    f_min: float
    f_max: float

    def __post_init__(self):
        # an infinite force bound would remove the actuator limit
        _check_fields(self)
        if not self.mass > 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if not self.f_min < 0 < self.f_max:
            raise ValueError(
                f"force bounds must straddle zero, got [{self.f_min}, {self.f_max}]"
            )


@dataclass(frozen=True)
class DistractionWindow:
    """Interval of lowered compliance and inflated command noise."""

    t_start: float
    t_end: float
    compliance: float = 0.2
    noise_scale: float = 2.0

    def __post_init__(self):
        # an infinite noise scale passes the rate and force clamps as bang-bang steps
        _check_fields(self)
        if not self.t_start < self.t_end:
            raise ValueError(
                f"window must have t_start < t_end, got [{self.t_start}, {self.t_end}]"
            )
        if not 0.0 <= self.compliance <= 1.0:
            raise ValueError(f"compliance must lie in [0, 1], got {self.compliance}")
        if not self.noise_scale >= 0.0:
            raise ValueError(f"noise_scale must be >= 0, got {self.noise_scale}")


@dataclass(frozen=True)
class DriverParams:
    """PI driver with reaction delay: the driver section of the configuration.

    A drive's noise seed and distraction windows are simulate_driver
    arguments, not fields, since simulate gives each roster driver its own.
    """

    kp: float = 700.0
    ki: float = 120.0
    reaction_delay: float = 0.4
    force_rate_limit: float = 6000.0
    noise_std: float = 120.0
    compliance: float = 1.0
    hold_tau: float = 4.0

    def __post_init__(self):
        _check_fields(self)
        if self.kp < 0 or self.ki < 0:
            raise ValueError("gains must be non-negative")
        if self.reaction_delay < 0:
            raise ValueError(f"reaction_delay must be >= 0, got {self.reaction_delay}")
        if not self.force_rate_limit > 0:
            raise ValueError(f"force_rate_limit must be positive, got {self.force_rate_limit}")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        if not 0.0 <= self.compliance <= 1.0:
            raise ValueError(f"compliance must lie in [0, 1], got {self.compliance}")
        if not self.hold_tau > 0:
            raise ValueError(f"hold_tau must be positive, got {self.hold_tau}")


def simulate_driver(vehicle: VehicleParams, driver: DriverParams, advisory,
                    sample_period: float, *, seed: int = 0,
                    windows: tuple[DistractionWindow, ...] = ()) -> Trajectory:
    """Simulate one drive of a driver following (or ignoring) an advisory.

    advisory is a 1-D series of at least 2 finite speeds already on the
    sample grid, one per sample, the first of them >= 0; the trajectory has
    one sample per advisory value and starts at the advisory's first speed.
    seed seeds the command noise. Where distraction windows overlap, the one
    later in windows wins.
    """
    _check_sample_period(sample_period)
    v_ref = np.asarray(advisory, dtype=float)
    if v_ref.ndim != 1 or len(v_ref) < 2:
        raise ValueError("advisory must be a 1-D series of at least 2 speeds")
    if not np.all(np.isfinite(v_ref)):
        raise ValueError("advisory speeds must be finite")
    n = len(v_ref)

    dt = sample_period
    t = np.arange(n) * dt
    # float, so that a window's compliance is not truncated when the
    # driver's is an integer
    compliance = np.full(n, float(driver.compliance))
    noise_scale = np.ones(n)
    for w in windows:  # later windows overwrite earlier ones
        mask = (t >= w.t_start) & (t <= w.t_end)
        compliance[mask] = w.compliance
        noise_scale[mask] = w.noise_scale

    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n) * driver.noise_std * noise_scale

    delay_steps = int(round(_samples("reaction_delay", driver.reaction_delay, dt)))
    errors = []
    v_out = []
    f_out = []

    v = float(v_ref[0])
    if v < 0:
        raise ValueError(f"the advisory's first speed must be >= 0, got {v}")
    v_hold = v
    integ = 0.0
    f_prev = 0.0
    alpha = dt / driver.hold_tau
    kp, ki = driver.kp, driver.ki
    f_min, f_max = vehicle.f_min, vehicle.f_max
    a0, a1, a2 = vehicle.a0, vehicle.a1, vehicle.a2
    rate = driver.force_rate_limit * dt
    inv_mass = 1.0 / vehicle.mass

    # the clamps spell out max(x, lo) as `lo if lo > x else x` and min(x, hi)
    # as `hi if hi < x else x`, which keep the builtins' choice on ties
    for k, (c, ref, eps) in enumerate(zip(compliance.tolist(), v_ref.tolist(),
                                          noise.tolist())):
        target = c * ref + (1.0 - c) * v_hold
        errors.append(target - v)
        e_d = errors[k - delay_steps] if k >= delay_steps else 0.0

        integ_new = integ + ki * e_d * dt
        raw = kp * e_d + integ_new + eps
        if (raw > f_max and e_d > 0.0) or (raw < f_min and e_d < 0.0):
            raw = kp * e_d + integ + eps  # hold the integrator at saturation
        else:
            integ = integ_new

        lo = f_prev - rate
        hi = f_prev + rate
        f_cmd = lo if lo > raw else raw
        f_cmd = hi if hi < f_cmd else f_cmd
        f_applied = f_min if f_min > f_cmd else f_cmd
        f_applied = f_max if f_max < f_applied else f_applied

        v_out.append(v)
        f_out.append(f_applied)
        f_prev = f_applied

        if k < n - 1:
            dv = (f_applied - (a0 + a1 * v + a2 * v * v)) * inv_mass
            v = v + dt * dv
            v = 0.0 if 0.0 > v else v
            v_hold += alpha * (v - v_hold)

    return Trajectory(sample_period=dt, t=t, v=np.array(v_out), f_tr=np.array(f_out),
                      v_ref=v_ref.copy())
