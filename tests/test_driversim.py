import math

import numpy as np
import pytest

from koopdrive.driversim import (
    DistractionWindow,
    DriverParams,
    VehicleParams,
    simulate_driver,
)

VEH = VehicleParams(mass=2200.0, a0=160.0, a1=2.5, a2=0.45,
                    f_min=-9000.0, f_max=6500.0)


def test_vehicle_validation():
    with pytest.raises(ValueError):
        VehicleParams(mass=0.0, a0=160, a1=2.5, a2=0.45, f_min=-9000, f_max=6500)
    with pytest.raises(ValueError):
        VehicleParams(mass=2200, a0=160, a1=2.5, a2=0.45, f_min=100, f_max=6500)


def test_same_seed_reproduces_bitwise():
    drv = DriverParams(seed=3)
    adv = np.full(2000, 12.0)
    a = simulate_driver(VEH, drv, adv, sample_period=0.025)
    b = simulate_driver(VEH, drv, adv, sample_period=0.025)
    np.testing.assert_array_equal(a.v, b.v)
    np.testing.assert_array_equal(a.f_tr, b.f_tr)


def test_different_seed_differs():
    adv = np.full(2000, 12.0)
    a = simulate_driver(VEH, DriverParams(seed=1), adv, sample_period=0.025)
    b = simulate_driver(VEH, DriverParams(seed=2), adv, sample_period=0.025)
    assert not np.array_equal(a.v, b.v)


def test_tracks_constant_advisory():
    drv = DriverParams(noise_std=0.0, seed=0)
    adv = np.full(4000, 12.0)  # 100 s
    traj = simulate_driver(VEH, drv, adv, sample_period=0.025, v0=12.0)
    # settled tracking: the last quarter stays near the advisory
    tail = traj.v[3000:]
    assert abs(tail.mean() - 12.0) < 0.2
    assert tail.std() < 0.2


def test_zero_compliance_holds_speed():
    drv = DriverParams(noise_std=0.0, compliance=0.0, seed=0)
    # advisory asks for a large change; a fully non-compliant driver ignores it
    adv = np.full(4000, 25.0)
    traj = simulate_driver(VEH, drv, adv, sample_period=0.025, v0=10.0)
    assert np.all(np.abs(traj.v - 10.0) < 0.5)


def test_distraction_window_weakens_tracking():
    base = DriverParams(noise_std=0.0, seed=0)
    distracted = DriverParams(noise_std=0.0, seed=0,
                              windows=(DistractionWindow(20.0, 80.0, compliance=0.0),))
    n = 4000  # 100 s
    t = np.arange(n) * 0.025
    # the advisory steps up in the middle of the distraction window
    adv = np.where(t < 40.0, 10.0, 16.0)
    tr_full = simulate_driver(VEH, base, adv, sample_period=0.025, v0=10.0)
    tr_dist = simulate_driver(VEH, distracted, adv, sample_period=0.025, v0=10.0)
    # by 70 s the attentive driver reached 16, the distracted one ignored it
    k = int(70 / 0.025)
    assert tr_full.v[k] > 15.0
    assert tr_dist.v[k] < 12.0
    # after the window ends the distracted driver catches up
    assert tr_dist.v[-1] > 15.0


@pytest.mark.parametrize("period", [math.inf, True, 5e-324])
def test_simulate_rejects_bad_sample_period(period):
    # 5e-324 is a valid period, but the 0.4 s reaction delay is no finite
    # number of samples of it
    with pytest.raises(ValueError, match="sample_period"):
        simulate_driver(VEH, DriverParams(), np.full(10, 12.0), sample_period=period)


def test_distraction_window_validation():
    with pytest.raises(ValueError):
        DistractionWindow(t_start=5.0, t_end=5.0)
    with pytest.raises(ValueError):
        DistractionWindow(t_start=0.0, t_end=10.0, compliance=1.5)


def test_window_lookup_last_added_wins():
    adv = np.where(np.arange(4000) * 0.025 < 40.0, 10.0, 16.0)
    short = DistractionWindow(30.0, 50.0, compliance=0.1, noise_scale=3.0)
    wide = DistractionWindow(20.0, 80.0, compliance=0.5, noise_scale=1.5)

    def run(*windows):
        return simulate_driver(VEH, DriverParams(seed=0, windows=windows), adv, v0=10.0)

    # an earlier window that a later one fully covers changes nothing
    alone, covered = run(wide), run(short, wide)
    np.testing.assert_array_equal(covered.v, alone.v)
    np.testing.assert_array_equal(covered.f_tr, alone.f_tr)
    # the other way round the short window overrides the wide one inside it
    assert not np.array_equal(run(wide, short).v, alone.v)


def test_integer_compliance_matches_float():
    # an integer compliance must not truncate a window's fractional one
    adv = np.where(np.arange(4000) * 0.025 < 40.0, 10.0, 16.0)
    window = (DistractionWindow(30.0, 60.0, compliance=0.5),)
    as_int = simulate_driver(VEH, DriverParams(compliance=1, seed=0, windows=window), adv)
    as_float = simulate_driver(VEH, DriverParams(compliance=1.0, seed=0, windows=window), adv)
    np.testing.assert_array_equal(as_int.v, as_float.v)
    np.testing.assert_array_equal(as_int.f_tr, as_float.f_tr)


def test_force_respects_limits():
    drv = DriverParams(kp=5e4, ki=1e3, noise_std=500.0, seed=0)
    adv = np.concatenate([np.full(2000, 30.0), np.full(2000, 0.5)])
    traj = simulate_driver(VEH, drv, adv, sample_period=0.025, v0=0.0)
    assert traj.f_tr.max() <= VEH.f_max + 1e-9
    assert traj.f_tr.min() >= VEH.f_min - 1e-9


def test_force_rate_limit():
    dt = 0.025
    drv = DriverParams(kp=5e4, ki=0.0, noise_std=0.0, force_rate_limit=6000.0, seed=0)
    adv = np.full(2000, 30.0)
    traj = simulate_driver(VEH, drv, adv, sample_period=dt, v0=0.0)
    steps = np.diff(traj.f_tr)
    assert np.max(np.abs(steps)) <= 6000.0 * dt + 1e-9


def test_speed_never_negative():
    drv = DriverParams(kp=5e4, noise_std=2000.0, seed=7)
    adv = np.full(4000, 0.0)
    traj = simulate_driver(VEH, drv, adv, sample_period=0.025, v0=5.0)
    assert traj.v.min() >= 0.0


def test_reaction_delay_holds_initial_force():
    dt = 0.025
    drv = DriverParams(reaction_delay=0.5, noise_std=0.0, seed=0)
    adv = np.full(400, 20.0)
    traj = simulate_driver(VEH, drv, adv, sample_period=dt, v0=10.0)
    # before the delay elapses the driver has not responded yet
    k_delay = int(0.5 / dt)
    assert np.all(traj.f_tr[:k_delay] == 0.0)
    assert np.any(traj.f_tr[k_delay:k_delay + 40] != 0.0)


def test_output_contains_advisory_column():
    drv = DriverParams(seed=0)
    adv = np.linspace(10, 14, 1000)
    traj = simulate_driver(VEH, drv, adv, sample_period=0.025)
    np.testing.assert_array_equal(traj.v_ref, adv)


# ------------------------------------------------------------ reference loop

def _reference_loop(vehicle, driver, v_ref, dt, v0=None):
    """The sample loop as first written: numpy element indexing, builtin
    min/max clamps and the quadratic road load a0 + a1 v + a2 v^2. Returns (v, f_tr)."""
    n = len(v_ref)
    t = np.arange(n) * dt
    compliance = np.full(n, driver.compliance)
    noise_scale = np.ones(n)
    for w in driver.windows:
        mask = (t >= w.t_start) & (t <= w.t_end)
        compliance[mask] = w.compliance
        noise_scale[mask] = w.noise_scale
    rng = np.random.default_rng(driver.seed)
    noise = rng.standard_normal(n) * driver.noise_std * noise_scale

    delay_steps = int(round(driver.reaction_delay / dt))
    errors = np.zeros(n)
    v_arr = np.empty(n)
    f_arr = np.empty(n)
    v = float(v_ref[0]) if v0 is None else float(v0)
    v_hold = v
    integ = 0.0
    f_prev = 0.0
    alpha = dt / driver.hold_tau
    kp, ki = driver.kp, driver.ki
    f_min, f_max = vehicle.f_min, vehicle.f_max
    rate = driver.force_rate_limit * dt
    inv_mass = 1.0 / vehicle.mass
    for k in range(n):
        c = compliance[k]
        target = c * v_ref[k] + (1.0 - c) * v_hold
        errors[k] = target - v
        e_d = errors[k - delay_steps] if k >= delay_steps else 0.0
        integ_new = integ + ki * e_d * dt
        raw = kp * e_d + integ_new + noise[k]
        if (raw > f_max and e_d > 0.0) or (raw < f_min and e_d < 0.0):
            raw = kp * e_d + integ + noise[k]
        else:
            integ = integ_new
        f_cmd = min(max(raw, f_prev - rate), f_prev + rate)
        f_applied = min(max(f_cmd, f_min), f_max)
        v_arr[k] = v
        f_arr[k] = f_applied
        f_prev = f_applied
        if k < n - 1:
            road = vehicle.a0 + vehicle.a1 * v + vehicle.a2 * v * v
            dv = (f_applied - road) * inv_mass
            v = max(v + dt * dv, 0.0)
            v_hold += alpha * (v - v_hold)
    return v_arr, f_arr


def _stress_advisory(dt=0.025):
    # floor it to 30 m/s, brake to a standstill, then cruise: the force hits
    # both actuator limits, the rate limit binds and the speed clamps at 0
    t = np.arange(int(80.0 / dt)) * dt
    return np.where(t < 25.0, 30.0, np.where(t < 55.0, 0.0, 12.0))


WINDOW = DistractionWindow(t_start=10.0, t_end=30.0, compliance=0.1, noise_scale=3.0)
REFERENCE_CASES = {
    "default_seed0": (DriverParams(seed=0), None),
    "default_seed5": (DriverParams(seed=5), 0.0),
    "stiff_no_delay": (DriverParams(kp=5e4, ki=1e3, reaction_delay=0.0, seed=1), 0.0),
    "soft_long_delay": (DriverParams(kp=300.0, ki=40.0, reaction_delay=1.0, seed=2), 3.0),
    "distracted": (DriverParams(seed=3, windows=(WINDOW,)), 0.0),
    "distracted_no_delay": (DriverParams(kp=900.0, ki=200.0, reaction_delay=0.0,
                                         seed=4, windows=(WINDOW,)), 5.0),
    "noiseless_from_minus_zero": (DriverParams(noise_std=0.0, seed=6), -0.0),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_loop_matches_reference_bitwise(case):
    dt = 0.025
    driver, v0 = REFERENCE_CASES[case]
    adv = _stress_advisory(dt)
    v_ref_loop, f_ref_loop = _reference_loop(VEH, driver, adv, dt, v0)
    traj = simulate_driver(VEH, driver, adv, sample_period=dt, v0=v0)
    for got, want in ((traj.v, v_ref_loop), (traj.f_tr, f_ref_loop), (traj.v_ref, adv)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    # the advisory drives every clamp of the loop
    assert f_ref_loop.max() == VEH.f_max
    assert f_ref_loop.min() == VEH.f_min
    assert np.any(v_ref_loop[1:] == 0.0)
    steps = np.abs(np.diff(f_ref_loop))
    assert np.any(steps >= driver.force_rate_limit * dt * (1 - 1e-12))


def test_standstill_clamp_keeps_negative_zero():
    # a plant so heavy that a tiny force underflows to a -0.0 speed change:
    # from v0 = -0.0 the clamp sees max(-0.0, 0.0), and the builtin keeps
    # its first argument
    heavy = VehicleParams(mass=1e25, a0=0.0, a1=0.0, a2=0.0, f_min=-9000.0, f_max=6500.0)
    driver = DriverParams(noise_std=1e-300, seed=4)  # first noise sample < 0
    adv = np.zeros(40)
    v_ref_loop, f_ref_loop = _reference_loop(heavy, driver, adv, 0.025, -0.0)
    traj = simulate_driver(heavy, driver, adv, sample_period=0.025, v0=-0.0)
    assert np.signbit(v_ref_loop[1]) and v_ref_loop[1] == 0.0
    assert np.array_equal(np.signbit(traj.v), np.signbit(v_ref_loop))
    assert np.array_equal(traj.v, v_ref_loop)
    assert np.array_equal(traj.f_tr, f_ref_loop)
