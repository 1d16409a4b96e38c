import dataclasses
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from koopdrive import advisory
from koopdrive.advisory import (
    BIG,
    ROUTE_CSV_HEADER,
    AdvisoryProfile,
    EcoDpConfig,
    PowertrainParams,
    RouteInfeasibleError,
    RouteSpec,
    edge_quantities,
    resample_to_time,
    solve_eco_dp,
    surrogate_powertrain,
)
from koopdrive.driversim import VehicleParams
from koopdrive.model import _write_csv_table

PT = PowertrainParams()
SHIPPED_ROUTE = Path(__file__).resolve().parents[1] / "configs" / "route_urban.csv"
SHIPPED_CONFIG = SHIPPED_ROUTE.with_name("default.json")
VEH = VehicleParams(**json.loads(SHIPPED_CONFIG.read_text())["vehicle"])


# ------------------------------------------------------------ powertrain

def test_engine_mode_never_cheaper():
    # the engine burns real fuel at a rate at least the battery equivalence
    # factor, so switching it on cannot lower the equivalent consumption
    rng = np.random.default_rng(0)
    v = rng.uniform(1, 14, 200)
    a = rng.uniform(-2, 1.5, 200)
    m_ev, ds_ev = surrogate_powertrain(v, a, 0, 0.0, VEH, PT)
    m_hev, ds_hev = surrogate_powertrain(v, a, 1, 0.0, VEH, PT)
    assert np.all(m_hev >= m_ev - 1e-15)


def test_engine_mode_drains_less():
    rng = np.random.default_rng(1)
    v = rng.uniform(1, 14, 200)
    a = rng.uniform(0.1, 1.5, 200)  # accelerating, battery discharging
    _, ds_ev = surrogate_powertrain(v, a, 0, 0.0, VEH, PT)
    _, ds_hev = surrogate_powertrain(v, a, 1, 0.0, VEH, PT)
    assert np.all(ds_ev < 0)
    assert np.all(np.abs(ds_hev) < np.abs(ds_ev))


def test_regen_charges_battery():
    # hard braking at speed recovers charge
    _, ds = surrogate_powertrain(np.array([12.0]), np.array([-2.0]), 0, 0.0, VEH, PT)
    assert ds[0] > 0


def test_ev_mode_burns_no_fuel_only_equivalent():
    m_ev, ds_ev = surrogate_powertrain(np.array([10.0]), np.array([0.0]), 0, 0.0, VEH, PT)
    # cruise at 10 m/s: equivalent mass rate = equiv_factor * battery power
    road = VEH.a0 + VEH.a1 * 10 + VEH.a2 * 100
    p_batt = road * 10.0 / PT.eta_drive
    np.testing.assert_allclose(m_ev[0], PT.equiv_factor_kg_per_j * p_batt, rtol=1e-12)
    # SoC slope is per metre of travel
    np.testing.assert_allclose(ds_ev[0], -p_batt / PT.battery_capacity_j / 10.0,
                               rtol=1e-12)


@pytest.mark.parametrize("name", ["mass", "a0", "a1", "a2"])
def test_wheel_power_reads_each_vehicle_field(name):
    # the vehicle's mass and road load price the wheel power, gravity on the
    # grade included; the powertrain holds no copy of them
    v, a, grade = np.array([10.0]), np.array([0.5]), 0.02
    slopes = []
    for vehicle in (VEH, dataclasses.replace(VEH, **{name: 1.5 * getattr(VEH, name)})):
        _, ds = surrogate_powertrain(v, a, 0, grade, vehicle, PT)
        p_wheel = (vehicle.mass * a + vehicle.a0 + vehicle.a1 * v + vehicle.a2 * v * v
                   + vehicle.mass * 9.81 * grade) * v
        np.testing.assert_allclose(ds, -p_wheel / PT.eta_drive / PT.battery_capacity_j / v,
                                   rtol=1e-12)
        slopes.append(ds[0])
    assert slopes[0] != slopes[1]


def test_powertrain_validation():
    with pytest.raises(ValueError):
        PowertrainParams(engine_kg_per_j=1e-9)  # cheaper than the equivalence factor
    with pytest.raises(ValueError):
        PowertrainParams(eta_drive=0.0)
    with pytest.raises(ValueError):
        PowertrainParams(engine_battery_share=1.5)
    with pytest.raises(ValueError, match="battery capacity must be positive"):
        PowertrainParams(battery_capacity_j=0.0)


def test_powertrain_requires_motion():
    with pytest.raises(ValueError):
        surrogate_powertrain(np.array([0.0]), np.array([0.0]), 0, 0.0, VEH, PT)


# ------------------------------------------------------------ edge pricing

def test_edge_timing_uses_mean_speed():
    cfg = EcoDpConfig()
    feas, a, dt, stage, dsoc = edge_quantities(
        np.array([4.0]), np.array([6.0]), 0, 0.0, 10.0, VEH, cfg)
    assert feas[0]
    np.testing.assert_allclose(dt[0], 10.0 / 5.0, rtol=1e-12)
    np.testing.assert_allclose(a[0], (36 - 16) / 20.0, rtol=1e-12)


def test_edge_accel_bounds_enforced():
    cfg = EcoDpConfig()
    feas, *_ = edge_quantities(np.array([0.6]), np.array([10.0]), 0, 0.0, 10.0, VEH, cfg)
    assert not feas[0]
    feas, *_ = edge_quantities(np.array([12.0]), np.array([2.0]), 0, 0.0, 10.0, VEH, cfg)
    assert not feas[0]


def test_edge_stage_blends_time_and_fuel():
    cfg = EcoDpConfig(gamma=0.5)
    v1, v2 = np.array([8.0]), np.array([8.0])
    feas, a, dt, stage, dsoc = edge_quantities(v1, v2, 0, 0.0, 10.0, VEH, cfg)
    m_eqf, _ = surrogate_powertrain(np.array([8.0]), np.array([0.0]), 0, 0.0, VEH,
                                    cfg.powertrain)
    expect = (0.5 * m_eqf[0] / cfg.powertrain.max_engine_fuel_rate + 0.5) * dt[0]
    np.testing.assert_allclose(stage[0], expect, rtol=1e-12)


def test_gamma_zero_is_pure_time():
    cfg = EcoDpConfig(gamma=0.0)
    _, _, dt, stage, _ = edge_quantities(np.array([8.0]), np.array([8.0]), 1, 0.0, 10.0,
                                         VEH, cfg)
    np.testing.assert_array_equal(stage, dt)


# ------------------------------------------------------------ route spec

def test_route_csv_roundtrip(tmp_path):
    n = 11
    stop = np.zeros(n, dtype=bool)
    stop[[0, 10]] = True
    route = RouteSpec(step_m=10.0, v_min=np.zeros(n), v_max=np.full(n, 13.9),
                      stop=stop, grade=np.linspace(-0.01, 0.01, n))
    p = tmp_path / "route.csv"
    _write_csv_table(p, ROUTE_CSV_HEADER, zip(
        route.positions.tolist(), route.v_min.tolist(), route.v_max.tolist(),
        route.stop.astype(int).tolist(), route.grade.tolist()))
    back = RouteSpec.read_csv(p)
    assert back.step_m == route.step_m
    np.testing.assert_array_equal(back.v_max, route.v_max)
    np.testing.assert_array_equal(back.stop, route.stop)
    np.testing.assert_array_equal(back.grade, route.grade)


def test_route_validation():
    for step in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            RouteSpec(step_m=step, v_min=np.zeros(3), v_max=np.ones(3),
                      stop=np.zeros(3, dtype=bool), grade=np.zeros(3))
    with pytest.raises(ValueError):
        RouteSpec(step_m=10.0, v_min=np.full(3, 5.0), v_max=np.full(3, 2.0),
                  stop=np.zeros(3, dtype=bool), grade=np.zeros(3))
    with pytest.raises(ValueError):
        RouteSpec(step_m=10.0, v_min=np.zeros(2), v_max=np.ones(3),
                  stop=np.zeros(3, dtype=bool), grade=np.zeros(3))


def _profile(v_ref, stop):
    n = len(v_ref)
    return AdvisoryProfile(positions=np.arange(n) * 10.0, v_ref=np.asarray(v_ref),
                           soc=np.full(n, 0.5), cumulative_cost=np.zeros(n),
                           engine_on=np.zeros(n - 1, dtype=int), node_times=np.arange(n) * 2.0,
                           stop=np.asarray(stop), total_cost=0.0)


@pytest.mark.parametrize("refused, message", [
    (lambda: RouteSpec(step_m=10.0, v_min=[0.0], v_max=[1.0], stop=[False], grade=[0.0]),
     "a route needs at least two nodes"),
    (lambda: RouteSpec(step_m=True, v_min=np.zeros(3), v_max=np.ones(3),
                       stop=np.zeros(3, dtype=bool), grade=np.zeros(3)),
     "step_m must be positive and finite, got True"),
    (lambda: surrogate_powertrain(1.0, np.nan, 0, 0.0, VEH, PT),
     "acceleration and grade must be finite"),
    (lambda: surrogate_powertrain(1.0, 0.0, 0, np.inf, VEH, PT),
     "acceleration and grade must be finite"),
    (lambda: resample_to_time(_profile([0.0, 0.0, 5.0], [True, False, False]), 0.025),
     "step 0 has non-positive mean speed 0.0 (stop nodes must sit at a positive grid speed)"),
    (lambda: resample_to_time(_profile([5.0, -5.0, 5.0], [False, False, False]), 0.025),
     "step 0 has non-positive mean speed 0.0 and is not at an annotated stop"),
], ids=["one_node", "bool_step", "nan_acceleration", "inf_grade", "zero_speed_at_a_stop",
        "zero_speed_off_a_stop"])
def test_library_refusal_has_its_message(refused, message):
    # no command reaches these: a route file has two rows, the route's grades
    # and the grid's speeds are finite, and the solver's speeds are positive;
    # step_m=True was taken for a step of 1 m
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        refused()


def test_config_validation():
    with pytest.raises(ValueError):
        EcoDpConfig(gamma=1.5)
    with pytest.raises(ValueError):
        EcoDpConfig(soc_min=0.5, soc_max=0.4)
    with pytest.raises(ValueError):
        EcoDpConfig(soc_terminal_floor=0.95)
    with pytest.raises(ValueError):
        EcoDpConfig(speed_floor=0.0)
    with pytest.raises(ValueError):
        EcoDpConfig(a_min=1.0, a_max=0.5)


# ------------------------------------------------------------ DP oracle

def accel_only_toy():
    """Five nodes whose speed windows rise fast enough that no admissible
    transition decelerates, keeping every stage strictly battery-draining."""
    v_min = np.array([0.0, 2.0, 4.5, 6.0, 6.0])
    v_max = np.array([9.5, 5.5, 7.5, 7.5, 7.5])
    stop = np.array([True, False, False, False, False])
    grade = np.array([0.01, 0.0, -0.005, 0.02, 0.0])
    return RouteSpec(step_m=10.0, v_min=v_min, v_max=v_max, stop=stop, grade=grade)


def toy_config(**kw):
    defaults = dict(gamma=0.5, v_levels=5, soc_levels=3,
                    soc_initial=0.55, soc_terminal_floor=0.26)
    defaults.update(kw)
    return EcoDpConfig(**defaults)


def enumerate_paths(route, config):
    """Exhaustive reference: every admissible speed/engine sequence, exact
    continuous SoC, costs accumulated right to left. Each edge is priced
    once, on its own, and its floats are reused by every sequence crossing it."""
    vgrid = np.linspace(config.speed_floor, float(np.max(route.v_max)), config.v_levels)
    S = route.n_steps
    adm = []
    for j in range(S + 1):
        if route.stop[j]:
            adm.append([0])
        else:
            adm.append([int(i) for i in np.where(
                (vgrid >= route.v_min[j] - 1e-9) & (vgrid <= route.v_max[j] + 1e-9))[0]])
    priced = {}
    best = None
    for speeds in itertools.product(*adm):
        for engines in itertools.product((0, 1), repeat=S):
            soc = config.soc_initial
            stages = []
            ok = True
            for j in range(S):
                key = (j, speeds[j], speeds[j + 1], engines[j])
                if key not in priced:
                    feas, _, _, stage, dsoc = edge_quantities(
                        np.array([vgrid[speeds[j]]]), np.array([vgrid[speeds[j + 1]]]),
                        engines[j], route.grade[j], route.step_m, VEH, config)
                    priced[key] = (bool(feas[0]), float(stage[0]), float(dsoc[0]))
                feas, stage, dsoc = priced[key]
                if not feas:
                    ok = False
                    break
                soc = min(soc + dsoc, config.soc_max)
                if soc < config.soc_min - 1e-12:
                    ok = False
                    break
                stages.append(stage)
            if not ok or soc <= config.soc_terminal_floor:
                continue
            cost = 0.0
            for s in reversed(stages):
                cost = s + cost
            if best is None or cost < best:
                best = cost
    return best


def test_dp_matches_enumeration_exactly():
    route = accel_only_toy()
    config = toy_config()
    prof = solve_eco_dp(route, VEH, config)
    oracle = enumerate_paths(route, config)
    assert oracle is not None
    assert prof.total_cost == oracle


def test_dp_matches_enumeration_other_gammas():
    route = accel_only_toy()
    for gamma in (0.0, 0.25, 1.0):
        config = toy_config(gamma=gamma)
        prof = solve_eco_dp(route, VEH, config)
        assert prof.total_cost == enumerate_paths(route, config)


def test_dp_matches_enumeration_second_toy():
    # 4-level grid on [0.6, 8]: 0.6, 3.07, 5.53, 8.0; windows rise so the
    # admissible graph is accel/cruise only
    v_min = np.array([0.0, 2.5, 5.0, 7.0])
    v_max = np.array([8.0, 5.6, 8.0, 8.0])
    stop = np.array([True, False, False, False])
    grade = np.array([0.0, 0.015, 0.0, 0.0])
    route = RouteSpec(step_m=12.0, v_min=v_min, v_max=v_max, stop=stop, grade=grade)
    config = toy_config(v_levels=4)
    prof = solve_eco_dp(route, VEH, config)
    assert prof.total_cost == enumerate_paths(route, config)


def test_dp_profile_keeps_constraints():
    route = accel_only_toy()
    config = toy_config()
    prof = solve_eco_dp(route, VEH, config)
    # speed window at every node, stop pinned at the crawl floor
    assert prof.v_ref[0] == config.speed_floor
    for j in range(1, len(prof.v_ref)):
        assert route.v_min[j] - 1e-9 <= prof.v_ref[j] <= route.v_max[j] + 1e-9
    # acceleration bounds step by step
    for j in range(route.n_steps):
        a = (prof.v_ref[j + 1] ** 2 - prof.v_ref[j] ** 2) / (2 * route.step_m)
        assert config.a_min - 1e-9 <= a <= config.a_max + 1e-9
    # battery inside its window, strict terminal floor
    assert np.all(prof.soc >= config.soc_min - 1e-12)
    assert np.all(prof.soc <= config.soc_max + 1e-12)
    assert prof.soc[-1] > config.soc_terminal_floor
    assert np.all((prof.engine_on == 0) | (prof.engine_on == 1))
    assert prof.node_times[-1] == pytest.approx(prof.duration)


def test_dp_prefers_electric_when_unconstrained():
    route = accel_only_toy()
    prof = solve_eco_dp(route, VEH, toy_config())
    assert int(prof.engine_on.sum()) == 0


def test_infeasible_soc_raises():
    route = accel_only_toy()
    config = toy_config(soc_initial=0.21, soc_terminal_floor=0.89)
    with pytest.raises(RouteInfeasibleError) as exc:
        solve_eco_dp(route, VEH, config)
    assert exc.value.node_index == 0


def test_infeasible_kinematics_raises():
    # stops bracketing a mandatory high-speed node that a_max cannot reach
    v_min = np.array([0.0, 9.0, 0.0])
    v_max = np.array([13.9, 13.9, 13.9])
    stop = np.array([True, False, True])
    route = RouteSpec(step_m=10.0, v_min=v_min, v_max=v_max, stop=stop,
                      grade=np.zeros(3))
    with pytest.raises(RouteInfeasibleError) as exc:
        solve_eco_dp(route, VEH, EcoDpConfig())
    assert "reachable" in str(exc.value)


def test_duration_grows_with_energy_weight():
    # pure time weighting cannot be slower than heavier energy weightings
    route = accel_only_toy()
    d = {}
    for gamma in (0.0, 0.5, 1.0):
        d[gamma] = solve_eco_dp(route, VEH, toy_config(gamma=gamma)).duration
    assert d[0.0] <= d[0.5] <= d[1.0]


# ------------------------------------------------------------ backward pass

_CUT = advisory._BIG_CUT


def _reference_interp_rows(V_rows, queries, socgrid):
    # the interpolation rule of advisory._interp_geometry and
    # advisory._interp_values, copied so that the
    # reference does not move with the code under test
    ns = len(socgrid)
    queries = np.minimum(queries, socgrid[-1])
    idx = np.clip(np.searchsorted(socgrid, queries, side="right") - 1, 0, ns - 2)
    lo = socgrid[idx]
    hi = socgrid[idx + 1]
    w = (queries - lo) / (hi - lo)
    v0 = np.take_along_axis(V_rows, idx, axis=-1)
    v1 = np.take_along_axis(V_rows, idx + 1, axis=-1)
    bad0 = v0 >= _CUT
    bad1 = v1 >= _CUT
    out = np.where(v0 == v1, v0, v0 + w * (v1 - v0))
    out = np.where(bad0 & ~bad1, v1, out)
    out = np.where(bad1 & ~bad0, v0, out)
    out = np.where(bad0 & bad1, BIG, out)
    out = np.where(queries < socgrid[0] - 1e-12, BIG, out)
    return np.where(out >= _CUT, BIG, out)


def _reference_value_function(route, config, vgrid, socgrid, adm):
    """The dense backward pass: every (i1, i2) edge is interpolated against a
    broadcast copy of the next node's values, and the edges outside the
    acceleration bounds are masked to the sentinel afterwards."""
    ds = route.step_m
    S = route.n_steps
    ns = len(socgrid)
    V = np.full((S + 1, len(vgrid), ns), BIG)
    ok_soc = socgrid > config.soc_terminal_floor
    V[S][np.ix_(adm[S], np.where(ok_soc)[0])] = 0.0
    for j in range(S - 1, -1, -1):
        i1 = adm[j]
        i2 = adm[j + 1]
        v1 = vgrid[i1][:, None]
        v2 = vgrid[i2][None, :]
        best = np.full((len(i1), ns), BIG)
        for engine in (0, 1):
            feasible, _, _, stage, dsoc = edge_quantities(
                v1, v2, engine, route.grade[j], ds, VEH, config
            )
            queries = socgrid[None, None, :] + dsoc[:, :, None]
            vals = _reference_interp_rows(
                np.broadcast_to(V[j + 1][i2][None, :, :], (len(i1), len(i2), ns)),
                queries, socgrid,
            )
            total = stage[:, :, None] + vals
            total = np.where(feasible[:, :, None], total, BIG)
            total = np.where(total >= _CUT, BIG, total)
            best = np.minimum(best, total.min(axis=1))
        V[j][i1] = best
    return V


def _rising_toy():
    v_min = np.array([0.0, 2.5, 5.0, 7.0])
    v_max = np.array([8.0, 5.6, 8.0, 8.0])
    stop = np.array([True, False, False, False])
    grade = np.array([0.0, 0.015, 0.0, 0.0])
    return RouteSpec(step_m=12.0, v_min=v_min, v_max=v_max, stop=stop, grade=grade)


def _shipped_route():
    return RouteSpec.read_csv(str(SHIPPED_ROUTE))


def _shipped_config(**kw):
    return EcoDpConfig(**{**json.loads(SHIPPED_CONFIG.read_text())["advisory"], **kw})


def _grids(route, config):
    vgrid = np.linspace(config.speed_floor, float(np.max(route.v_max)), config.v_levels)
    socgrid = np.linspace(config.soc_min, config.soc_max, config.soc_levels)
    return vgrid, socgrid, advisory._admissible_speeds(route, vgrid)


def _value_function(route, config, vgrid, socgrid, adm):
    return advisory._backward(config, vgrid, socgrid, adm,
                              advisory._edge_tables(route, VEH, config, vgrid, adm))[0]


# the last case narrows the SoC window until the engine has to run on part
# of the route; its value rows mix feasible and sentinel cells away from the
# terminal node (checked below), so backward queries land in cells with one
# infeasible corner
BACKWARD_CASES = {
    "toy": (accel_only_toy, toy_config()),
    "toy_time_only": (accel_only_toy, toy_config(gamma=0.0)),
    "toy_fuel_only": (accel_only_toy, toy_config(gamma=1.0, soc_levels=7)),
    "rising_toy": (_rising_toy, toy_config(v_levels=4)),
    "shipped": (_shipped_route, EcoDpConfig(v_levels=16, soc_levels=11)),
    "shipped_tight_soc": (_shipped_route, EcoDpConfig(
        v_levels=16, soc_levels=11, soc_min=0.36, soc_max=0.44,
        soc_initial=0.43, soc_terminal_floor=0.37)),
}


@pytest.mark.parametrize("case", sorted(BACKWARD_CASES))
def test_backward_pass_matches_dense_reference(case, monkeypatch):
    make_route, config = BACKWARD_CASES[case]
    route = make_route()
    vgrid, socgrid, adm = _grids(route, config)

    V = _value_function(route, config, vgrid, socgrid, adm)
    V_ref = _reference_value_function(route, config, vgrid, socgrid, adm)
    assert np.array_equal(V, V_ref)
    assert np.array_equal(np.signbit(V), np.signbit(V_ref))
    if case == "shipped_tight_soc":
        inner = V[1:-1]
        mixed = np.any(inner >= _CUT, axis=-1) & np.any(inner < _CUT, axis=-1)
        assert mixed.any()

    prof = solve_eco_dp(route, VEH, config)
    if case == "shipped_tight_soc":
        assert prof.engine_on.any()
    backward = advisory._backward
    monkeypatch.setattr(advisory, "_backward", lambda *args: (
        _reference_value_function(route, config, vgrid, socgrid, adm), backward(*args)[1]))
    ref = solve_eco_dp(route, VEH, config)
    assert prof.total_cost == ref.total_cost
    for name in ("positions", "v_ref", "soc", "cumulative_cost", "engine_on",
                 "node_times", "stop"):
        a, b = getattr(prof, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
        assert np.array_equal(np.signbit(a), np.signbit(b)), name


@pytest.mark.parametrize("graded", [False, True], ids=["shipped", "shipped_graded"])
def test_value_rows_are_upward_closed_in_soc(graded):
    # _interp_values relies on it: a cell whose upper corner alone is
    # infeasible never occurs, so it has no branch for one
    route = _shipped_route()
    if graded:
        grade = np.random.default_rng(6).uniform(-0.06, 0.06, len(route.grade))
        route = RouteSpec(step_m=route.step_m, v_min=route.v_min, v_max=route.v_max,
                          stop=route.stop, grade=grade)
    config = _shipped_config()
    feasible = _value_function(route, config, *_grids(route, config)) < _CUT
    assert np.all(feasible[..., :-1] <= feasible[..., 1:])
    # not vacuous: some rows of steps before the last hold both kinds of cell
    inner = feasible[:-1]
    assert np.any(inner.any(axis=-1) & ~inner.all(axis=-1))


def _repeating_toy():
    """Twelve nodes under one speed window whose steps repeat in runs: stops
    at nodes 0 and 6, and grades that change from 0.0 to -0.0 and to 0.01
    between steps that share their admissible speeds."""
    stop = np.zeros(12, dtype=bool)
    stop[[0, 6]] = True
    grade = np.array([0.0, 0.0, 0.0, -0.0, -0.0, 0.01, 0.0, 0.0, 0.0, 0.0, 0.01, 0.0])
    return RouteSpec(step_m=10.0, v_min=np.zeros(12), v_max=np.full(12, 9.0),
                     stop=stop, grade=grade)


def test_edge_tables_price_each_distinct_step_once(monkeypatch):
    route = _repeating_toy()
    config = toy_config(soc_levels=7)
    vgrid, socgrid, adm = _grids(route, config)
    keys = [(adm[j].tobytes(), adm[j + 1].tobytes(), route.grade[j].tobytes())
            for j in range(route.n_steps)]
    # 11 steps in 5 configurations: 0, 6 (leaving a stop) | 1-4, 7-9 (0.0)
    # | 3-4 (-0.0) | 5 (into the stop) | 10 (0.01)
    assert len(set(keys)) == 5

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return edge_quantities(*args, **kwargs)

    monkeypatch.setattr(advisory, "edge_quantities", counting)
    tables = advisory._edge_tables(route, VEH, config, vgrid, adm)
    assert len(calls) == 5
    # steps with equal keys share one table object, and no other steps do
    for j, k in itertools.combinations(range(route.n_steps), 2):
        assert (tables[j] is tables[k]) == (keys[j] == keys[k])
    # each table holds what pricing its step alone gives, engine mode first
    monkeypatch.undo()
    for j, table in enumerate(tables):
        for engine in (0, 1):
            alone = edge_quantities(vgrid[adm[j]][:, None], vgrid[adm[j + 1]][None, :],
                                    engine, route.grade[j], route.step_m, VEH, config)
            for got, want in zip(table, alone):
                assert got.shape == (2, len(adm[j]), len(adm[j + 1]))
                assert got[engine].tobytes() == np.broadcast_to(want, got[engine].shape).tobytes()
    V = advisory._backward(config, vgrid, socgrid, adm, tables)[0]
    V_ref = _reference_value_function(route, config, vgrid, socgrid, adm)
    assert V.tobytes() == V_ref.tobytes()


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
def test_shipped_stage_costs_leave_the_sentinel_exact(gamma):
    # the backward pass adds stage costs to interpolated values without a
    # second cut; that needs BIG + stage == BIG, which holds for any stage
    # below about 7e13 (half the spacing of doubles near 1e30)
    route = _shipped_route()
    config = _shipped_config(gamma=gamma)
    vgrid, _, adm = _grids(route, config)
    for feasible, _, _, stage, _ in advisory._edge_tables(route, VEH, config, vgrid, adm):
        priced = stage[feasible]
        assert np.all(np.isfinite(priced))
        assert np.all(np.abs(priced) < 1e6)
        assert np.all(BIG + priced == BIG)


# ------------------------------------------------------------ forward pass

def _reference_forward(route, config, vgrid, socgrid, adm, V):
    """The per-candidate forward loop: each step prices both engine modes
    from the current speed and keeps the least (cost + value, |accel|,
    engine) key under a strict <, so exact ties go to the earlier candidate."""
    ds = route.step_m
    S = route.n_steps
    v_ref = np.empty(S + 1)
    soc = np.empty(S + 1)
    cum = np.zeros(S + 1)
    engine_on = np.zeros(S, dtype=int)
    node_times = np.zeros(S + 1)
    iv = int(adm[0][0])
    v_ref[0] = vgrid[iv]
    soc[0] = config.soc_initial
    for j in range(S):
        i2 = adm[j + 1]
        chosen = None
        for engine in (0, 1):
            feasible, accel, dt, stage, dsoc = edge_quantities(
                vgrid[iv], vgrid[i2], engine, route.grade[j], ds, VEH, config)
            soc_new = np.minimum(soc[j] + dsoc, socgrid[-1])
            vals = _reference_interp_rows(V[j + 1][i2], soc_new[:, None], socgrid)[:, 0]
            for c, iv2 in enumerate(i2):
                if not feasible[c] or vals[c] >= _CUT:
                    continue
                if j == S - 1 and soc_new[c] <= config.soc_terminal_floor:
                    continue
                key = (stage[c] + vals[c], abs(accel[c]), engine)
                if chosen is None or key < chosen[0]:
                    chosen = (key, int(iv2), engine, float(stage[c]),
                              float(soc_new[c]), float(dt[c]))
        assert chosen is not None, f"no admissible step from node {j}"
        _, iv, eng, stage_c, soc_c, dt_c = chosen
        engine_on[j] = eng
        v_ref[j + 1] = vgrid[iv]
        soc[j + 1] = soc_c
        cum[j + 1] = cum[j] + stage_c
        node_times[j + 1] = node_times[j] + dt_c
    return dict(v_ref=v_ref, soc=soc, cumulative_cost=cum, engine_on=engine_on,
                node_times=node_times)


def _assert_forward_matches_reference(route, config, V=None):
    vgrid, socgrid, adm = _grids(route, config)
    if V is None:  # the V solve_eco_dp uses; the backward-pass tests check it
        V = _value_function(route, config, vgrid, socgrid, adm)
    prof = solve_eco_dp(route, VEH, config)
    ref = _reference_forward(route, config, vgrid, socgrid, adm, V)
    for name, b in ref.items():
        a = getattr(prof, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    return prof


@pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_forward_pass_matches_reference_on_shipped_route(gamma):
    _assert_forward_matches_reference(_shipped_route(), _shipped_config(gamma=gamma))


# the last case narrows the SoC window until the engine has to run
GRADED_CASES = {
    3: dict(gamma=0.0),
    4: dict(gamma=1.0),
    5: dict(v_levels=16, soc_levels=11, soc_min=0.36, soc_max=0.44, soc_initial=0.43,
            soc_terminal_floor=0.37),
}


@pytest.mark.parametrize("seed", sorted(GRADED_CASES))
def test_forward_pass_matches_reference_on_graded_routes(seed):
    route = _shipped_route()
    grade = np.random.default_rng(seed).uniform(-0.03, 0.03, len(route.grade))
    route = RouteSpec(step_m=route.step_m, v_min=route.v_min, v_max=route.v_max,
                      stop=route.stop, grade=grade)
    prof = _assert_forward_matches_reference(route, _shipped_config(**GRADED_CASES[seed]))
    assert prof.engine_on.any() or seed != 5


def test_forward_pass_breaks_exact_ties_like_the_reference(monkeypatch):
    # one step decelerating from 8.0 m/s to 4.3 (|a| 2.28) or 6.15 (|a| 1.31)
    # under pure time weighting, so both engine modes cost the same, and a
    # flat value table that makes the two speeds' costs tie exactly:
    # dt0 + (dt1 - dt0) == dt1, the difference being exact as dt0 / dt1 < 2
    route = RouteSpec(step_m=10.0, v_min=np.array([7.9, 4.0]), v_max=np.array([8.0, 6.5]),
                      stop=np.zeros(2, dtype=bool), grade=np.zeros(2))
    config = toy_config(gamma=0.0, a_min=-3.0)
    vgrid, _, adm = _grids(route, config)
    assert adm[0].tolist() == [4] and adm[1].tolist() == [2, 3]
    _, _, dt, _, _ = edge_quantities(vgrid[4], vgrid[2:4], 0, 0.0, route.step_m, VEH, config)
    V = np.full((2, config.v_levels, config.soc_levels), BIG)
    V[1, 2] = dt[1] - dt[0]
    V[1, 3] = 0.0
    V[0, 4] = dt[1]
    assert dt[0] + V[1, 2, 0] == dt[1] + V[1, 3, 0]
    backward = advisory._backward
    monkeypatch.setattr(advisory, "_backward", lambda *args: (V, backward(*args)[1]))
    prof = _assert_forward_matches_reference(route, config, V)
    # the tie goes to the smaller |accel|, then to the engine off
    assert prof.v_ref[1] == vgrid[3]
    assert prof.engine_on.tolist() == [0]


# ------------------------------------------------------------ SoC bounds

def _bounds(route, config):
    vgrid, socgrid, adm = _grids(route, config)
    tables = advisory._edge_tables(route, VEH, config, vgrid, adm)
    return vgrid, adm, advisory._backward(config, vgrid, socgrid, adm, tables)[1]


def _graded_toy(rng):
    """Five nodes after a stop under one speed window, with steep grades and
    a battery small enough that one step moves the SoC across grid cells."""
    route = RouteSpec(step_m=float(rng.choice([20.0, 40.0])), v_min=np.zeros(5),
                      v_max=np.full(5, 9.5), stop=np.array([True, False, False, False, False]),
                      grade=rng.uniform(-0.08, 0.08, 5))
    floor = rng.uniform(0.25, 0.6)
    config = EcoDpConfig(v_levels=4, soc_levels=int(rng.choice([3, 5, 11])),
                         soc_terminal_floor=floor, soc_initial=floor + rng.uniform(-0.02, 0.03),
                         powertrain=PowertrainParams(battery_capacity_j=2e5))
    return route, config


def _solve_or_none(route, config):
    try:
        return solve_eco_dp(route, VEH, config)
    except RouteInfeasibleError:
        return None


def test_verdict_matches_enumeration_on_graded_toys():
    # 41 of the 60 have a path; the grid-cell verdict and the forward dead
    # end refused 9 of those: instances 4, 5, 8, 12, 13, 16, 18, 23 and 51
    rng = np.random.default_rng(1)
    cases = [_graded_toy(rng) for _ in range(60)]
    profiles = [_solve_or_none(route, config) for route, config in cases]
    solvable = [enumerate_paths(route, config) is not None for route, config in cases]
    assert [prof is not None for prof in profiles] == solvable
    assert 0 < sum(solvable) < len(cases)
    for (route, config), prof in zip(cases, profiles):
        vgrid, adm, b = _bounds(route, config)
        if prof is None:
            assert config.soc_initial < b[0][0]
            continue
        # the profile never falls below the least SoC of its speed, node 0
        # and the strict floor at the last node included
        for j, (v, soc) in enumerate(zip(prof.v_ref, prof.soc)):
            assert soc >= b[j][vgrid[adm[j]] == v].item()
        assert prof.soc[-1] > config.soc_terminal_floor


@pytest.mark.parametrize("floor", [0.26, 0.35])
def test_least_initial_soc_is_exact_to_the_ulp_on_shipped_route(floor):
    # a plain b_{j+1} - dsoc recursion gives a b_0 one ulp too low here: at
    # floor 0.26, 0.2151994682204546, from which the forward pass dead-ends
    route = _shipped_route()
    b0 = float(_bounds(route, _shipped_config(soc_terminal_floor=floor))[2][0][0])
    prof = solve_eco_dp(route, VEH, _shipped_config(soc_terminal_floor=floor, soc_initial=b0))
    assert prof.soc[0] == b0
    assert prof.soc[-1] > floor
    below = float(np.nextafter(b0, 0))
    with pytest.raises(RouteInfeasibleError) as exc:
        solve_eco_dp(route, VEH, _shipped_config(soc_terminal_floor=floor, soc_initial=below))
    assert exc.value.node_index == 0
    assert f"initial state of charge {below!r} is below {b0!r}" in str(exc.value)


def test_least_initial_soc_is_exact_to_the_ulp_on_toys():
    # on the graded toys, steps that move the SoC by tenths make
    # target - dsoc round a float above or below the least start, so both
    # halves of the ulp step act
    rng = np.random.default_rng(1)
    cases = [(accel_only_toy(), toy_config())] + [_graded_toy(rng) for _ in range(20)]
    checked = 0
    for route, config in cases:
        b0 = float(_bounds(route, config)[2][0][0])
        if not config.soc_min < b0 <= config.soc_max:
            continue
        checked += 1
        assert enumerate_paths(route, dataclasses.replace(config, soc_initial=b0)) is not None
        below = dataclasses.replace(config, soc_initial=float(np.nextafter(b0, 0)))
        assert enumerate_paths(route, below) is None
    assert checked >= 10


@pytest.mark.parametrize("floor", [0.35, 0.38])
def test_feasible_shipped_floors_solve(floor):
    # the least initial SoC is 0.3052 and 0.3352, below the initial 0.40;
    # the grid-cell verdict let both through, and the forward pass then
    # dead-ended at node 739 with SoC 0.3464
    prof = solve_eco_dp(_shipped_route(), VEH, _shipped_config(soc_terminal_floor=floor))
    assert floor < prof.soc[-1] < floor + 2e-6


@pytest.mark.parametrize("initial, floor, least", [(0.4, 0.45, 0.4052), (0.21, 0.89, 0.8452)],
                         ids=["floor_0.45", "initial_0.21_floor_0.89"])
def test_infeasible_shipped_soc_is_refused_at_node_0(initial, floor, least):
    # both passed the grid-cell verdict and dead-ended late, at nodes 737 and 720
    route = _shipped_route()
    config = _shipped_config(soc_initial=initial, soc_terminal_floor=floor)
    b0 = float(_bounds(route, config)[2][0][0])
    assert b0 == pytest.approx(least, abs=1e-4)
    with pytest.raises(RouteInfeasibleError) as exc:
        solve_eco_dp(route, VEH, config)
    assert exc.value.node_index == 0
    assert f"initial state of charge {initial!r} is below {b0!r}" in str(exc.value)


def test_soc_blocked_node_is_named():
    # the 40% climb after node 2 drains more than a full battery at every
    # speed, and the descent before it, which would charge past full, cannot
    # store the surplus: no speed at node 1 can finish, whatever the start
    route = RouteSpec(step_m=40.0, v_min=np.zeros(4), v_max=np.full(4, 9.5),
                      stop=np.array([True, False, False, False]),
                      grade=np.array([0.0, -0.2, 0.4, 0.0]))
    config = EcoDpConfig(v_levels=4, soc_levels=5, soc_initial=0.85,
                         powertrain=PowertrainParams(battery_capacity_j=1e5))
    _, _, b = _bounds(route, config)
    assert np.all(np.isfinite(b[2]) & (b[2] > config.soc_max))
    assert np.all(np.isinf(b[1]))
    with pytest.raises(RouteInfeasibleError) as exc:
        solve_eco_dp(route, VEH, config)
    assert exc.value.node_index == 1
    assert "reachable" in str(exc.value)


# ------------------------------------------------------------ resampling

def test_resample_grid():
    route = accel_only_toy()
    prof = solve_eco_dp(route, VEH, toy_config())
    t, v = resample_to_time(prof, 0.025)
    assert t[0] == 0.0
    np.testing.assert_allclose(np.diff(t), 0.025, rtol=0, atol=1e-12)
    # endpoint-exclusive: the grid covers [0, duration)
    assert t[-1] <= prof.duration
    assert len(t) == int(np.floor(prof.duration / 0.025 + 1e-9))
    assert v.min() >= toy_config().speed_floor - 1e-9
    assert v.max() <= np.max(route.v_max) + 1e-9


def test_resample_interpolates_between_nodes():
    route = accel_only_toy()
    prof = solve_eco_dp(route, VEH, toy_config())
    t, v = resample_to_time(prof, 0.025)
    # node times map back onto the profile speeds
    for j, tn in enumerate(prof.node_times[:-1]):
        k = int(round(tn / 0.025))
        if k < len(v):
            assert abs(v[min(k, len(v) - 1)] - prof.v_ref[j]) < 0.5


def test_profile_csv(tmp_path):
    route = accel_only_toy()
    prof = solve_eco_dp(route, VEH, toy_config())
    p = tmp_path / "prof.csv"
    prof.to_csv(p)
    header = p.read_text().splitlines()[0]
    assert "position_m" in header
    assert "v_ref_mps" in header
    assert len(p.read_text().splitlines()) == len(prof.v_ref) + 1
