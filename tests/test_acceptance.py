"""Acceptance suite: every shipped guarantee, one printed verdict per check.

Each test prints a single PASS/FAIL line with its measured runtime so the
whole contract can be audited from the pytest transcript. The expensive
distracted-driver scenario (advisory, 18 drivers, offline fit) is built once
through the real CLI and shared by the checks that need it.
"""

import contextlib
import hashlib
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from koopdrive.advisory import EcoDpConfig, RouteSpec, edge_quantities, solve_eco_dp
from koopdrive.basis import LiftedBasis
from koopdrive.cli import main
from koopdrive.driversim import VehicleParams
from koopdrive.edmd import FitConfig, fit
from koopdrive.evaluate import bench_update, evaluate_horizons
from koopdrive.model import KoopmanModel, Trajectory
from koopdrive.rls import (OnlineSettings, init_rls, rls_update, snapshot_model, stream_ticks,
                           update_tick)
from test_edmd import fold_pairs
from test_rls import parent_kernel

ROOT = Path(__file__).resolve().parents[1]
ROUTE = ROOT / "configs" / "route_urban.csv"
CONFIG = ROOT / "configs" / "default.json"
VEH = VehicleParams(**json.loads(CONFIG.read_text())["vehicle"])

_SCENARIO: dict = {}


@pytest.fixture
def verdict(capsys):
    @contextlib.contextmanager
    def check(label: str, budget_s: float | None):
        t0 = time.perf_counter()
        ok = False
        try:
            yield
            ok = True
        finally:
            elapsed = time.perf_counter() - t0
            over = budget_s is not None and elapsed >= budget_s
            status = "PASS" if ok and not over else "FAIL"
            budget = f", budget {budget_s:g} s" if budget_s is not None else ""
            with capsys.disabled():
                print(f"[acceptance] {label}: {status} ({elapsed:.2f} s{budget})")
        if over:
            raise AssertionError(f"{label}: {elapsed:.2f} s exceeded {budget_s:g} s")
    return check


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def _scenario(work_dir: Path) -> dict:
    """Urban advisory, 18 simulated drivers, one offline fit; cached."""
    if _SCENARIO:
        return _SCENARIO
    adv = work_dir / "advisory"
    drv = work_dir / "drivers"
    model_path = work_dir / "model.json"
    assert main(["advisory", "--route", str(ROUTE), "--config", str(CONFIG),
                 "--out", str(adv)]) == 0
    assert main(["simulate", "--advisory", str(adv / "advisory_time.csv"),
                 "--config", str(CONFIG), "--out", str(drv)]) == 0
    assert main(["fit", "--data", str(drv), "--config", str(CONFIG),
                 "--model-out", str(model_path)]) == 0
    _SCENARIO.update(
        cfg=json.loads(CONFIG.read_text()),
        model=KoopmanModel.load(str(model_path)),
        trajectories=[Trajectory.read_csv(str(p)) for p in sorted(drv.glob("*.csv"))],
    )
    return _SCENARIO


def _zero_model(basis):
    n = basis.lifted_dim
    return KoopmanModel(basis=basis, theta=np.zeros((n, n + 1)), sample_period=0.025)


def _lift_pair(basis, x_k, u_k, x_next):
    """The kernel's regressor [psi(x_k); u_k] and psi(x_next), one state at a time."""
    return np.concatenate([basis.lift(x_k), u_k]), basis.lift(x_next)


def test_lifting_identity_and_scaling(verdict):
    with verdict("lifting: hand values, projection identity, degree scaling", 1.0):
        basis = LiftedBasis()
        assert basis.lifted_dim == 9
        np.testing.assert_array_equal(
            basis.lift(np.array([2.0, 3.0])),
            np.array([2.0, 3.0, 6.0, 4.0, 9.0, 12.0, 18.0, 8.0, 27.0]))
        degrees = np.array([sum(e) for e in basis.monomials], dtype=float)
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.normal(size=2) * 10.0
            np.testing.assert_array_equal(basis.project_many(basis.lift(x)[None]), x[None])
            c = rng.uniform(0.1, 4.0)
            np.testing.assert_allclose(basis.lift(c * x), c ** degrees * basis.lift(x),
                                       rtol=1e-12, atol=0.0)


def test_gather_lift_matches_product_of_powers(verdict, work_dir):
    with verdict("lifting: bit-identical to the product of powers on every shipped row "
                 "and on signed zeros, subnormals and large magnitudes", None):
        sc = _scenario(work_dir)
        shipped = np.vstack([traj.states() for traj in sc["trajectories"]])
        edge = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                         1.0, -1.0, 1e100, -1e100, 3e102, -3e102])
        grid = np.array(list(itertools.product(edge, repeat=2)))
        for basis in (sc["model"].basis, LiftedBasis(), LiftedBasis(max_degree=5)):
            exp = np.array(basis.monomials, dtype=float)
            for states in (shipped, shipped[:5], grid):
                scaled = states / np.array(basis.scale) if basis.scale is not None else states
                with np.errstate(over="ignore", invalid="ignore"):
                    ref = np.prod(scaled[:, None, :] ** exp[None, :, :], axis=2)
                    got = basis.lift_many(*states.T)
                assert got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()


def _row_kernel(basis, arr):
    """The (k, 2) row kernel that the column kernel replaced, kept as its
    reference: divide by the scale row, one broadcast pow into a (k, 2 (d + 1))
    array, two gathers and one multiply."""
    arr = arr / np.array(basis.scale)
    d = basis.max_degree
    powers = (arr[:, :, None] ** np.arange(d + 1, dtype=float)).reshape(len(arr), -1)
    v_cols = np.array([a for a, _ in basis.monomials])
    f_cols = np.array([d + 1 + b for _, b in basis.monomials])
    return np.multiply(powers.take(v_cols, axis=1), powers.take(f_cols, axis=1))


def test_column_kernel_matches_the_row_kernel(verdict, work_dir):
    with verdict("lifting: the column kernel is bit-identical to the row kernel it replaced "
                 "on shipped rows and on signed zeros, subnormals and 1e16, at 1 to 4097 rows",
                 None):
        sc = _scenario(work_dir)
        edge = np.array([0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1.0])
        grid = np.array(list(itertools.product(edge, repeat=2)))
        for basis in (sc["model"].basis, LiftedBasis(), LiftedBasis(max_degree=5)):
            for k in (1, 5, 41, 4097):
                blocks = [(traj.v[lo:lo + k], traj.f_tr[lo:lo + k])
                          for traj in sc["trajectories"][::6] for lo in (0, len(traj) - k)]
                tiled = np.resize(grid, (k, 2))
                blocks.append((tiled[:, 0], tiled[:, 1]))
                for v, f in blocks:
                    got = basis.lift_many(v, f)
                    assert got.shape == (k, basis.lifted_dim)
                    # tobytes compares every bit, sign bits included
                    assert got.tobytes() == _row_kernel(basis, np.column_stack((v, f))).tobytes()


def test_offline_fit_recovers_linear_system(verdict):
    with verdict("offline fit: recovers a known lifted linear system to 1e-8", 5.0):
        basis = LiftedBasis()
        rng = np.random.default_rng(7)
        A = rng.normal(size=(9, 9))
        A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
        B = rng.normal(size=(9, 1))
        T = 5000
        X = rng.normal(size=(9, T))
        U = rng.normal(size=(1, T))
        data = fold_pairs(basis, np.vstack([X, U, A @ X + B @ U]).T)
        model = fit(data, FitConfig(ridge=0.0))
        truth = np.hstack([A, B])
        rel = np.linalg.norm(model.theta - truth) / np.linalg.norm(truth)
        assert rel < 1e-8


def test_streaming_matches_batch(verdict):
    with verdict("streaming fit (lam=1, P0=I) matches batch ridge 1 to 1e-12", 5.0):
        basis = LiftedBasis()
        rng = np.random.default_rng(11)
        T = 2000
        pts = rng.normal(size=(T, 2))
        nxt = rng.normal(size=(T, 2))
        U = rng.normal(size=(1, T))
        data = fold_pairs(basis, np.hstack([basis.lift_many(*pts.T), U.T,
                                             basis.lift_many(*nxt.T)]))
        batch = fit(data, FitConfig(ridge=1.0))
        state = init_rls(_zero_model(basis), 1.0)
        for k in range(T):
            rls_update(state, *_lift_pair(basis, pts[k], U[:, k], nxt[k]))
        rel = np.linalg.norm(state.theta - batch.theta) / np.linalg.norm(batch.theta)
        assert rel < 1e-12


def test_streaming_covariance_health(verdict):
    with verdict("streaming covariance: exactly symmetric PD over 1e4 updates, "
                 "zero error leaves parameters untouched", None):
        basis = LiftedBasis()
        for lam in (0.9, 1.0):
            state = init_rls(_zero_model(basis), lam)
            rng = np.random.default_rng(int(lam * 10))
            for _ in range(10_000):
                rls_update(state, *_lift_pair(basis, rng.normal(size=2), rng.normal(size=1),
                                              rng.normal(size=2)))
                assert np.array_equal(state.P, state.P.T)
                np.linalg.cholesky(state.P)

        # parameters already explaining the data (theta maps psi to itself,
        # next state equal to current) must pass through bit for bit
        n = basis.lifted_dim
        ident = KoopmanModel(basis=basis, theta=np.eye(n, n + 1), sample_period=0.025)
        state = init_rls(ident, 0.9)
        theta_before = state.theta.copy()
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(size=2)
            rls_update(state, *_lift_pair(basis, x, rng.normal(size=1), x))
        np.testing.assert_array_equal(state.theta, theta_before)


# --------------------------------------------------- planner oracle helpers

def accel_only_toy():
    v_min = np.array([0.0, 2.0, 4.5, 6.0, 6.0])
    v_max = np.array([9.5, 5.5, 7.5, 7.5, 7.5])
    stop = np.array([True, False, False, False, False])
    grade = np.array([0.01, 0.0, -0.005, 0.02, 0.0])
    return RouteSpec(step_m=10.0, v_min=v_min, v_max=v_max, stop=stop, grade=grade)


def second_toy():
    v_min = np.array([0.0, 2.5, 5.0, 7.0])
    v_max = np.array([8.0, 5.6, 8.0, 8.0])
    stop = np.array([True, False, False, False])
    grade = np.array([0.0, 0.015, 0.0, 0.0])
    return RouteSpec(step_m=12.0, v_min=v_min, v_max=v_max, stop=stop, grade=grade)


def toy_config(**kw):
    defaults = dict(gamma=0.5, v_levels=5, soc_levels=3,
                    soc_initial=0.55, soc_terminal_floor=0.26)
    defaults.update(kw)
    return EcoDpConfig(**defaults)


def enumerate_paths(route, config):
    """Exhaustive reference over every admissible speed/engine sequence."""
    vgrid = np.linspace(config.speed_floor, float(np.max(route.v_max)), config.v_levels)
    S = route.n_steps
    adm = []
    for j in range(S + 1):
        if route.stop[j]:
            adm.append([0])
        else:
            adm.append([int(i) for i in np.where(
                (vgrid >= route.v_min[j] - 1e-9) & (vgrid <= route.v_max[j] + 1e-9))[0]])
    best = None
    for speeds in itertools.product(*adm):
        for engines in itertools.product((0, 1), repeat=S):
            soc = config.soc_initial
            stages = []
            ok = True
            for j in range(S):
                feas, a, dt, stage, dsoc = edge_quantities(
                    np.array([vgrid[speeds[j]]]), np.array([vgrid[speeds[j + 1]]]),
                    engines[j], route.grade[j], route.step_m, VEH, config)
                if not feas[0]:
                    ok = False
                    break
                soc = min(soc + float(dsoc[0]), config.soc_max)
                if soc < config.soc_min - 1e-12:
                    ok = False
                    break
                stages.append(float(stage[0]))
            if not ok or soc <= config.soc_terminal_floor:
                continue
            cost = 0.0
            for s in reversed(stages):
                cost = s + cost
            if best is None or cost < best:
                best = cost
    return best


def test_planner_matches_enumeration_and_keeps_constraints(verdict):
    with verdict("route planner: exact toy optimality, urban route constraints", 10.0):
        toy = accel_only_toy()
        for gamma in (0.0, 0.5, 1.0):
            config = toy_config(gamma=gamma)
            oracle = enumerate_paths(toy, config)
            assert oracle is not None
            assert solve_eco_dp(toy, VEH, config).total_cost == oracle
        config4 = toy_config(v_levels=4)
        assert solve_eco_dp(second_toy(), VEH, config4).total_cost == enumerate_paths(
            second_toy(), config4)

        cfg = json.loads(CONFIG.read_text())
        eco = EcoDpConfig(**cfg["advisory"])
        assert eco.gamma == 0.5 and eco.soc_initial == 0.4
        route = RouteSpec.read_csv(str(ROUTE))
        prof = solve_eco_dp(route, VEH, eco)
        for j in range(len(prof.v_ref)):
            if route.stop[j]:
                assert prof.v_ref[j] == eco.speed_floor
            else:
                assert route.v_min[j] - 1e-9 <= prof.v_ref[j] <= route.v_max[j] + 1e-9
        accel = (prof.v_ref[1:] ** 2 - prof.v_ref[:-1] ** 2) / (2.0 * route.step_m)
        assert np.all(accel >= eco.a_min - 1e-9)
        assert np.all(accel <= eco.a_max + 1e-9)
        assert np.all(prof.soc >= eco.soc_min - 1e-12)
        assert np.all(prof.soc <= eco.soc_max + 1e-12)
        assert prof.soc[-1] > eco.soc_terminal_floor


def test_adaptive_predictor_beats_frozen_model(verdict, work_dir):
    with verdict("distracted segment: adapted RMSE <= frozen at every horizon, "
                 "15%+ better at 5 s", 60.0):
        sc = _scenario(work_dir)
        cfg = sc["cfg"]
        horizons = cfg["eval"]["horizons_s"]
        segment = tuple(cfg["eval"]["segment_s"])
        online = OnlineSettings(lam=cfg["rls"]["lam"], cadence_s=cfg["rls"]["cadence_s"])
        traj = sc["trajectories"][17]
        reports = evaluate_horizons(traj, sc["model"], horizons, segment, online=online)
        off, on = reports[:len(horizons)], reports[len(horizons):]
        for o, a in zip(off, on):
            assert a.horizon_s == o.horizon_s
            assert a.rmse_speed_mps <= o.rmse_speed_mps
            assert a.rmse_force_n <= o.rmse_force_n
        o5 = next(r for r in off if r.horizon_s == 5.0)
        a5 = next(r for r in on if r.horizon_s == 5.0)
        assert a5.rmse_speed_mps <= 0.85 * o5.rmse_speed_mps
        assert a5.rmse_force_n <= 0.85 * o5.rmse_force_n


def test_roster_table_is_recorded(verdict, work_dir):
    """The shipped roster's online/offline speed-RMSE table on 515-630 s.

    The numbers are a record, not a bound: the adapted predictor is worse
    than the frozen model in every cell of the non-distracted drivers 1-17,
    and a PR that moves the pipeline's quality re-records them here and says
    why. Driver 18, distracted over the segment, is recorded apart.
    """
    with verdict("shipped roster, 515-630 s: today's online/offline table of drivers 1-17 "
                 "and driver 18 (a record to re-record, not a bound)", 60.0):
        sc = _scenario(work_dir)
        cfg = sc["cfg"]
        horizons = cfg["eval"]["horizons_s"]
        assert horizons == [50.0, 20.0, 10.0, 5.0]
        online = OnlineSettings(lam=cfg["rls"]["lam"], cadence_s=cfg["rls"]["cadence_s"])
        rmse = np.array([[r.rmse_speed_mps for r in evaluate_horizons(
            traj, sc["model"], horizons, tuple(cfg["eval"]["segment_s"]), online=online)]
            for traj in sc["trajectories"]])
        # each driver's row: offline at 50 / 20 / 10 / 5 s, then online
        offline, adapted = rmse[:, :4], rmse[:, 4:]
        ratio = adapted[:17] / offline[:17]
        assert np.count_nonzero(ratio > 1.0) == ratio.size == 68
        assert np.median(ratio) == pytest.approx(4.847, abs=5e-4)
        assert np.median(ratio, axis=0) == pytest.approx([3.417, 3.083, 43.50, 4.957], rel=5e-4)
        # the worst cell: driver 13 at 20 s
        assert np.unravel_index(np.argmax(ratio), ratio.shape) == (12, 1)
        assert ratio.max() == pytest.approx(4.447e3, rel=5e-4)
        assert adapted[17] == pytest.approx([0.4272, 0.4792, 0.2225, 0.08434], rel=5e-4)
        assert offline[17] == pytest.approx([2.401, 2.281, 1.831, 1.113], rel=5e-4)


def test_stacked_kernel_tracks_the_p_form_kernel(verdict, work_dir):
    with verdict("distracted driver, default lambda, 1 s ticks: every tick-end theta of the "
                 "information form within 1e-9 of the P-form kernel over the eval segment and 1e-7 over the whole "
                 "drive; the final P exactly symmetric and positive definite", 60.0):
        sc = _scenario(work_dir)
        cfg, model = sc["cfg"], sc["model"]
        traj = sc["trajectories"][17]
        online = OnlineSettings(lam=cfg["rls"]["lam"], cadence_s=cfg["rls"]["cadence_s"])
        psi = model.basis.lift_many(traj.v, traj.f_tr)
        Z = np.column_stack([psi[:-1], traj.v_ref[:-1]])
        segment = [int(round(s / traj.sample_period)) for s in cfg["eval"]["segment_s"]]
        for (start, stop), rel in ((segment, 1e-9), ((0, len(traj) - 1), 1e-7)):
            state = init_rls(model, online.lam)
            theta, P = state.theta.copy(), state.P.copy()
            k = start
            for end, _ in stream_ticks(state, model.basis, traj, start, stop,
                                       online.tick_steps(traj.sample_period)):
                for i in range(k, end):
                    P, _ = parent_kernel(theta, P, online.lam, Z[i], psi[i + 1])
                k = end
                assert np.max(np.abs(state.theta - theta)) <= rel * np.max(np.abs(theta)), end
            assert state.update_count == stop - start
            assert np.array_equal(state.P, state.P.T)
            np.linalg.cholesky(state.P)


# the distracted driver's whole-drive replay from the offline fit at the
# default lambda, recorded when the state took the square-root information
# form: SHA-256 of theta, of P and of the information factor R, the pairs
# applied and the SHA-256 of every pair's error norm in order. Every cadence
# gives these bytes.
WHOLE_DRIVE_GOLDEN = {
    "theta": "0a71ac20968bc4d50b03440b6a4966f3b5114e81077d3725696540bba8f77ab9",
    "P": "ea4308ed7b6662577b14b0ecd1c2cbb774bf987648c4e4dfe63bf1ffef10dc4b",
    "R": "00bdf29ae13ba62c8494356504b761589dba50389651bed07eac4d3553f29d89",
    "updates": 26446,
    "errors": "36200f1f662f5535317b9b09f03fd007f973834870b165558d4a04424dce6ec1",
}


@pytest.mark.parametrize("tick_steps", [40, 4])
def test_whole_drive_tick_bytes_are_pinned(verdict, work_dir, tick_steps):
    with verdict(f"distracted driver, whole drive, {tick_steps} pairs a tick: trajectory "
                 "copies and stream_ticks' views give the recorded theta, P, R and error bytes",
                 60.0):
        sc = _scenario(work_dir)
        model, traj = sc["model"], sc["trajectories"][17]
        n = len(traj)

        def copies(state):
            # bench/run.py's per-tick Trajectory copies
            for lo in range(0, n - 1, tick_steps):
                yield update_tick(state, model.basis,
                                  traj.slice_samples(lo, min(lo + tick_steps, n - 1) + 1))

        def views(state):
            for _, errs in stream_ticks(state, model.basis, traj, 0, n - 1, tick_steps):
                yield errs

        found = []
        for ticks in (copies, views):
            state = init_rls(model, OnlineSettings().lam)
            errors = hashlib.sha256()
            for errs in ticks(state):
                errors.update(errs.tobytes())
            found.append({"theta": hashlib.sha256(state.theta.tobytes()).hexdigest(),
                          "P": hashlib.sha256(state.P.tobytes()).hexdigest(),
                          "R": hashlib.sha256(state.R.tobytes()).hexdigest(),
                          "updates": state.update_count, "errors": errors.hexdigest()})
        assert found == [WHOLE_DRIVE_GOLDEN, WHOLE_DRIVE_GOLDEN]


@pytest.mark.parametrize("lam", ["0.9", "0.99"])
def test_update_survives_the_windup_segment(verdict, work_dir, tmp_path, lam):
    with verdict(f"distracted driver, 0-660 s at lambda {lam}: update adapts over the "
                 "whole drive, where the P-form covariance lost definiteness", 60.0):
        _scenario(work_dir)
        out = tmp_path / "updated.json"
        assert main(["update", "--model", str(work_dir / "model.json"),
                     "--data", str(work_dir / "drivers" / "driver_18.csv"),
                     "--segment", "0", "660", "--config", str(CONFIG), "--lam", lam,
                     "--out", str(out)]) == 0
        assert KoopmanModel.load(str(out)).provenance["updates"] == 26400


def _step_loop_states(model, x0, u) -> np.ndarray:
    """The step loop the rollout's doubling scan replaced, as the reference:
    lift once, advance one step at a time, project every row."""
    A, b = model.A, model.B[:, 0]
    Z = [model.basis.lift(x0)]
    for u_k in u:
        Z.append(A @ Z[-1] + b * u_k)
    return model.basis.project_many(np.array(Z))


def test_scan_rollout_matches_step_loop_at_every_snapshot(verdict, work_dir):
    with verdict("distracted driver, default lambda, 1 s ticks: every tick-end snapshot's "
                 "5 s and 50 s rollouts within 1e-9 of the step loop", 60.0):
        sc = _scenario(work_dir)
        cfg, model = sc["cfg"], sc["model"]
        traj = sc["trajectories"][17]
        online = OnlineSettings(lam=cfg["rls"]["lam"], cadence_s=cfg["rls"]["cadence_s"])
        state = init_rls(model, online.lam)
        ahead = np.concatenate([traj.v_ref, np.full(2000, traj.v_ref[-1])])
        ticks = 0
        for end, _ in stream_ticks(state, model.basis, traj, 0, len(traj) - 1,
                                   online.tick_steps(traj.sample_period)):
            snap = snapshot_model(state, model.basis, model.sample_period)
            x0 = np.array([traj.v[end], traj.f_tr[end]])
            for steps in (200, 2000):
                u = ahead[end:end + steps]
                pred = snap.rollout(x0, u)
                expect = _step_loop_states(snap, x0, u)
                got = np.column_stack([pred.v, pred.f_tr])
                assert np.all(np.abs(got - expect) <= 1e-9 * np.max(np.abs(expect), axis=0))
            ticks += 1
        assert ticks == math.ceil((len(traj) - 1) / online.tick_steps(traj.sample_period))


def test_tick_is_faster_than_refit(verdict, work_dir):
    with verdict("1 s tick >=50x faster than a full refit at 1e5+ pairs, "
                 "per-tick flat as history doubles", 120.0):
        sc = _scenario(work_dir)
        cfg = sc["cfg"]
        horizons = cfg["eval"]["horizons_s"]
        online = OnlineSettings(lam=cfg["rls"]["lam"], cadence_s=cfg["rls"]["cadence_s"])
        # half and full history run interleaved, each going first in every
        # other round, so a change of host speed between runs reaches both
        data = {"half": sc["trajectories"][:9], "full": sc["trajectories"]}
        runs = {"half": [], "full": []}
        for round_ in range(4):
            for name in ("half", "full") if round_ % 2 == 0 else ("full", "half"):
                runs[name].append(bench_update(data[name], sc["model"], horizons, online=online))
        half, full = runs["half"][0], runs["full"][0]
        assert full.n_pairs == 2 * half.n_pairs
        assert full.n_pairs >= 100_000
        assert full.warning is None
        # the median over the rounds, per horizon
        median = {name: {key: np.median([getattr(r, key) for r in reports], axis=0)
                         for key in ("offline_fit_s", "online_per_tick_s")}
                  for name, reports in runs.items()}
        assert min(median["full"]["offline_fit_s"] / median["full"]["online_per_tick_s"]) >= 50.0
        assert np.all(median["full"]["online_per_tick_s"]
                      <= 2.0 * median["half"]["online_per_tick_s"])


def test_pipeline_is_deterministic(verdict, tmp_path):
    with verdict("two seeded end-to-end runs are byte-identical", 300.0):
        def run(tag: str) -> Path:
            out = tmp_path / tag
            adv = out / "advisory"
            drv = out / "drivers"
            assert main(["advisory", "--route", str(ROUTE), "--config", str(CONFIG),
                         "--out", str(adv)]) == 0
            assert main(["simulate", "--advisory", str(adv / "advisory_time.csv"),
                         "--config", str(CONFIG), "--out", str(drv)]) == 0
            assert main(["fit", "--data", str(drv), "--config", str(CONFIG),
                         "--model-out", str(out / "model.json"),
                         "--report-out", str(out / "report.json")]) == 0
            assert main(["eval", "--model", str(out / "model.json"),
                         "--data", str(drv / "driver_18.csv"), "--config", str(CONFIG),
                         "--online", "--out", str(out / "reports.csv")]) == 0
            return out

        a = run("first")
        b = run("second")
        rel_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        rel_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert rel_a == rel_b
        assert len(rel_a) == 24
        for rel in rel_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), str(rel)
