import dataclasses
import platform
import re
import subprocess
import warnings
import weakref

import numpy as np
import pytest

from koopdrive.basis import LiftedBasis
from koopdrive.edmd import FitConfig, RankDeficientDataError, fit_trajectories
from koopdrive.evaluate import (
    MPS_TO_MPH,
    BenchReport,
    HorizonReport,
    bench_update,
    evaluate_horizons,
    format_reports,
    reports_to_csv,
)
from koopdrive.model import (KoopmanModel, RolloutDivergenceError, Trajectory, _pair_blocks,
                            _window_errors)
from koopdrive.rls import OnlineSettings, init_rls, snapshot_model, stream_ticks
from test_model import error_mode


def test_unit_conversions():
    r = HorizonReport(horizon_s=5.0, variant="offline", rmse_speed_mps=1.0,
                      rmse_force_n=1000.0, n_windows=1, n_samples=10)
    assert r.rmse_speed_mph == pytest.approx(2.23694, rel=1e-5)
    assert r.rmse_force_kn == 1.0
    assert MPS_TO_MPH == pytest.approx(2.23694, rel=1e-6)


def linear_readout_model(seed=0):
    """Dynamics whose physical next state is linear in the lifted current
    state, so the fitted ideal predicts exactly."""
    basis = LiftedBasis()
    rng = np.random.default_rng(seed)
    A = 0.9 * np.eye(9)
    A[0, 1] = 0.001
    B = np.zeros((9, 1))
    B[0, 0] = 0.1
    return KoopmanModel(basis=basis, theta=np.hstack([A, B]), sample_period=0.025)


def model_trajectory(model, n=4000, seed=1, v0=10.0, f0=100.0):
    rng = np.random.default_rng(seed)
    u = 10.0 + 2.0 * np.sin(np.arange(n) * 0.01) + rng.normal(0, 0.2, n)
    pred = model.rollout(np.array([v0, f0]), u[:-1])
    return Trajectory(sample_period=model.sample_period,
                      t=np.arange(n) * model.sample_period,
                      v=pred.v, f_tr=pred.f_tr, v_ref=u)


def parent_window_errors(model, traj, k0, steps):
    # the window scorer as evaluate.py kept it, before it moved next to
    # model._pairs
    window = traj.slice_samples(k0, k0 + steps + 1)
    pred = model.rollout((window.v[0], window.f_tr[0]), window.v_ref[:-1])
    return pred.v[1:] - window.v[1:], pred.f_tr[1:] - window.f_tr[1:]


def scored_bytes(score, model, traj, k0, steps):
    """The bytes of the speed and force errors score gives for the window of
    steps pairs from sample k0 of traj, or the step of the
    RolloutDivergenceError it raises. The parent's scorer cuts the window
    itself; model._window_errors scores the span _pair_blocks cuts."""
    try:
        if score is parent_window_errors:
            return [err.tobytes() for err in score(model, traj, k0, steps)]
        (_, _, window), = _pair_blocks(traj, k0, k0 + steps, steps)
        return [err.tobytes() for err in score(model, window)]
    except RolloutDivergenceError as exc:
        return exc.step


@pytest.mark.parametrize("steps", [1, 200, 2000])
@pytest.mark.parametrize("which", ["frozen", "snapshot", "diverging"])
def test_window_errors_match_the_parent_scorer_bytes(which, steps):
    # the frozen model, an RLS snapshot adapted to the changed dynamics, and
    # a model that doubles its lifted state, which overflows inside 2000
    # steps: the scorer gives the parent's error bytes, or raises at its step
    model, traj, _ = changed_dynamics_case(n=4000)
    if which == "snapshot":
        state = init_rls(model, 0.999)
        for _ in stream_ticks(state, model.basis, traj, 0, 1000, 40):
            pass
        model = snapshot_model(state, model.basis, model.sample_period)
    elif which == "diverging":
        model = KoopmanModel(basis=model.basis, theta=np.hstack([2.0 * np.eye(9), model.B]),
                             sample_period=model.sample_period)
    ours = scored_bytes(_window_errors, model, traj, 1000, steps)
    assert ours == scored_bytes(parent_window_errors, model, traj, 1000, steps)
    assert isinstance(ours, int) == (which == "diverging" and steps == 2000)
    if isinstance(ours, list):
        assert [len(err) for err in ours] == [8 * steps] * 2


@pytest.mark.parametrize("action", ["always", "error", "raise"])
def test_a_forecast_past_1e154_scores_inf_and_warns_of_nothing(action):
    # a v row of B of 1e155 drives the forecast to about 2e156, finite, and
    # its squared error past the float range: the speed RMSE is inf, the
    # force RMSE finite, and no numpy warning or error escapes, whether
    # warnings are shown, are errors or numpy raises; under the block step,
    # as evaluate_horizons runs it, the scorer gives the parent's error bytes
    traj = model_trajectory(linear_readout_model())
    A = 0.5 * np.eye(9)
    B = np.zeros((9, 1))
    B[0, 0] = 1e155
    model = KoopmanModel(basis=LiftedBasis(), theta=np.hstack([A, B]), sample_period=0.025)

    def run(action, **events):
        with warnings.catch_warnings(record=True) as caught, error_mode(action, **events):
            reports = evaluate_horizons(traj, model, [5.0, 20.0], (0.0, 60.0))
            with np.errstate(all="ignore"):
                scored = [scored_bytes(score, model, traj, 200, 800)
                          for score in (_window_errors, parent_window_errors)]
        return reports, caught, scored

    reports, caught, (ours, parent) = run(action, over="warn")
    assert caught == []
    assert ours == parent and np.abs(np.frombuffer(ours[0])).max() > 1e155
    assert [r.rmse_speed_mps for r in reports] == [np.inf, np.inf]
    assert all(0.0 < r.rmse_force_n < np.inf for r in reports)
    assert reports == run("ignore")[0]


def test_offline_exact_model_zero_error():
    model = linear_readout_model()
    traj = model_trajectory(model)
    reports = evaluate_horizons(traj, model, [5.0, 10.0], (0.0, 100.0 - 0.025))
    for r in reports:
        assert r.variant == "offline"
        assert r.rmse_speed_mps < 1e-9
        assert r.rmse_force_n < 1e-9


def test_window_budget():
    model = linear_readout_model()
    traj = model_trajectory(model, n=4001)  # 100 s exactly
    reports = evaluate_horizons(traj, model, [50.0, 20.0, 10.0, 5.0], (0.0, 100.0))
    by_h = {r.horizon_s: r for r in reports}
    assert by_h[50.0].n_windows == 2
    assert by_h[20.0].n_windows == 5
    assert by_h[10.0].n_windows == 10
    assert by_h[5.0].n_windows == 20
    # the seeded sample is excluded: each window scores exactly its steps
    assert by_h[5.0].n_samples == 20 * 200


def test_horizon_must_fit():
    model = linear_readout_model()
    traj = model_trajectory(model, n=400)
    with pytest.raises(ValueError):
        evaluate_horizons(traj, model, [50.0], (0.0, 9.0))


def test_segment_beyond_trajectory():
    model = linear_readout_model()
    traj = model_trajectory(model, n=400)
    with pytest.raises(ValueError):
        evaluate_horizons(traj, model, [1.0], (0.0, 500.0))


def test_segment_of_a_csv_starts_at_its_first_sample(tmp_path):
    # the period read from a 26447-sample CSV at 0.025 s, the shipped
    # drive's length, is 5.7e-14 relative short; converting 515 s to samples
    # through it started the segment one sample late, at t = 515.025, and
    # the 5 s horizon scored 22 of its 23 windows
    model = linear_readout_model()
    path = tmp_path / "drive.csv"
    model_trajectory(model, n=26447).write_csv(str(path))
    traj = Trajectory.read_csv(str(path))
    assert traj.sample_period < 0.025
    assert traj.segment_indices(515.0, 630.0) == (20600, 25200)
    report, = evaluate_horizons(traj, model, [5.0], (515.0, 630.0))
    assert report.n_windows == 23


def test_online_matches_offline_on_perfect_model():
    # an exact model leaves the RLS error at zero, so adaptation changes
    # nothing and both variants agree
    model = linear_readout_model()
    traj = model_trajectory(model, n=2000)
    seg = (0.0, 2000 * 0.025 - 0.025)
    off, on = evaluate_horizons(traj, model, [5.0], seg, online=OnlineSettings(lam=1.0))
    assert on.variant == "online"
    assert on.rmse_speed_mps < 1e-9
    assert abs(on.rmse_speed_mps - off.rmse_speed_mps) < 1e-9


def test_online_adapts_to_changed_dynamics():
    # data from a perturbed system: the offline model is wrong, the online
    # variant learns the change inside the segment
    model = linear_readout_model()
    changed = KoopmanModel(basis=model.basis, theta=np.hstack([model.A * 0.97, model.B * 1.2]),
                           sample_period=model.sample_period)
    traj = model_trajectory(changed, n=8000)
    seg = (0.0, 8000 * 0.025 - 0.025)
    off, on = evaluate_horizons(traj, model, [5.0], seg, online=OnlineSettings(lam=0.999))
    assert on.rmse_speed_mps < off.rmse_speed_mps


def changed_dynamics_case(n=2000):
    model = linear_readout_model()
    changed = KoopmanModel(basis=model.basis, theta=np.hstack([model.A * 0.97, model.B * 1.2]),
                           sample_period=model.sample_period)
    return model, model_trajectory(changed, n=n), (0.0, (n - 1) * 0.025)


def test_online_applies_each_pair_at_most_once(monkeypatch):
    # one RLS stream serves every horizon, instead of one stream per horizon
    import koopdrive.rls

    calls = []
    original = koopdrive.rls.rls_update

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(koopdrive.rls, "rls_update", counted)
    model, traj, seg = changed_dynamics_case()
    evaluate_horizons(traj, model, [5.0, 2.0, 1.0], seg, online=OnlineSettings(lam=0.999))
    assert 0 < len(calls) <= len(traj) - 1


def test_online_horizons_are_independent():
    # a cadence that does not divide the horizons moves the tick boundaries,
    # which must not change any snapshot
    model, traj, seg = changed_dynamics_case()
    online = OnlineSettings(lam=0.999, cadence_s=0.7)
    horizons = [5.0, 3.0, 1.5]
    together = evaluate_horizons(traj, model, horizons, seg, online=online)[len(horizons):]
    for h, report in zip(horizons, together):
        assert evaluate_horizons(traj, model, [h], seg, online=online)[1:] == [report]


def test_adapted_model_does_not_depend_on_the_cadence():
    # the cadence groups pairs into ticks, and the state folds them in fixed
    # blocks counted from the segment start: at 0.1, 0.7 and 1 s, and with
    # one tick longer than the segment, the ticks differ but the adapted
    # theta and every online row are the same
    model, traj, seg = changed_dynamics_case()
    horizons = [5.0, 3.0, 1.5]
    cadences = [0.1, 0.7, 1.0, seg[1] - seg[0] + 1.0]
    rows, thetas, ticks = [], [], []
    for cadence in cadences:
        online = OnlineSettings(lam=0.999, cadence_s=cadence)
        rows.append(evaluate_horizons(traj, model, horizons, seg, online=online)[len(horizons):])
        state = init_rls(model, online.lam)
        ticks.append(len(list(stream_ticks(state, model.basis, traj, 0, len(traj) - 1,
                                           online.tick_steps(traj.sample_period)))))
        thetas.append(state.theta.tobytes())
    assert ticks == [500, 72, 50, 1]
    assert rows[0][0].rmse_speed_mps > 0.0
    assert all(r == rows[0] for r in rows[1:])
    assert all(theta == thetas[0] for theta in thetas[1:])


def test_offline_rows_come_first_and_match_the_offline_call():
    # one call scores the frozen model, then the adapted snapshots, on the
    # same windows; the frozen rows are those of a call without online
    model, traj, seg = changed_dynamics_case()
    horizons = [5.0, 3.0, 1.5]
    both = evaluate_horizons(traj, model, horizons, seg, online=OnlineSettings(lam=0.999))
    assert [(r.variant, r.horizon_s) for r in both] == [
        (variant, h) for variant in ("offline", "online") for h in horizons]
    offline = evaluate_horizons(traj, model, horizons, seg)
    assert [dataclasses.astuple(r) for r in both[:3]] == [dataclasses.astuple(r) for r in offline]
    assert [(r.n_windows, r.n_samples) for r in both[3:]] == [
        (r.n_windows, r.n_samples) for r in offline]
    # horizons are read once, so a one-shot iterator gives the same reports
    assert evaluate_horizons(traj, model, iter(horizons), seg,
                             online=OnlineSettings(lam=0.999)) == both
    assert evaluate_horizons(traj, model, iter(horizons), seg) == offline


@pytest.mark.parametrize("online", [None, OnlineSettings(lam=0.999)], ids=["offline", "online"])
def test_windows_are_cut_as_they_are_scored(monkeypatch, online):
    # each span is cut when it is scored, or when its start is read, and is
    # dropped after: the spans alive at once do not grow with the windows,
    # here 2399 of one sample and 11 of 5 s
    model, traj, seg = changed_dynamics_case(n=2400)
    original = Trajectory.slice_samples
    live, alive = [], []

    def recorded(self, start, stop):
        span = original(self, start, stop)
        live[:] = [ref for ref in live if ref() is not None] + [weakref.ref(span)]
        alive.append(len(live))
        return span

    monkeypatch.setattr(Trajectory, "slice_samples", recorded)
    reports = evaluate_horizons(traj, model, [0.025, 5.0], seg, online=online)
    assert [r.n_windows for r in reports[:2]] == [2399, 11]
    assert len(alive) >= 2410
    assert max(alive) <= 4


@pytest.mark.parametrize("online", [None, OnlineSettings()], ids=["offline", "online"])
def test_no_horizons_give_no_reports(online):
    # the online variant read the first window start of no windows, an IndexError
    model, traj, seg = changed_dynamics_case()
    assert evaluate_horizons(traj, model, [], seg, online=online) == []


@pytest.mark.parametrize("horizon, fits", [(0.0, False), (0.0125, False), (0.0126, True),
                                           (49.975, True), (50.0, False)],
                         ids=["zero", "half_a_sample", "one_sample", "whole", "one_more"])
def test_eval_and_bench_share_one_horizon_rule(horizon, fits):
    # a horizon fits when it rounds to 1 to n - 1 samples of an n-sample
    # segment or last trajectory; each caller names its own room
    model, traj, seg = changed_dynamics_case()
    online = OnlineSettings()
    if fits:
        assert evaluate_horizons(traj, model, [horizon], seg)[0].n_windows >= 1
        assert bench_update([traj], model, [horizon], online=online).horizons_s == [horizon]
        return
    with pytest.raises(ValueError, match=re.escape(
            f"horizon {horizon} s does not fit inside segment {seg}")):
        evaluate_horizons(traj, model, [horizon], seg)
    with pytest.raises(ValueError, match=re.escape(
            f"horizon {horizon} s does not fit in the last trajectory")):
        bench_update([traj], model, [horizon], online=online)


def test_bench_needs_a_trajectory():
    # the last trajectory was read before any check, an IndexError
    with pytest.raises(ValueError, match="^need at least one trajectory$"):
        bench_update([], linear_readout_model(), [5.0], online=OnlineSettings())


def test_bench_report_fields():
    model = linear_readout_model()
    trajs = [model_trajectory(model, n=3000, seed=s) for s in (1, 2)]
    r = bench_update(trajs, model, [5.0], online=OnlineSettings())
    assert r.n_pairs == 2 * 2999
    assert r.horizons_s == [5.0]
    assert r.offline_fit_s[0] > 0
    assert r.online_per_tick_s[0] > 0
    assert r.speedup[0] == pytest.approx(r.offline_fit_s[0] / r.online_per_tick_s[0])
    assert r.warning is not None  # small dataset carries a caveat
    d = dataclasses.asdict(r)
    assert "speedup" in d and "n_pairs" in d


def test_bench_starts_no_process(monkeypatch):
    # platform.processor() and platform.platform() run `uname -p` in a
    # subprocess; a fresh uname cache makes any such call reach Popen
    def refuse(*args, **kwargs):
        raise AssertionError(f"bench_update started a process: {args!r}")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.setattr(platform, "_uname_cache", None)
    model = linear_readout_model()
    r = bench_update([model_trajectory(model, n=400, seed=1)], model, [1.0],
                     online=OnlineSettings())
    assert r.hardware == "-".join((platform.system(), platform.release(), platform.machine()))


def test_bench_refits_with_the_model_ridge():
    # a zero force channel zeroes every force monomial, so the stacked data
    # is rank deficient and only the model's own ridge makes the refit solvable
    n = 2000
    trajs = []
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        v = 10.0 + rng.normal(0, 0.5, n)
        trajs.append(Trajectory(sample_period=0.025, t=np.arange(n) * 0.025, v=v,
                                f_tr=np.zeros(n), v_ref=v + rng.normal(0, 0.1, n)))
    with pytest.raises(RankDeficientDataError):
        fit_trajectories(trajs, FitConfig())
    model, _ = fit_trajectories(trajs, FitConfig(ridge=1e-6))
    r = bench_update(trajs, model, [5.0], online=OnlineSettings())
    assert r.offline_fit_s[0] > 0
    assert r.online_per_tick_s[0] > 0


def test_format_reports_table():
    # each horizon is labelled by its repr, so 2.25 and 2.2 do not both read
    # 2.2 and 0.025 does not read 0.0
    reports = [HorizonReport(horizon_s=h, variant="offline", rmse_speed_mps=1.0,
                             rmse_force_n=1000.0, n_windows=3, n_samples=600)
               for h in (5.0, 2.25, 2.2, 0.025)]
    text = format_reports(reports)
    assert "offline" in text
    assert "5.0" in text
    assert [line[:9] for line in text.splitlines()[1:]] == [
        "      5.0", "     2.25", "      2.2", "    0.025"]


def test_reports_csv(tmp_path):
    r = HorizonReport(horizon_s=5.0, variant="online", rmse_speed_mps=1.0,
                      rmse_force_n=1000.0, n_windows=3, n_samples=600)
    p = tmp_path / "reports.csv"
    reports_to_csv([r], p)
    lines = p.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("horizon_s,variant")
    assert "online" in lines[1]
