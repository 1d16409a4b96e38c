import copy
import math
import pickle
import re
import warnings

import numpy as np
import pytest

from koopdrive.basis import LiftedBasis
from koopdrive.driversim import DriverParams, simulate_driver
from koopdrive.edmd import FitConfig, fit
from koopdrive.model import KoopmanModel, Trajectory, _pairs, _trusted_trajectory
from koopdrive.rls import (
    _FOLD_PAIRS,
    RlsState,
    RlsUpdateRejectedError,
    init_rls,
    rls_update,
    snapshot_model,
    stream_ticks,
    update_tick,
)
from test_driversim import VEH
from test_edmd import PAIR_RULE_MODES, fold_pairs
from test_model import error_mode


def zero_model(basis=None):
    basis = basis or LiftedBasis()
    n = basis.lifted_dim
    return KoopmanModel(basis=basis, theta=np.zeros((n, n + 1)), sample_period=0.025)


def lift_pair(basis, x_k, u_k, x_next):
    """The kernel's regressor [psi(x_k); u_k] and psi(x_next), one state at a time."""
    return np.concatenate([basis.lift(x_k), u_k]), basis.lift(x_next)


def test_init_covariance_scale():
    state = init_rls(zero_model(), 0.9)
    np.testing.assert_allclose(np.diag(state.P), 1 / 0.9, rtol=1e-12)
    state1 = init_rls(zero_model(), 1.0)
    np.testing.assert_array_equal(state1.P, np.eye(10))


def test_state_starts_from_the_prior_rows():
    theta = np.random.default_rng(2).normal(size=(9, 10))
    state = RlsState(theta=theta, lam=0.9)
    # R = sqrt(lambda) I is P = I / lambda, and theta is theta_0 bit for bit
    np.testing.assert_array_equal(state.R, math.sqrt(0.9) * np.eye(10))
    np.testing.assert_array_equal(state.theta, theta)
    np.testing.assert_allclose(state.P, np.eye(10) / 0.9, rtol=1e-15, atol=0.0)
    # theta is the state's own copy
    assert not np.shares_memory(theta, state.theta)
    # the pairs before the first fold are pending: R stays the prior's, and
    # a read folds them into a copy
    _, _, Z, psi = scaled_stream(_FOLD_PAIRS)
    for i in range(_FOLD_PAIRS - 1):
        rls_update(state, Z[i], psi[i + 1])
    np.testing.assert_array_equal(state.R, math.sqrt(0.9) * np.eye(10))
    read = state.theta
    np.testing.assert_array_equal(state.theta, read)
    assert not np.array_equal(read, theta)
    # the last pair of the block folds: R is a new upper triangular factor
    rls_update(state, Z[-1], psi[-1])
    assert not np.array_equal(state.R, math.sqrt(0.9) * np.eye(10))
    assert np.array_equal(state.R, np.triu(state.R))
    assert not np.array_equal(state.theta, read)


@pytest.mark.parametrize("pending", [0, 3])
def test_theta_read_is_read_only(pending):
    # with no pairs pending the read is a view of the state's own theta,
    # with pairs pending a fresh fold; neither may be written into
    _, model, Z, psi = scaled_stream(pending)
    state = init_rls(model, 0.9)
    for i in range(pending):
        rls_update(state, Z[i], psi[i + 1])
    before = state.theta.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        state.theta[0, 0] = 1.0
    assert state.theta.tobytes() == before


@pytest.mark.parametrize("theta, message", [
    (np.zeros(3), "theta must be a 2-D block [A B]"),
    (np.full((2, 3), np.nan), "theta must be finite"),
], ids=["one_dimensional", "nan"])
def test_state_refuses_theta(theta, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RlsState(theta, 0.9)


@pytest.mark.parametrize("lam", [True, "0.5"], ids=["bool", "string"])
@pytest.mark.parametrize("make", [lambda lam: RlsState(np.zeros((2, 3)), lam),
                                  lambda lam: init_rls(zero_model(), lam)],
                         ids=["state", "init"])
def test_forgetting_factor_is_held_to_the_number_rule(make, lam):
    # True was taken as the number 1, and "0.5" failed a comparison with TypeError
    message = f"forgetting factor must be in (0, 1], got {lam}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(lam)


def test_init_rejects_bad_lambda():
    with pytest.raises(ValueError):
        init_rls(zero_model(), 0.0)
    with pytest.raises(ValueError):
        init_rls(zero_model(), 1.5)


def test_gain_hand_value():
    # regressor e_0: the gain reduces to K_0 = P00 / (lam + P00)
    basis = LiftedBasis(max_degree=1)
    m = KoopmanModel(basis=basis, theta=np.zeros((2, 3)), sample_period=0.025)
    state = init_rls(m, 0.9)
    # z = [psi(1, 0); u = 0] and psi(x_next) = psi(0, 0)
    rls_update(state, np.array([1.0, 0.0, 0.0]), np.zeros(2))
    expect = (1 / 0.9) / (0.9 + 1 / 0.9)
    assert abs(expect - 0.5525) < 1e-4
    # theta stays zero (error is zero), but P contracts along e_0
    p00_expect = (1 / 0.9 - expect * (1 / 0.9)) / 0.9
    np.testing.assert_allclose(state.P[0, 0], p00_expect, rtol=1e-12)


def test_zero_error_leaves_theta_unchanged():
    # theta = [I 0] predicts psi(x) for x_next = x, so eps is exactly zero
    basis = LiftedBasis()
    theta = np.hstack([np.eye(9), np.zeros((9, 1))])
    m = KoopmanModel(basis, theta, 0.025)
    state = init_rls(m, 0.9)
    theta_before = state.theta.copy()
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=2)
        u = rng.normal(size=1)
        err = rls_update(state, *lift_pair(basis, x, u, x))
        assert err == 0.0
    np.testing.assert_array_equal(state.theta, theta_before)


def test_symmetry_over_many_updates():
    basis = LiftedBasis()
    m = zero_model(basis)
    for lam in (0.9, 1.0):
        state = init_rls(m, lam)
        rng = np.random.default_rng(42)
        for _ in range(2000):
            x = rng.normal(size=2)
            u = rng.normal(size=1)
            x_next = rng.normal(size=2)
            rls_update(state, *lift_pair(basis, x, u, x_next))
        # each pair subtracts g g', a bitwise symmetric product
        assert np.array_equal(state.P, state.P.T)
        eigs = np.linalg.eigvalsh(state.P)
        assert eigs.min() > 0


def test_batch_equivalence():
    # lam=1 reproduces ridge least squares; the targets are lifted physical
    # samples so both paths see identical data
    basis = LiftedBasis()
    rng = np.random.default_rng(5)
    T = 500
    pts = rng.normal(size=(T, 2))
    nxt = rng.normal(size=(T, 2))
    U = rng.normal(size=(1, T))
    data = fold_pairs(basis, np.hstack([basis.lift_many(*pts.T), U.T,
                                         basis.lift_many(*nxt.T)]))
    batch = fit(data, FitConfig(ridge=1.0))

    # lambda = 1 from theta_0 = 0 starts from P = I, which is a ridge of 1
    state = init_rls(zero_model(basis), 1.0)
    for k in range(T):
        rls_update(state, *lift_pair(basis, pts[k], U[:, k], nxt[k]))
    rel = np.linalg.norm(state.theta - batch.theta) / np.linalg.norm(batch.theta)
    assert rel < 1e-12


def traj_of(rows) -> Trajectory:
    """A 40 Hz Trajectory over (v, f_tr, v_ref) rows."""
    rows = np.asarray(rows, dtype=float)
    return Trajectory(sample_period=0.025, t=np.arange(len(rows)) * 0.025, v=rows[:, 0],
                      f_tr=rows[:, 1], v_ref=rows[:, 2])


def test_update_rejects_nonfinite():
    basis = LiftedBasis()
    state = init_rls(zero_model(basis), 0.9)
    theta_before = state.theta.copy()
    # a Trajectory is finite by construction; a value written in afterwards
    # reaches the kernel as a non-finite prediction error
    buffer = traj_of([[1.0, 0.5, 1.0], [0.0, 0.5, 1.0]])
    buffer.v[0] = np.nan
    with pytest.raises(RlsUpdateRejectedError,
                       match="buffered pair 0: .*non-finite prediction error"):
        update_tick(state, basis, buffer)
    # failed updates must not half-apply
    np.testing.assert_array_equal(state.theta, theta_before)
    assert state.update_count == 0


SINGULAR = "information is singular to working precision"


def test_update_rejects_singular_information():
    # at lambda = 1e-4 the tenth newest row of a fold weighs 1e-18 of the
    # newest, so ten rows leave R11 singular to working precision, by
    # edmd.fit's rank rule
    basis, state, traj = buffer_stream(lam=1e-4, n=100)
    with pytest.raises(RlsUpdateRejectedError,
                       match=f"buffered pair {_FOLD_PAIRS - 1}: .*{SINGULAR}"):
        update_tick(state, basis, traj)
    assert state.update_count == _FOLD_PAIRS - 1
    # the pair whose fold was refused is not applied: the state is the one
    # that stopped a pair earlier
    _, ref, _ = buffer_stream(lam=1e-4, n=100)
    feed(ref, basis, traj, 0, _FOLD_PAIRS - 1, _FOLD_PAIRS)
    assert state.R.tobytes() == ref.R.tobytes()
    assert state.update_count == ref.update_count
    # a read folds the pending rows into a copy, by the same rule
    with pytest.raises(RlsUpdateRejectedError, match=SINGULAR):
        state.theta
    with pytest.raises(RlsUpdateRejectedError, match=SINGULAR):
        state.P


def parent_kernel(theta, P, lam, z, psi_next):
    """The P-form kernel that the information form replaced, kept as its
    reference, with @, np.outer, np.linalg.norm and a transpose-add
    re-symmetrization; updates theta in place and returns the new P and the
    error norm against theta before the pair."""
    Pz = P @ z
    denom = lam + float(z @ Pz)
    if not math.isfinite(denom) or denom <= 0.0:
        raise RlsUpdateRejectedError("gain denominator")
    eps = psi_next - theta @ z
    if not np.all(np.isfinite(eps)):
        raise RlsUpdateRejectedError("non-finite prediction error")
    K = Pz / denom
    theta += np.outer(eps, K)
    P_new = (P - np.outer(K, Pz)) / lam
    return 0.5 * (P_new + P_new.T), float(np.linalg.norm(eps))


def assert_close_to_max(actual, desired, rel=1e-9):
    """Every entry within rel of desired's largest magnitude."""
    assert np.max(np.abs(actual - desired)) <= rel * np.max(np.abs(desired))


def scaled_stream(n, seed=5):
    # lifted regressors of random rows as update_tick builds them
    basis = LiftedBasis(scale=(16.0, 512.0))
    model = KoopmanModel(basis, np.random.default_rng(seed).normal(0, 0.1, size=(9, 10)), 0.025)
    rows = random_rows(n + 1, 10.0, 500.0, seed=seed)
    psi = basis.lift_many(rows[:, 0], rows[:, 1])
    return basis, model, np.column_stack([psi[:-1], rows[:-1, 2]]), psi


def parent_replay(theta, lam, Z, psi):
    """The P-form kernel over the pairs (Z[i], psi[i + 1]); returns theta, P
    and each pair's error norm against theta as of the last multiple of
    _FOLD_PAIRS pairs, which is what rls_update reports."""
    theta, P, at_fold, errs = theta.copy(), np.eye(theta.shape[1]) / lam, theta.copy(), []
    for i in range(len(Z)):
        errs.append(float(np.linalg.norm(psi[i + 1] - at_fold @ Z[i])))
        P, _ = parent_kernel(theta, P, lam, Z[i], psi[i + 1])
        if (i + 1) % _FOLD_PAIRS == 0:
            at_fold = theta.copy()
    return theta, P, np.array(errs)


def test_kernel_matches_parent_operators():
    basis, model, Z, psi = scaled_stream(2000)
    state = init_rls(model, 0.99737)
    errs = [rls_update(state, Z[i], psi[i + 1]) for i in range(len(Z))]
    # the information form rounds differently from the P form, so the two
    # agree to a stated tolerance, not bitwise
    theta, P, ref_errs = parent_replay(model.theta, 0.99737, Z, psi)
    np.testing.assert_allclose(errs, ref_errs, rtol=1e-9, atol=0.0)
    assert_close_to_max(state.theta, theta)
    assert_close_to_max(state.P, P)
    assert np.array_equal(state.P, state.P.T)
    assert state.update_count == 2000


def excited_traj(n, seed=12):
    # states and inputs drawn independently each sample, so every regressor
    # direction is excited even at a 10-pair memory
    rng = np.random.default_rng(seed)
    return Trajectory(sample_period=0.025, t=np.arange(n) * 0.025, v=rng.normal(0, 1, n),
                      f_tr=rng.normal(0, 1, n), v_ref=rng.normal(0, 1, n))


def replay(model, basis, traj, tick_steps, read_every=0):
    """The stream's state and the bytes of every tick's error norms; with
    read_every, theta and P are read after every read_every-th tick."""
    state = init_rls(model, 0.9)
    errs = b""
    for k, (_, e) in enumerate(stream_ticks(state, basis, traj, 0, len(traj) - 1, tick_steps)):
        errs += e.tobytes()
        if read_every and k % read_every == 0:
            state.theta, state.P
    return state, errs


def test_theta_after_k_pairs_depends_on_neither_ticks_nor_reads():
    # folds fall every _FOLD_PAIRS pairs from the start of the stream, and a
    # read folds the pending rows into a copy, so 1-, 7- and 40-pair ticks,
    # with or without reads between them, give the same bytes
    basis = LiftedBasis()
    model = KoopmanModel(basis, np.random.default_rng(13).normal(0, 0.1, size=(9, 10)), 0.025)
    traj = excited_traj(5001)
    state, errs = replay(model, basis, traj, 1)
    assert state.update_count == 5000
    for tick_steps, read_every in ((7, 0), (40, 0), (1, 97), (7, 3), (40, 1)):
        other, other_errs = replay(model, basis, traj, tick_steps, read_every)
        assert other_errs == errs
        assert_same_state(other, state)

    # the P-form reference, the error against theta as of the last fold
    rows = np.column_stack([traj.v, traj.f_tr, traj.v_ref])
    psi = basis.lift_many(rows[:, 0], rows[:, 1])
    theta, P, ref_errs = parent_replay(model.theta, 0.9,
                                       np.column_stack([psi[:-1], rows[:-1, 2]]), psi)
    np.testing.assert_allclose(np.frombuffer(errs), ref_errs, rtol=1e-9, atol=0.0)
    assert_close_to_max(state.theta, theta)
    assert_close_to_max(state.P, P)


def buffer_stream(lam=0.9, seed=13, n=5000):
    basis = LiftedBasis()
    model = KoopmanModel(basis, np.random.default_rng(seed).normal(0, 0.1, size=(9, 10)), 0.025)
    return basis, init_rls(model, lam), excited_traj(n + 1, seed)


def feed(state, basis, traj, lo, hi, tick_steps):
    """Ticks of tick_steps pairs over pairs lo..hi; the error norms' bytes."""
    return b"".join(e.tobytes() for _, e in stream_ticks(state, basis, traj, lo, hi, tick_steps))


def assert_same_state(state, other):
    assert state.R.tobytes() == other.R.tobytes()
    assert state.theta.tobytes() == other.theta.tobytes()
    assert state.P.tobytes() == other.P.tobytes()
    assert state.update_count == other.update_count


def test_deepcopy_mid_stream_updates_on_its_own():
    # the copy is taken with pairs pending, which must be copied with it
    basis, state, traj = buffer_stream()
    feed(state, basis, traj, 0, 2010, 30)
    twin = copy.deepcopy(state)
    assert_same_state(twin, state)
    assert feed(twin, basis, traj, 2010, 5000, 40) == feed(state, basis, traj, 2010, 5000, 40)
    assert_same_state(twin, state)


def test_pickle_mid_stream_updates_on_its_own():
    # the restored state writes its pairs through row views of its own
    # stack, not of the original's
    basis, state, traj = buffer_stream()
    feed(state, basis, traj, 0, 2010, 30)
    twin = pickle.loads(pickle.dumps(state))
    assert twin.update_count % _FOLD_PAIRS == state.update_count % _FOLD_PAIRS == 10
    assert twin._rows.tobytes() == state._rows.tobytes()
    assert all(np.shares_memory(view, twin._rows) and not np.shares_memory(view, state._rows)
               for pair in twin._pair_rows for view in pair)
    assert feed(twin, basis, traj, 2010, 5000, 40) == feed(state, basis, traj, 2010, 5000, 40)
    assert_same_state(twin, state)


def test_states_updated_in_alternation_match_lone_runs():
    runs = [(0.9, 13, 0), (0.99737, 21, 2500)]  # (lambda, model seed, first pair)
    lone = []
    for lam, seed, lo in runs:
        basis, state, traj = buffer_stream(lam, seed)
        lone.append((state, feed(state, basis, traj, lo, lo + 2100, 7)))
    both = [buffer_stream(lam, seed) for lam, seed, _ in runs]
    errs = [b"", b""]
    for i in range(0, 2100, 7):
        for k, ((basis, state, traj), (_, _, lo)) in enumerate(zip(both, runs)):
            errs[k] += feed(state, basis, traj, lo + i, lo + i + 7, 7)
    for (state, lone_errs), (_, alternated, _), alternated_errs in zip(lone, both, errs):
        assert alternated_errs == lone_errs
        assert_same_state(alternated, state)


def test_rejected_pairs_leave_the_state_and_the_next_update_as_they_were():
    basis, state, traj = buffer_stream()
    feed(state, basis, traj, 0, 100, 40)
    R, theta, P = state.R.tobytes(), state.theta.tobytes(), state.P.tobytes()
    x = traj.states()
    z, psi_next = lift_pair(basis, x[100], traj.v_ref[100:101], x[101])
    with pytest.raises(RlsUpdateRejectedError, match="non-finite prediction error"):
        rls_update(state, z, np.full(9, np.nan))
    with pytest.raises(RlsUpdateRejectedError, match="non-finite prediction error"):
        rls_update(state, np.full(10, np.inf), psi_next)
    assert (state.R.tobytes(), state.theta.tobytes(), state.P.tobytes()) == (R, theta, P)
    assert state.update_count == 100
    # what the rejected pairs wrote into the pending rows reaches no later pair
    _, ref, _ = buffer_stream()
    feed(ref, basis, traj, 0, 100, 40)
    assert feed(state, basis, traj, 100, 300, 40) == feed(ref, basis, traj, 100, 300, 40)
    assert_same_state(state, ref)


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_infinite_regressor_on_a_zero_column_is_refused(action):
    # inf times theta's zero column is numpy's "invalid value" in theta z;
    # where that warning is an error, as in this suite's settings, and where
    # it is ignored, the kernel refuses the pair and the state stays as it was
    basis = LiftedBasis()
    state = init_rls(zero_model(basis), 0.9)
    x = random_rows(4)
    for i in range(3):
        rls_update(state, *lift_pair(basis, x[i, :2], x[i, 2:], x[i + 1, :2]))
    before = (state.R.tobytes(), state.theta.tobytes(), state.P.tobytes(),
              state.update_count)
    z, psi_next = lift_pair(basis, x[3, :2], x[3, 2:], x[0, :2])
    z[0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        with pytest.raises(RlsUpdateRejectedError, match="non-finite prediction error"):
            rls_update(state, z, psi_next)
    assert (state.R.tobytes(), state.theta.tobytes(), state.P.tobytes(),
            state.update_count) == before


@pytest.mark.parametrize("action", ["error", "ignore", "raise"])
@pytest.mark.parametrize("value, under, pair, reason", [
    pytest.param(1e120, "ignore", 9, "non-finite prediction error", id="lift-overflows"),
    pytest.param(1e60, "ignore", 39, "singular", id="error-square-overflows"),
    pytest.param(1e-120, "warn", None, None, id="lift-underflows"),
])
def test_huge_speed_gets_one_verdict_in_every_warning_mode(action, value, under, pair, reason):
    # a speed of 1e120 in sample 10 overflows the tick's lift, and pair 9
    # is refused; one of 1e60 lifts, but pair 9's error norm overflows to
    # inf, which is accepted, and the fold after pair 39 is singular; one
    # of 1e-120 underflows in the lift where numpy's underflows warn, and
    # every pair is accepted. Where numpy's warnings are errors, as in this
    # suite's settings, where they are ignored and where numpy raises, the
    # verdict, its pair, the error norms and the state are those of numpy's
    # default mode
    basis = LiftedBasis(scale=(16.0, 512.0))
    model = KoopmanModel(basis, np.random.default_rng(8).normal(0, 0.1, size=(9, 10)), 0.025)
    rows = random_rows(41, 10.0, 500.0)
    rows[10, 0] = value
    buffer = traj_of(rows)

    def run(mode, under):
        state = init_rls(model, 0.99737)
        with error_mode(mode, under=under):
            try:
                verdict = update_tick(state, basis, buffer).tobytes()
            except RlsUpdateRejectedError as exc:
                verdict = str(exc)
        # theta and P would fold the pending rows, singular in one case; the
        # state is theta as of the last fold and the stack's rows up to the
        # pending ones
        p = state.n_features
        k = state.update_count % _FOLD_PAIRS
        return verdict, state._theta.tobytes(), state._rows[:p + k].tobytes(), state.update_count

    state = run(action, under)
    if pair is None:
        assert state[3] == 40
    else:
        assert re.fullmatch(f"tick aborted at buffered pair {pair}: .*{reason}.*", state[0])
        assert state[3] == pair
    assert state == run("ignore", "ignore")


@pytest.mark.parametrize("action", ["error", "ignore", "raise"])
def test_underflowing_prediction_gets_one_error_in_every_warning_mode(action):
    # two of the prediction's products underflow to 0 where numpy's
    # underflows warn; where warnings are errors the pair was once refused
    # as a non-finite prediction error, and numpy's default mode accepts it,
    # as every mode now does, np.errstate(all="raise") too
    def run(mode, under):
        state = RlsState(np.full((2, 3), 1e-200), 0.99)
        with error_mode(mode, under=under):
            err = rls_update(state, np.array([1e-200, 1e-200, 1.0]), np.array([1.0, 1.0]))
        return err, state._theta.tobytes(), state._rows.tobytes(), state.update_count

    state = run(action, "warn")
    assert state[0] == math.sqrt(2.0) and state[3] == 1
    assert state == run("ignore", "ignore")


@pytest.mark.parametrize("action", ["error", "ignore", "raise"])
@pytest.mark.parametrize("theta, pairs, under, reason", [
    # the first pair's error is finite and its square overflows, and the
    # fold adds a correction that takes theta past the float range
    pytest.param(1.7e308, [([0.5, 0.0], [1.79e308])], "ignore", "folded theta is not finite",
                 id="theta-overflows"),
    # the older pair's regressor underflows when the fold weighs it by
    # sqrt(lambda), where numpy's underflows warn
    pytest.param(0.0, [([1e-308, 1.0], [1.0]), ([1.0, 1.0], [1.0])], "warn", None,
                 id="weight-underflows"),
])
def test_fold_gets_one_verdict_in_every_warning_mode(action, theta, pairs, under, reason):
    # a read folds the pending pairs into a copy, as the fold after the last
    # pair of a group does into the state; where numpy's warnings are errors
    # or numpy raises, the fold once raised the bare RuntimeWarning or
    # FloatingPointError, and now its verdict and result are those of
    # numpy's default mode
    def run(mode, under):
        state = RlsState(np.full((1, 2), theta), 0.99)
        with error_mode(mode, under=under):
            errs = [rls_update(state, np.array(z), np.array(y)) for z, y in pairs]
            try:
                verdict = state.theta.tobytes()
            except RlsUpdateRejectedError as exc:
                verdict = str(exc)
        return errs, verdict, state._theta.tobytes(), state._rows.tobytes(), state.update_count

    state = run(action, under)
    if reason is not None:
        assert reason in state[1]
    assert state == run("ignore", "ignore")


def overflowing_buffer(samples):
    """Moderate samples of which the last has a speed of 5e102: its lift on
    the unit-scale basis is finite but huge, so the error norm of the pair
    it ends overflows to inf and is accepted, and the fold after that pair
    would make theta non-finite."""
    rows = random_rows(samples, 10.0, 100.0)
    rows[-1, 0] = 5e102
    return traj_of(rows)


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_fold_that_overflows_theta_is_refused_and_keeps_the_state(action):
    basis = LiftedBasis()
    ref = init_rls(zero_model(basis), 0.99737)
    update_tick(ref, basis, overflowing_buffer(41).slice_samples(0, 40))
    state = init_rls(zero_model(basis), 0.99737)
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        with pytest.raises(RlsUpdateRejectedError,
                           match="buffered pair 39: .*folded theta is not finite"):
            update_tick(state, basis, overflowing_buffer(41))
    # the 39 pairs before it stay applied, and the refused one left no trace
    assert_same_state(state, ref)
    assert state.update_count % _FOLD_PAIRS == ref.update_count % _FOLD_PAIRS == 39
    assert np.isfinite(state._theta).all()


def test_read_that_would_overflow_theta_is_refused():
    # 39 pairs leave the overflowing pair pending; a read folds it into a copy
    basis = LiftedBasis()
    state = init_rls(zero_model(basis), 0.99737)
    update_tick(state, basis, overflowing_buffer(40))
    before = (state._theta.tobytes(), state._rows[:10 + 39].tobytes(), state.update_count)
    for read in (lambda: state.theta, lambda: state.P,
                 lambda: snapshot_model(state, basis, 0.025)):
        with pytest.raises(RlsUpdateRejectedError, match="folded theta is not finite"):
            read()
    assert (state._theta.tobytes(), state._rows[:10 + 39].tobytes(),
            state.update_count) == before


def test_kernel_rejects_nan_prediction_error():
    basis, model, Z, psi = scaled_stream(1)
    state = init_rls(model, 0.99737)
    theta, P = state.theta.copy(), state.P.copy()
    psi_next = psi[1].copy()
    psi_next[3] = np.nan
    with pytest.raises(RlsUpdateRejectedError, match="non-finite prediction error"):
        rls_update(state, Z[0], psi_next)
    np.testing.assert_array_equal(state.theta, theta)
    np.testing.assert_array_equal(state.P, P)
    assert state.update_count == 0


def test_kernel_accepts_finite_error_whose_square_overflows():
    basis, model, Z, psi = scaled_stream(1)
    state = init_rls(model, 0.99737)
    theta, P = state.theta.copy(), state.P.copy()
    psi_next = np.full(9, 1e200)
    with np.errstate(over="ignore"):
        err = rls_update(state, Z[0], psi_next)
        P, ref_err = parent_kernel(theta, P, 0.99737, Z[0], psi_next)
    assert err == ref_err == math.inf
    assert_close_to_max(state.theta, theta)
    assert_close_to_max(state.P, P)
    assert state.update_count == 1


def test_update_count_increments():
    basis = LiftedBasis()
    state = init_rls(zero_model(basis), 0.95)
    rng = np.random.default_rng(1)
    for i in range(5):
        rls_update(state, *lift_pair(basis, rng.normal(size=2), rng.normal(size=1),
                                     rng.normal(size=2)))
    assert state.update_count == 5


def make_traj(n, dt=0.025, seed=0):
    rng = np.random.default_rng(seed)
    return Trajectory(
        sample_period=dt,
        t=np.arange(n) * dt,
        v=10 + rng.normal(0, 0.1, n),
        f_tr=rng.normal(0, 100, n),
        v_ref=np.full(n, 12.0),
    )


def test_update_tick_pair_count():
    basis = LiftedBasis()
    state = init_rls(zero_model(basis), 1.0)
    traj = make_traj(41)
    errs = update_tick(state, basis, traj)
    # 41 buffered samples give 40 transition pairs
    assert len(errs) == 40
    assert state.update_count == 40


def test_update_tick_keeps_rejection_type():
    basis = LiftedBasis()
    state = init_rls(zero_model(basis), 1e-3)
    with pytest.raises(RlsUpdateRejectedError, match=f"buffered pair {_FOLD_PAIRS - 1}"):
        update_tick(state, basis, make_traj(_FOLD_PAIRS + 1))


def random_rows(n, v_scale=1.0, f_scale=1.0, seed=3):
    rng = np.random.default_rng(seed)
    return np.column_stack([v_scale * rng.normal(1, 0.2, n), f_scale * rng.normal(0, 1, n),
                            v_scale * rng.normal(1.2, 0.1, n)])


@pytest.mark.parametrize("scaler, lam, v_scale, f_scale", [
    ((1.0, 1.0), 1.0, 1.0, 1.0),
    ((16.0, 512.0), 0.99737, 10.0, 500.0),
])
def test_update_tick_matches_per_pair_updates(scaler, lam, v_scale, f_scale):
    # reference: each pair lifted one state at a time and fed to parent_kernel
    basis = LiftedBasis(scale=scaler)
    model = KoopmanModel(basis, np.random.default_rng(8).normal(0, 0.1, size=(9, 10)), 0.025)
    rows = random_rows(400, v_scale, f_scale)
    tick = init_rls(model, lam)
    errs = update_tick(tick, basis, traj_of(rows))
    pairs = [lift_pair(basis, rows[i, :2], rows[i, 2:3], rows[i + 1, :2])
             for i in range(len(rows) - 1)]
    theta, P, ref_errs = parent_replay(model.theta, lam, [z for z, _ in pairs],
                                       [None] + [psi for _, psi in pairs])
    np.testing.assert_allclose(errs, ref_errs, rtol=1e-9, atol=0.0)
    assert_close_to_max(tick.theta, theta)
    assert_close_to_max(tick.P, P)
    assert tick.update_count == 399


@pytest.mark.parametrize("cells, value, pair", [
    pytest.param([(5, 0)], np.nan, 4, id="5-0-4"),
    pytest.param([(5, 2)], np.nan, 5, id="5-2-5"),
    pytest.param([(0, 1)], np.nan, 0, id="state-in-row-0"),
    pytest.param([(0, 2)], np.inf, 0, id="input-in-row-0"),
    pytest.param([(11, 1)], -np.inf, 10, id="state-in-last-row"),
    pytest.param([(5, 0)], np.inf, 4, id="inf-state"),
    pytest.param([(8, 1), (3, 2)], np.nan, 3, id="earlier-of-two-wins"),
])
def test_update_tick_names_first_bad_pair(cells, value, pair):
    # a value written into the buffer's v, f_tr or v_ref after construction:
    # a bad state in row r breaks pair r - 1 (its x_next) and pair r (its
    # x_k), a bad input breaks pair r, and the kernel refuses the first
    basis = LiftedBasis()
    state = init_rls(zero_model(basis), 1.0)
    rows = random_rows(12)
    buffer = traj_of(rows)
    columns = (buffer.v, buffer.f_tr, buffer.v_ref)
    for row, col in cells:
        columns[col][row] = value
        rows[row, col] = value
    with pytest.raises(RlsUpdateRejectedError,
                       match=f"buffered pair {pair}: .*non-finite prediction error"):
        update_tick(state, basis, buffer)
    assert state.update_count == pair
    # the pairs before it are applied exactly as pair-by-pair updates apply them
    ref = init_rls(zero_model(basis), 1.0)
    for i in range(pair):
        rls_update(ref, *lift_pair(basis, rows[i, :2], rows[i, 2:3], rows[i + 1, :2]))
    np.testing.assert_array_equal(state.theta, ref.theta)
    np.testing.assert_array_equal(state.P, ref.P)


def test_update_tick_ignores_last_input():
    basis = LiftedBasis()
    state = init_rls(zero_model(basis), 1.0)
    buffer = traj_of(random_rows(6))
    buffer.v_ref[-1] = np.nan
    assert len(update_tick(state, basis, buffer)) == 5
    assert state.update_count == 5


def test_update_tick_rejects_state_of_another_basis():
    state = init_rls(zero_model(LiftedBasis(max_degree=2)), 1.0)
    with pytest.raises(ValueError, match="state has 6 columns, expected 10"):
        update_tick(state, LiftedBasis(), traj_of(random_rows(4)))
    assert state.update_count == 0
    # the right width with the wrong rows is refused before any pair too,
    # where it once reached rls_update's broadcast
    state = RlsState(np.zeros((5, 10)), 0.99)
    rows = state._rows.tobytes()
    with pytest.raises(ValueError, match=r"^state has 10 columns, expected 10, and 5 rows, "
                       r"expected 9, for this basis$"):
        update_tick(state, LiftedBasis(), traj_of(random_rows(4)))
    assert (state.update_count, state._rows.tobytes()) == (0, rows)


def test_update_tick_calls_kernel_once_per_pair(monkeypatch):
    import koopdrive.rls

    calls = []
    original = koopdrive.rls.rls_update

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(koopdrive.rls, "rls_update", counted)
    basis = LiftedBasis()
    state = init_rls(zero_model(basis), 1.0)
    assert len(update_tick(state, basis, make_traj(41))) == len(calls) == 40


def row_view_kernel(state, z, psi_next):
    """rls_update as it was before the state cached its pending rows' views:
    one row view of the stack, two slices of it, and the prediction as a
    temporary; the byte reference of the kernel on finite pairs."""
    k = state.update_count % _FOLD_PAIRS
    p = state.n_features
    row = state._rows[p + k]
    row[:p] = z
    eps = row[p:]
    np.subtract(psi_next, state._theta.dot(z), out=eps)
    sq = eps.dot(eps)
    if not math.isfinite(sq) and not np.all(np.isfinite(eps)):
        raise RlsUpdateRejectedError("update rejected: non-finite prediction error")
    if k + 1 == _FOLD_PAIRS:
        R, state._theta = state._folded(_FOLD_PAIRS)
        state._rows[:p, :p] = R
    state.update_count += 1
    return math.sqrt(sq)


def parent_tick_pairs(basis, buffer):
    """update_tick's pairs as it formed them before model._pairs: its own
    lift of the buffer, redone under np.errstate(all="ignore") where numpy
    warns or raises, and Z = [psi | u] by one concatenate; the byte
    reference of the tick's pairs."""
    try:
        psi = basis.lift_many(buffer.v, buffer.f_tr)
    except (RuntimeWarning, FloatingPointError):
        with np.errstate(all="ignore"):
            return parent_tick_pairs(basis, buffer)
    return np.concatenate((psi, buffer.v_ref[:, None]), axis=1), psi


def parent_update_tick(state, basis, buffer):
    """update_tick on the parent's pairs and the row-view kernel."""
    Z, psi = parent_tick_pairs(basis, buffer)
    return np.array([row_view_kernel(state, Z[i], psi[i + 1]) for i in range(len(buffer) - 1)])


@pytest.mark.parametrize("tick_steps", [1, 4, 7, 40])
def test_update_tick_matches_the_row_view_kernel_bytes(monkeypatch, tick_steps):
    # 250 pairs are six folds and ten pending pairs; sample 100 has a speed
    # whose cube underflows in the lift. In every error mode each tick's
    # pairs from model._pairs are the parent's, and the stream's error
    # norms, theta and R are those of the parent's tick and kernel
    import koopdrive.rls

    basis = LiftedBasis(scale=(16.0, 512.0))
    model = KoopmanModel(basis, np.random.default_rng(4).normal(0, 0.1, size=(9, 10)), 0.025)
    traj = make_traj(400, seed=6)
    traj.v[100] = 1e-110
    for action in PAIR_RULE_MODES:
        with monkeypatch.context() as patch, warnings.catch_warnings(record=True), \
                error_mode(action, under="warn"):
            state = init_rls(model, 0.99737)
            errs = feed(state, basis, traj, 37, 287, tick_steps)
            for lo in range(37, 287, tick_steps):
                buffer = traj.slice_samples(lo, min(lo + tick_steps, 287) + 1)
                pairs, ref_pairs = _pairs(basis, buffer), parent_tick_pairs(basis, buffer)
                assert [a.tobytes() for a in pairs] == [a.tobytes() for a in ref_pairs]
            patch.setattr(koopdrive.rls, "update_tick", parent_update_tick)
            ref = init_rls(model, 0.99737)
            assert feed(ref, basis, traj, 37, 287, tick_steps) == errs
        assert state._rows.tobytes() == ref._rows.tobytes()
        assert_same_state(state, ref)
        assert state.update_count == 250


def copying_slice_samples(self, start, stop):
    """Trajectory.slice_samples as it was before slices became views: the
    same bounds checks, then a copy of each column; the byte reference of a
    tick buffer."""
    if not 0 <= start < stop <= len(self):
        raise ValueError(f"bad sample slice [{start}, {stop}) for length {len(self)}")
    if stop - start < 2:
        raise ValueError(f"a trajectory needs at least 2 samples, got {stop - start}")
    return _trusted_trajectory(self.sample_period, self.t[start:stop].copy(),
                               self.v[start:stop].copy(), self.f_tr[start:stop].copy(),
                               self.v_ref[start:stop].copy())


@pytest.mark.parametrize("tick_steps", [1, 4, 7, 40])
def test_view_ticks_match_the_copied_tick_bytes(monkeypatch, tick_steps):
    # a simulated driver following a varying advisory, its t and v_ref
    # read-only as a shared roster's are; 250 pairs are six folds and ten
    # pending pairs, fed through update_tick by stream_ticks' slices
    basis = LiftedBasis(scale=(16.0, 512.0))
    model = KoopmanModel(basis, np.random.default_rng(4).normal(0, 0.1, size=(9, 10)), 0.025)
    advisory = 12.0 + 3.0 * np.sin(np.arange(400) * 0.025 / 2.0)
    traj = simulate_driver(VEH, DriverParams(), advisory, sample_period=0.025, seed=7)
    traj.t.flags.writeable = traj.v_ref.flags.writeable = False
    state = init_rls(model, 0.99737)
    errs = feed(state, basis, traj, 37, 287, tick_steps)
    monkeypatch.setattr(Trajectory, "slice_samples", copying_slice_samples)
    assert not np.shares_memory(traj.slice_samples(37, 41).v, traj.v)
    ref = init_rls(model, 0.99737)
    assert feed(ref, basis, traj, 37, 287, tick_steps) == errs
    assert state._rows.tobytes() == ref._rows.tobytes()
    assert_same_state(state, ref)
    assert state.update_count == 250


def test_stream_ticks_covers_each_pair_once():
    basis = LiftedBasis()
    state = init_rls(zero_model(basis), 1.0)
    ticks = list(stream_ticks(state, basis, make_traj(11), 0, 10, 4))
    assert [end for end, _ in ticks] == [4, 8, 10]
    assert [len(errs) for _, errs in ticks] == [4, 4, 2]
    assert state.update_count == 10


@pytest.mark.parametrize("start, stop, tick_steps, message", [
    (0, 11, 4, "bad sample range"), (-1, 5, 4, "bad sample range"), (6, 5, 4, "bad sample range"),
    # a size of 0 once raised range()'s error, and -4 applied no pair and
    # yielded nothing
    (0, 10, 0, "got size 0"), (0, 10, -4, "got size -4"),
], ids=["0-11", "-1-5", "6-5", "size_0", "size_-4"])
def test_stream_ticks_rejects_bad_range(start, stop, tick_steps, message):
    basis = LiftedBasis()
    state = init_rls(zero_model(basis), 1.0)
    before = copy.deepcopy(state)
    with pytest.raises(ValueError, match=message):
        next(stream_ticks(state, basis, make_traj(11), start, stop, tick_steps))
    assert state.update_count == 0
    assert state.theta.tobytes() == before.theta.tobytes()
    assert state._rows.tobytes() == before._rows.tobytes()


def test_stream_ticks_empty_range_is_noop():
    basis = LiftedBasis()
    state = init_rls(zero_model(basis), 1.0)
    assert list(stream_ticks(state, basis, make_traj(11), 10, 10, 4)) == []
    assert state.update_count == 0


@pytest.mark.parametrize("tick_steps", [7, 40])
def test_stream_ticks_matches_per_tick_trajectory_buffers(tick_steps):
    # the stream's ticks against update_tick over per-tick copies of the
    # trajectory; neither 7 nor 40 divides the 250 pairs, so the last tick is short
    basis = LiftedBasis(scale=(16.0, 512.0))
    model = KoopmanModel(basis, np.random.default_rng(4).normal(0, 0.1, size=(9, 10)), 0.025)
    traj = make_traj(400, seed=6)
    start, stop = 37, 287
    stream = init_rls(model, 0.99737)
    ticks = list(stream_ticks(stream, basis, traj, start, stop, tick_steps))
    ref = init_rls(model, 0.99737)
    ends, ref_errs, pos = [], [], start
    while pos < stop:
        end = min(pos + tick_steps, stop)
        ref_errs.append(update_tick(ref, basis, traj.slice_samples(pos, end + 1)))
        ends.append(end)
        pos = end
    assert [end for end, _ in ticks] == ends
    assert len(ref_errs[-1]) < tick_steps
    for (_, errs), want in zip(ticks, ref_errs):
        np.testing.assert_array_equal(errs, want)
    np.testing.assert_array_equal(stream.theta, ref.theta)
    np.testing.assert_array_equal(stream.P, ref.P)
    assert stream.update_count == ref.update_count == stop - start


def test_snapshot_roundtrip():
    basis = LiftedBasis()
    rng = np.random.default_rng(9)
    theta = rng.normal(size=(9, 10))
    m = KoopmanModel(basis, theta, 0.025)
    state = init_rls(m, 0.97)
    snap = snapshot_model(state, basis, 0.025)
    np.testing.assert_array_equal(snap.theta, theta)
    assert snap.sample_period == 0.025


def test_snapshot_does_not_follow_later_updates():
    basis = LiftedBasis()
    state = init_rls(zero_model(basis), 0.99)
    traj = traj_of(random_rows(41))
    update_tick(state, basis, traj.slice_samples(0, 21))
    snap = snapshot_model(state, basis, 0.025)
    frozen = state.theta.copy()
    update_tick(state, basis, traj.slice_samples(20, 41))
    assert not np.array_equal(state.theta, frozen)
    np.testing.assert_array_equal(snap.theta, frozen)
    assert snap.A.shape == (9, 9) and snap.B.shape == (9, 1)


@pytest.mark.parametrize("row, col", [(0, 0), (8, 9)], ids=["A", "B"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_snapshot_rejects_non_finite_theta(row, col, bad):
    # a non-finite theta, however the state came by it, is refused by the
    # model constructor; the fold itself refuses one (see the overflow tests)
    basis = LiftedBasis()
    state = init_rls(zero_model(basis), 0.99)
    theta = state.theta.copy()
    theta[row, col] = bad
    state._theta = theta
    with pytest.raises(ValueError, match="model matrices must be finite"):
        snapshot_model(state, basis, 0.025)


@pytest.mark.parametrize("provenance", [[1], "x", 0], ids=["list", "str", "zero"])
def test_snapshot_refuses_a_provenance_that_is_no_dict(provenance):
    # only None is no provenance: a list or a string once failed the merge
    # with a TypeError, and 0 was dropped as if it were None
    basis = LiftedBasis()
    state = init_rls(zero_model(basis), 0.99)
    with pytest.raises(ValueError, match=rf"^provenance must be an object \(a dict\), "
                       rf"got {re.escape(repr(provenance))}$"):
        snapshot_model(state, basis, 0.025, provenance)
    assert snapshot_model(state, basis, 0.025, None).provenance == {
        "fitted_by": "rls", "updates": 0, "lambda": 0.99}


@pytest.mark.parametrize("period", [0.0, -0.025, math.inf, True, "0.025"])
def test_snapshot_rejects_bad_sample_period(period):
    basis = LiftedBasis()
    state = init_rls(zero_model(basis), 0.99)
    with pytest.raises(ValueError, match="sample_period must be a positive finite number"):
        snapshot_model(state, basis, period)
