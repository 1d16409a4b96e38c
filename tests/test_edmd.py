import numpy as np
import pytest

from koopdrive.basis import LiftedBasis
from koopdrive.edmd import (
    DataMatrices,
    FitConfig,
    RankDeficientDataError,
    build_matrices,
    fit,
    fit_trajectories,
    split_dataset,
)
from koopdrive.model import Trajectory


def random_lifted_system(seed=0, spectral_radius=0.9):
    """A system exactly linear in the lifted coordinates, for recovery tests."""
    rng = np.random.default_rng(seed)
    basis = LiftedBasis()
    n = basis.lifted_dim
    A = rng.normal(size=(n, n))
    A *= spectral_radius / max(abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(n, 1))
    return basis, A, B, rng


def lifted_data(basis, A, B, rng, T):
    pts = rng.normal(size=(T, 2))
    U = rng.normal(size=(1, T))
    X = basis.lift_many(pts).T
    X_plus = A @ X + B @ U
    return DataMatrices(X=X, X_plus=X_plus, U=U, basis=basis, sample_period=0.025)


def rel_fro(est, truth):
    return np.linalg.norm(est - truth) / np.linalg.norm(truth)


def test_exact_recovery():
    basis, A, B, rng = random_lifted_system(seed=1)
    data = lifted_data(basis, A, B, rng, 5000)
    model = fit(data, FitConfig())
    assert rel_fro(model.A, A) < 1e-10
    assert rel_fro(model.B, B) < 1e-10
    assert model.provenance["residual_fro"] < 1e-8


def test_scalar_system_recovery():
    # x+ = 0.9x + 0.1u with a degree-1 basis on the first state
    basis = LiftedBasis(max_degree=1)
    rng = np.random.default_rng(8)
    T = 100
    x = rng.normal(size=(T, 2))
    u = rng.normal(size=(1, T))
    A_true = np.array([[0.9, 0.0], [0.0, 0.5]])
    B_true = np.array([[0.1], [0.0]])
    X = basis.lift_many(x).T
    Xp = A_true @ X + B_true @ u
    data = DataMatrices(X=X, X_plus=Xp, U=u, basis=basis, sample_period=0.025)
    model = fit(data, FitConfig(max_degree=1))
    np.testing.assert_allclose(model.A, A_true, atol=1e-10)
    np.testing.assert_allclose(model.B, B_true, atol=1e-10)


def test_rank_deficiency_raises():
    basis = LiftedBasis()
    # constant state: every lifted column identical, G cannot have full rank
    pts = np.tile([5.0, 100.0], (50, 1))
    X = basis.lift_many(pts).T
    U = np.ones((1, 50))
    data = DataMatrices(X=X, X_plus=X, U=U, basis=basis, sample_period=0.025)
    with pytest.raises(RankDeficientDataError):
        fit(data, FitConfig())


def test_ridge_suppresses_rank_error():
    basis = LiftedBasis()
    pts = np.tile([5.0, 100.0], (50, 1))
    X = basis.lift_many(pts).T
    U = np.ones((1, 50))
    data = DataMatrices(X=X, X_plus=X, U=U, basis=basis, sample_period=0.025)
    model = fit(data, FitConfig(ridge=1e-6))
    assert np.all(np.isfinite(model.A))
    assert model.provenance["ridge"] == 1e-6


def test_ridge_matches_normal_equations():
    basis, A, B, rng = random_lifted_system(seed=3)
    data = lifted_data(basis, A, B, rng, 400)
    lam = 1e-3
    model = fit(data, FitConfig(ridge=lam))
    G = np.vstack([data.X, data.U])
    theta_ref = data.X_plus @ G.T @ np.linalg.inv(G @ G.T + lam * np.eye(10))
    np.testing.assert_allclose(model.stacked(), theta_ref, rtol=1e-8, atol=1e-10)


def make_traj(n, dt=0.025, seed=0, v_ref=12.0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) * dt
    v = 10 + np.cumsum(rng.normal(0, 0.05, n))
    f = rng.normal(0, 300, n)
    return Trajectory(sample_period=dt, t=t, v=v, f_tr=f, v_ref=np.full(n, v_ref))


def test_build_matrices_pair_count():
    trajs = [make_traj(100, seed=1), make_traj(50, seed=2)]
    basis = LiftedBasis()
    data = build_matrices(trajs, basis)
    # transitions never straddle a trajectory boundary
    assert data.T == 99 + 49
    assert data.X.shape == (9, 148)
    assert data.U.shape == (1, 148)


def test_build_matrices_pairs_align():
    traj = make_traj(10, seed=3)
    basis = LiftedBasis()
    data = build_matrices([traj], basis)
    np.testing.assert_array_equal(data.X[:2, 0], [traj.v[0], traj.f_tr[0]])
    np.testing.assert_array_equal(data.X_plus[:2, -1], [traj.v[-1], traj.f_tr[-1]])
    np.testing.assert_array_equal(data.U[0], traj.v_ref[:-1])


def test_split_dataset_fractions():
    trajs = [make_traj(1000, seed=4)]
    train, val, test = split_dataset(trajs, (0.8, 0.1, 0.1))
    assert len(train[0].v) == 800
    assert len(val[0].v) == 100
    assert len(test[0].v) == 100
    # boundary samples are shared by no split; totals add up
    total = sum(len(s[0].v) for s in (train, val, test))
    assert total == 1000


def test_split_rejects_bad_fractions():
    with pytest.raises(ValueError):
        FitConfig(split=(0.5, 0.2, 0.2))
    with pytest.raises(ValueError):
        FitConfig(split=(1.0, 0.0, 0.0))


def test_split_rejects_fragment():
    trajs = [make_traj(5, seed=5)]
    with pytest.raises(ValueError):
        split_dataset(trajs, (0.8, 0.1, 0.1))


def test_fit_trajectories_end_to_end():
    # physical next-state is an exact linear readout of the lifted current
    # state, so the one-step physical residual of the fit is numerically zero
    basis = LiftedBasis()
    rng = np.random.default_rng(6)
    A = 0.8 * np.eye(9) + 0.01 * rng.normal(size=(9, 9))
    B = 0.05 * rng.normal(size=(9, 1))
    n = 2000
    x = np.array([0.5, -0.2])
    u = rng.uniform(-0.5, 0.5, n)
    vs = np.empty(n)
    fs = np.empty(n)
    for k in range(n):
        vs[k], fs[k] = x
        x = basis.project(A @ basis.lift(x) + B[:, 0] * u[k])
    traj = Trajectory(sample_period=0.025, t=np.arange(n) * 0.025,
                      v=vs, f_tr=fs, v_ref=u)
    model, report = fit_trajectories([traj], FitConfig(scaling="none"))
    assert report.one_step_rmse_v_mps["train"] < 1e-8
    assert report.one_step_rmse_v_mps["test"] < 1e-8
    d = report.to_dict()
    assert set(d["split_pairs"]) == {"train", "validation", "test"}


def test_fit_trajectories_scaler_from_train_only():
    trajs = [make_traj(400, seed=7)]
    model, report = fit_trajectories(trajs, FitConfig())
    scale = model.basis.scaler.scale
    # power-of-two scaling chosen from training magnitudes
    assert all(np.log2(s) == round(np.log2(s)) for s in scale)
