import dataclasses
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from koopdrive import edmd
from koopdrive.basis import LiftedBasis
from koopdrive.cli import main
from koopdrive.edmd import (
    _FOLD_ROWS,
    _PARTS,
    _fold,
    DataMatrices,
    FitConfig,
    RankDeficientDataError,
    build_matrices,
    fit,
    fit_trajectories,
    split_dataset,
)
from koopdrive.model import Trajectory, _pairs
from test_model import error_mode

ROOT = Path(__file__).resolve().parents[1]


def random_lifted_system(seed=0, spectral_radius=0.9):
    """A system exactly linear in the lifted coordinates, for recovery tests."""
    rng = np.random.default_rng(seed)
    basis = LiftedBasis()
    n = basis.lifted_dim
    A = rng.normal(size=(n, n))
    A *= spectral_radius / max(abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(n, 1))
    return basis, A, B, rng


def fold_pairs(basis, *trajectory_rows, sample_period=0.025):
    """DataMatrices of stacked pair rows [Psi | u | Psi+], one array per
    trajectory, each folded by edmd._fold in blocks of _FOLD_ROWS rows from
    its first row, as build_matrices folds a trajectory's lifted blocks."""
    m = 2 * basis.lifted_dim + 1
    R = np.zeros((m, m))
    for M in trajectory_rows:
        for lo in range(0, len(M), _FOLD_ROWS):
            R = _fold(np.vstack([R, M[lo:lo + _FOLD_ROWS]]))
    return DataMatrices(basis, sample_period, R, sum(len(M) for M in trajectory_rows))


def fold(basis, X, X_plus, U):
    """DataMatrices of the pairs in the columns of X, X_plus (N x T) and U (1 x T)."""
    return fold_pairs(basis, np.vstack([X, U, X_plus]).T)


def lifted_data(basis, A, B, rng, T):
    pts = rng.normal(size=(T, 2))
    U = rng.normal(size=(1, T))
    X = basis.lift_many(*pts.T).T
    X_plus = A @ X + B @ U
    return X, X_plus, U


def rel_fro(est, truth):
    return np.linalg.norm(est - truth) / np.linalg.norm(truth)


def test_exact_recovery():
    basis, A, B, rng = random_lifted_system(seed=1)
    data = fold(basis, *lifted_data(basis, A, B, rng, 5000))
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
    X = basis.lift_many(*x.T).T
    Xp = A_true @ X + B_true @ u
    data = fold(basis, X, Xp, u)
    model = fit(data, FitConfig(max_degree=1))
    np.testing.assert_allclose(model.A, A_true, atol=1e-10)
    np.testing.assert_allclose(model.B, B_true, atol=1e-10)


def test_rank_deficiency_raises():
    basis = LiftedBasis()
    # constant state: every lifted column identical, G cannot have full rank
    pts = np.tile([5.0, 100.0], (50, 1))
    X = basis.lift_many(*pts.T).T
    U = np.ones((1, 50))
    data = fold(basis, X, X, U)
    with pytest.raises(RankDeficientDataError):
        fit(data, FitConfig())


def test_ridge_suppresses_rank_error():
    basis = LiftedBasis()
    pts = np.tile([5.0, 100.0], (50, 1))
    X = basis.lift_many(*pts.T).T
    U = np.ones((1, 50))
    data = fold(basis, X, X, U)
    model = fit(data, FitConfig(ridge=1e-6))
    assert np.all(np.isfinite(model.A))
    assert model.provenance["ridge"] == 1e-6


def test_fit_refuses_fewer_pairs_than_columns():
    # degree 3 has 9 monomials and the input, 10 columns, which 9 pairs
    # cannot determine: a plain ValueError, not a rank error
    basis, A, B, rng = random_lifted_system(seed=2)
    data = fold(basis, *lifted_data(basis, A, B, rng, 9))
    with pytest.raises(ValueError, match="^9 transition pairs cannot determine 10 columns; "
                                         "add data or use ridge > 0$") as caught:
        fit(data, FitConfig())
    assert type(caught.value) is ValueError


def test_fit_trajectories_refuses_too_few_pairs_before_building_anything(monkeypatch):
    # degree 40 gives 860 monomials, 861 columns; the training part of two
    # 400-sample drives is samples 0..639, 399 + 239 pairs
    calls = []

    def spy(name):
        real = getattr(edmd, name)

        def called(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return called

    for name in ("LiftedBasis", "build_matrices"):
        monkeypatch.setattr(edmd, name, spy(name))
    with pytest.raises(ValueError, match="^638 transition pairs cannot determine 861 columns; "
                                         "add data or use ridge > 0$"):
        fit_trajectories([make_traj(400, seed=1), make_traj(400, seed=2)],
                         FitConfig(max_degree=40))
    assert calls == []


def test_ridge_matches_normal_equations():
    basis, A, B, rng = random_lifted_system(seed=3)
    X, X_plus, U = lifted_data(basis, A, B, rng, 400)
    lam = 1e-3
    model = fit(fold(basis, X, X_plus, U), FitConfig(ridge=lam))
    G = np.vstack([X, U])
    theta_ref = X_plus @ G.T @ np.linalg.inv(G @ G.T + lam * np.eye(10))
    np.testing.assert_allclose(model.theta, theta_ref, rtol=1e-8, atol=1e-10)


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
    assert data.R.shape == (19, 19)


def stacked_pairs(trajectories, basis):
    """The explicitly stacked rows [Psi | u | Psi+], one per transition pair."""
    rows = []
    for traj in trajectories:
        Z = basis.lift_many(traj.v, traj.f_tr)
        rows.append(np.hstack([Z[:-1], traj.v_ref[:-1, None], Z[1:]]))
    return np.vstack(rows)


def assert_same_gram(R, M):
    # Householder QR keeps each Gram entry to eps times its two column norms
    gram = M.T @ M
    d = 1.0 / np.sqrt(np.diag(gram))
    np.testing.assert_allclose(d[:, None] * (R.T @ R) * d, d[:, None] * gram * d,
                               rtol=0, atol=1e-12)


def test_build_matrices_pairs_align():
    # a varying advisory, so a shifted u column would change the cross terms
    trajs = [make_traj(10, seed=3, v_ref=np.linspace(9.0, 12.0, 10)), make_traj(60, seed=9)]
    basis = LiftedBasis()
    data = build_matrices(trajs, basis)
    M = stacked_pairs(trajs, basis)
    assert M.shape == (9 + 59, 19)
    assert np.array_equal(np.triu(data.R), data.R)
    assert_same_gram(data.R, M)


def whole_trajectory_matrices(trajectories, basis):
    """Reference for build_matrices: each trajectory lifted in one piece."""
    return fold_pairs(basis, *(stacked_pairs([traj], basis) for traj in trajectories),
                      sample_period=trajectories[0].sample_period)


def parent_build_matrices(trajectories, basis):
    """build_matrices' fold loop as it was before model._pairs formed its
    pairs, kept as the byte reference of the pair rule: each block's states
    column-stacked and lifted, then written below R as Psi, u and Psi+.
    Returns R and each fold block with its pair rows."""
    N = basis.lifted_dim
    m = 2 * N + 1
    R = np.zeros((m, m))
    blocks = []
    for traj in trajectories:
        pairs = len(traj) - 1
        for lo in range(0, pairs, _FOLD_ROWS):
            hi = min(lo + _FOLD_ROWS, pairs)
            block = traj.slice_samples(lo, hi + 1)
            with np.errstate(all="ignore"):
                Z = basis.lift_many(*np.column_stack((block.v, block.f_tr)).T)
            rows = np.empty((m + hi - lo, m))
            rows[:m] = R
            rows[m:, :N] = Z[:-1]
            rows[m:, N] = block.v_ref[:-1]
            rows[m:, N + 1:] = Z[1:]
            blocks.append((block, rows[m:].copy()))
            R = _fold(rows)
    return R, blocks


# the suite's own setting, where numpy's warnings are errors, every warning
# shown, and np.seterr(all="raise"); numpy's underflows warn in the first two
PAIR_RULE_MODES = ("error", "always", "raise")


@pytest.mark.parametrize("pairs", [1, _FOLD_ROWS - 1, _FOLD_ROWS, _FOLD_ROWS + 1,
                                   2 * _FOLD_ROWS + 1])
def test_block_lift_matches_whole_trajectory_lift(pairs):
    n = pairs + 1
    trajs = [make_traj(n, seed=pairs, v_ref=np.linspace(9.0, 12.0, n)), make_traj(30, seed=2)]
    # a speed whose cube underflows in the lift
    trajs[1].v[5] = 1e-110
    basis = LiftedBasis(scale=(16.0, 512.0))
    data = build_matrices(trajs, basis)
    ref = whole_trajectory_matrices(trajs, basis)
    assert data.T == ref.T == pairs + 29
    assert data.R.tobytes() == ref.R.tobytes()
    # the pair rule: each block's pairs from model._pairs are the parent's
    # rows, and R is its R, in every error mode
    parent_R, blocks = parent_build_matrices(trajs, basis)
    assert len(blocks) == (pairs - 1) // _FOLD_ROWS + 2
    for action in PAIR_RULE_MODES:
        with warnings.catch_warnings(record=True) as caught, error_mode(action, under="warn"):
            assert build_matrices(trajs, basis).R.tobytes() == parent_R.tobytes()
            for block, rows in blocks:
                Z, psi = _pairs(basis, block)
                assert np.hstack((Z[:-1], psi[1:])).tobytes() == rows.tobytes()
        assert len(caught) == (action == "always")


def test_build_matrices_memory_stays_near_one_block():
    # lifting a 100k-sample trajectory whole allocated about 3x its (k, 9)
    # lifted array; block by block the peak is a few fold blocks
    traj = make_traj(100_000, seed=11)
    basis = LiftedBasis()
    tracemalloc.start()
    try:
        build_matrices([traj], basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * len(traj) * basis.lifted_dim * 8


@pytest.mark.parametrize("action", ["error", "always"])
def test_build_matrices_refuses_a_lift_that_overflows(action):
    # 1e120 cubed overflows the lift; the refusal names the trajectory and
    # its block's samples, and numpy warns of nothing, whether its warnings
    # are errors, as in this suite's settings, or are all shown
    bad = make_traj(_FOLD_ROWS + 100, seed=2)
    bad.v[_FOLD_ROWS + 10] = 1e120
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action, RuntimeWarning)
        with pytest.raises(ValueError, match=rf"^trajectory 1: samples {_FOLD_ROWS}\.\."
                           rf"{_FOLD_ROWS + 99} \(t = 102\.4 to .* s\) lift to non-finite"):
            build_matrices([make_traj(50, seed=1), bad], LiftedBasis())
    assert caught == []


@pytest.mark.parametrize("action", ["error", "raise"])
def test_build_matrices_folds_an_underflowing_lift_as_the_default_mode(action):
    # a speed of 1e-120 underflows in the lift; where numpy's underflows
    # are errors or raise, R is still the default mode's, bit for bit
    traj = make_traj(200, seed=3)
    traj.v[50] = 1e-120

    def run(action, **events):
        with error_mode(action, **events):
            return build_matrices([traj], LiftedBasis()).R.tobytes()

    assert run(action, under="warn") == run("ignore")


def fold_blocks():
    """Row blocks of every fold shape: fit's full block and its ridge fold,
    and the RLS reads that fold k < 9 pending rows under the 10 rows
    [R | 0], wider than tall. Each holds +0.0 and -0.0 entries and a
    column of zeros, so R's own signed zeros are exercised too."""
    rng = np.random.default_rng(11)
    full = rng.normal(size=(_FOLD_ROWS + 19, 19)) * np.logspace(0, 6, 19)
    full[:, 4] = np.where(rng.random(len(full)) < 0.5, 0.0, -0.0)
    full[7, :] = -0.0
    square = np.triu(rng.normal(size=(19, 19)))
    square[3, 3:] = -0.0
    blocks = {"fit": full, "square": square}
    for k in range(9):
        rows = np.zeros((10 + k, 19))
        rows[:10, :10] = np.triu(rng.normal(size=(10, 10)))
        rows[10:] = rng.normal(size=(k, 19))
        rows[10:, 2] = -0.0
        blocks[f"read-{k}"] = rows
    return blocks


@pytest.mark.parametrize("name", list(fold_blocks()))
def test_fold_is_numpys_r_byte_for_byte(name):
    rows = fold_blocks()[name]
    before = rows.tobytes()
    R = _fold(rows)
    ref = np.linalg.qr(rows, mode="r")
    # tobytes compares every bit, sign bits included
    assert R.shape == ref.shape and R.dtype == ref.dtype
    assert R.tobytes() == ref.tobytes()
    assert R.flags.c_contiguous and R.flags.writeable
    # the strict lower triangle holds +0.0, as numpy's triu writes it
    lower = np.tri(*R.shape, -1, dtype=bool)
    assert np.all(R[lower] == 0.0) and not np.signbit(R[lower]).any()
    # the rows themselves are left alone
    assert rows.tobytes() == before


def test_split_dataset_fractions():
    trajs = [make_traj(1000, seed=4)]
    train, val, test = split_dataset(trajs, (0.8, 0.1, 0.1))
    assert len(train[0].v) == 800
    assert len(val[0].v) == 100
    assert len(test[0].v) == 100
    # boundary samples are shared by no split; totals add up
    total = sum(len(s[0].v) for s in (train, val, test))
    assert total == 1000


def test_split_cuts_at_the_cumulative_fraction():
    # 0.7 + 0.2 is 0.8999999999999999 in floats, and 30 times that floors to
    # 26; the cut allows the 1e-9 slack the fractions' sum is allowed
    parts = split_dataset([make_traj(30, seed=4)], (0.7, 0.2, 0.1))
    assert [len(part[0]) for part in parts] == [21, 6, 3]


def test_split_rejects_bad_fractions():
    with pytest.raises(ValueError):
        FitConfig(split=(0.5, 0.2, 0.2))
    with pytest.raises(ValueError):
        FitConfig(split=(1.0, 0.0, 0.0))


@pytest.mark.parametrize("refused", [
    lambda: build_matrices([], LiftedBasis()),
    lambda: split_dataset([], (0.8, 0.1, 0.1)),
    lambda: fit_trajectories([], FitConfig()),
], ids=["build_matrices", "split_dataset", "fit_trajectories"])
def test_no_trajectory_is_refused(refused):
    with pytest.raises(ValueError, match="^need at least one trajectory$"):
        refused()


def test_split_rejects_an_empty_validation_part():
    # the cuts fall at samples 4 and 4: validation gets no sample, and test's
    # one sample holds no pair
    trajs = [make_traj(5, seed=5)]
    with pytest.raises(ValueError, match="^validation part is empty; dataset is too small"):
        split_dataset(trajs, (0.8, 0.1, 0.1))


@pytest.mark.parametrize("split,samples", [
    ((0.5005, 0.2495, 0.25), ([1000], [499], [500])),
    ((0.4995, 0.2505, 0.25), ([999], [500], [500])),
], ids=["train_fragment", "validation_fragment"])
def test_split_drops_a_one_sample_fragment(split, samples):
    # the first cut falls one sample into the second drive, or one sample
    # before the end of the first: that sample holds no pair and joins no part
    trajs = [make_traj(1000, seed=1), make_traj(1000, seed=2)]
    parts = split_dataset(trajs, split)
    assert tuple([len(span) for span in part] for part in parts) == samples
    model, report = fit_trajectories(trajs, FitConfig(split=split))
    assert report.split_samples == dict(zip(_PARTS, (sum(s) for s in samples)))
    assert report.split_pairs == dict(zip(_PARTS, (sum(s) - 1 for s in samples)))
    assert sum(report.split_samples.values()) == 2000 - 1


def cascaded_roster(lengths):
    """Recordings of the given lengths whose v column is the global index of
    each sample in the cascaded stream, so a span tells which samples it holds."""
    offsets = np.cumsum([0] + lengths[:-1]).tolist()
    return [Trajectory(sample_period=0.1, t=np.arange(n) * 0.1, v=o + np.arange(n, dtype=float),
                       f_tr=np.zeros(n), v_ref=np.zeros(n))
            for o, n in zip(offsets, lengths)], offsets


@given(st.lists(st.integers(2, 60), min_size=1, max_size=5),
       st.lists(st.integers(1, 999), min_size=2, max_size=2, unique=True).map(sorted))
@example([10, 10], [550, 800])  # a one-sample train fragment in the second recording
@example([5], [800, 900])  # an empty validation part
@settings(max_examples=300, deadline=None)
def test_split_parts_hold_the_pairs_inside_their_cuts(lengths, cuts):
    split = (cuts[0] / 1000, (cuts[1] - cuts[0]) / 1000, (1000 - cuts[1]) / 1000)
    roster, offsets = cascaded_roster(lengths)
    total = sum(lengths)
    B = [0] + [math.floor((f + 1e-9) * total) for f in (split[0], split[0] + split[1])] + [total]
    # pair i of the recording at offset o, by the global index o + i of its
    # first sample, goes to part p exactly when it lies wholly inside p's cut
    expected = [[o + i for o, n in zip(offsets, lengths) for i in range(n - 1)
                 if B[p] <= o + i and o + i + 1 < B[p + 1]] for p in range(3)]
    empty = [name for name, pairs in zip(_PARTS, expected) if not pairs]
    if empty:
        with pytest.raises(ValueError, match=f"^{empty[0]} part is empty"):
            split_dataset(roster, split)
        return
    parts = split_dataset(roster, split)
    for part, pairs in zip(parts, expected):
        assert [int(v) for span in part for v in span.v[:-1]] == pairs
        for span in part:
            j = int(np.searchsorted(offsets, span.v[0], side="right")) - 1
            assert np.shares_memory(span.v, roster[j].v)
            assert np.array_equal(span.v, span.v[0] + np.arange(len(span)))
    # split_dataset once refused a one-sample fragment; on every input it
    # accepted then, each span is the bytes of slice_samples over the part's
    # samples
    cuts_per_part = [[(j, max(B[p] - o, 0), min(B[p + 1] - o, n))
                      for j, (o, n) in enumerate(zip(offsets, lengths))
                      if min(B[p + 1] - o, n) > max(B[p] - o, 0)] for p in range(3)]
    if any(hi - lo == 1 for part in cuts_per_part for _, lo, hi in part):
        return
    for part, part_cuts in zip(parts, cuts_per_part):
        assert len(part) == len(part_cuts)
        for span, (j, lo, hi) in zip(part, part_cuts):
            ref = roster[j].slice_samples(lo, hi)
            assert span.sample_period == ref.sample_period
            for column in ("t", "v", "f_tr", "v_ref"):
                assert getattr(span, column).tobytes() == getattr(ref, column).tobytes()


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
        x = (A @ basis.lift(x) + B[:, 0] * u[k])[:2]
    traj = Trajectory(sample_period=0.025, t=np.arange(n) * 0.025,
                      v=vs, f_tr=fs, v_ref=u)
    model, report = fit_trajectories([traj], FitConfig())
    assert report.one_step_rmse_v_mps["train"] < 1e-8
    assert report.one_step_rmse_v_mps["test"] < 1e-8
    d = dataclasses.asdict(report)
    assert set(d["split_pairs"]) == {"train", "validation", "test"}


def test_fit_trajectories_scaler_from_train_only():
    trajs = [make_traj(400, seed=7)]
    model, report = fit_trajectories(trajs, FitConfig())
    scale = model.basis.scale
    # power-of-two scaling chosen from training magnitudes
    assert all(np.log2(s) == round(np.log2(s)) for s in scale)


def test_fit_memory_does_not_grow_with_the_data():
    # the pairs are folded trajectory by trajectory and never stacked, so
    # four times the trajectories must not raise the peak allocation
    trajs = [make_traj(6000, seed=20 + i) for i in range(16)]

    def peak(part):
        tracemalloc.start()
        try:
            fit_trajectories(part, FitConfig())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(trajs) < 1.5 * peak(trajs[:4])


def reference_fit(X, X_plus, U, ridge):
    """SVD least squares over the stacked pairs (N x T columns), as fit solved it
    before the streaming QR: returns theta, residual and condition number."""
    N, T = X.shape
    p = N + 1
    G = np.vstack([X, U]).T
    Y = X_plus.T
    G_solve, Y_solve = G, Y
    if ridge > 0.0:
        G_solve = np.vstack([G, math.sqrt(ridge) * np.eye(p)])
        Y_solve = np.vstack([Y, np.zeros((p, N))])
    sol, _, rank, svals = np.linalg.lstsq(G_solve, Y_solve, rcond=max(T, p) * np.finfo(float).eps)
    assert rank == p
    return sol.T, float(np.linalg.norm(Y - G @ sol)), float(svals[0] / svals[-1])


def reference_one_step_rmse(basis, theta, X, X_plus, U):
    pred = theta @ np.vstack([X, U])
    err = basis.project_many(pred.T) - basis.project_many(X_plus.T)
    return np.sqrt(np.mean(err**2, axis=0))


@pytest.fixture(scope="module")
def reduced_roster(tmp_path_factory):
    """Three drivers on the shipped route and config, DP grid cut to 16 x 11."""
    root = tmp_path_factory.mktemp("reduced")
    cfg = json.loads((ROOT / "configs" / "default.json").read_text())
    cfg["advisory"].update(v_levels=16, soc_levels=11)
    cfg["drivers"]["count"] = 3
    for window in cfg["drivers"]["distracted"]:
        window["index"] = 2
    config = root / "config.json"
    config.write_text(json.dumps(cfg))
    assert main(["advisory", "--route", str(ROOT / "configs" / "route_urban.csv"),
                 "--config", str(config), "--out", str(root / "advisory")]) == 0
    assert main(["simulate", "--advisory", str(root / "advisory" / "advisory_time.csv"),
                 "--config", str(config), "--out", str(root / "drivers")]) == 0
    return [Trajectory.read_csv(str(p)) for p in sorted((root / "drivers").glob("*.csv"))]


@pytest.mark.parametrize("ridge", [0.0, 1e-3])
def test_streaming_fit_matches_stacked_lstsq(reduced_roster, ridge):
    config = FitConfig(ridge=ridge)
    model, report = fit_trajectories(reduced_roster, config)
    basis = model.basis
    parts = dict(zip(("train", "validation", "test"),
                     split_dataset(reduced_roster, config.split)))
    stacks = {}
    for name, part in parts.items():
        M = stacked_pairs(part, basis)
        stacks[name] = (M[:, :9].T, M[:, 10:].T, M[:, 9:10].T)
    theta, residual, cond = reference_fit(*stacks["train"], ridge)

    assert np.max(np.abs(model.theta - theta)) <= 1e-12 * np.max(np.abs(theta))
    assert report.residual_fro == pytest.approx(residual, rel=1e-9, abs=0)
    assert report.condition_number == pytest.approx(cond, rel=1e-9, abs=0)
    for name, (X, X_plus, U) in stacks.items():
        assert report.split_pairs[name] == X.shape[1]
        rms_v, rms_f = reference_one_step_rmse(basis, theta, X, X_plus, U)
        assert report.one_step_rmse_v_mps[name] == pytest.approx(rms_v, rel=1e-9, abs=0)
        assert report.one_step_rmse_f_n[name] == pytest.approx(rms_f, rel=1e-9, abs=0)
