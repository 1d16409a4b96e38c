import dataclasses
import json
import math
import numbers
import os
import stat

import numpy as np
import pytest

from koopdrive.advisory import EcoDpConfig, PowertrainParams
from koopdrive.basis import LiftedBasis, pow2_scale
from koopdrive.cli import EvalSettings, Roster
from koopdrive.driversim import DistractionWindow, DriverParams, VehicleParams
from koopdrive.edmd import FitConfig
from koopdrive.model import (
    KoopmanModel,
    ModelFileError,
    RolloutDivergenceError,
    Trajectory,
    _is_number,
    _row_template,
    _write_json,
)
from koopdrive.rls import OnlineSettings


def make_traj(n=100, dt=0.025, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) * dt
    v = np.abs(rng.normal(10, 2, n))
    f = rng.normal(0, 500, n)
    vr = np.full(n, 12.0)
    return Trajectory(sample_period=dt, t=t, v=v, f_tr=f, v_ref=vr)


def identity_model():
    basis = LiftedBasis()
    A = np.eye(9)
    B = np.zeros((9, 1))
    return KoopmanModel(basis=basis, A=A, B=B, sample_period=0.025)


def test_trajectory_validates_spacing():
    t = np.array([0.0, 0.025, 0.051])
    with pytest.raises(ValueError):
        Trajectory(sample_period=0.025, t=t, v=np.ones(3), f_tr=np.zeros(3),
                   v_ref=np.ones(3))


@pytest.mark.parametrize("offset, ok", [(1e-9, True), (4e-9, False)])
def test_trajectory_spacing_tolerance(offset, ok):
    # spacings within 2e-9 relative of the sample period are accepted
    dt = 0.025
    t = np.arange(5) * dt
    t[-1] += offset * dt
    args = dict(sample_period=dt, t=t, v=np.ones(5), f_tr=np.zeros(5), v_ref=np.ones(5))
    if ok:
        Trajectory(**args)
    else:
        with pytest.raises(ValueError, match="sample 3 has spacing"):
            Trajectory(**args)


def test_trajectory_needs_two_samples():
    with pytest.raises(ValueError):
        Trajectory(sample_period=0.025, t=np.array([0.0]), v=np.ones(1),
                   f_tr=np.zeros(1), v_ref=np.ones(1))


def test_slice_samples_matches_validated_trajectory():
    traj = make_traj(n=50, seed=2)
    part = traj.slice_samples(7, 31)
    ref = Trajectory(sample_period=traj.sample_period, t=traj.t[7:31], v=traj.v[7:31],
                     f_tr=traj.f_tr[7:31], v_ref=traj.v_ref[7:31])
    assert type(part) is Trajectory
    assert part.sample_period == ref.sample_period
    for name in ("t", "v", "f_tr", "v_ref"):
        np.testing.assert_array_equal(getattr(part, name), getattr(ref, name))


def test_slice_samples_copies_columns():
    traj = make_traj(n=20)
    before = [traj.t.copy(), traj.v.copy(), traj.f_tr.copy(), traj.v_ref.copy()]
    part = traj.slice_samples(3, 9)
    for name in ("t", "v", "f_tr", "v_ref"):
        getattr(part, name)[:] = -1.0
    for arr, old in zip((traj.t, traj.v, traj.f_tr, traj.v_ref), before):
        np.testing.assert_array_equal(arr, old)


@pytest.mark.parametrize("start, stop, message", [
    (4, 5, r"a trajectory needs at least 2 samples, got 1"),
    (99, 100, r"a trajectory needs at least 2 samples, got 1"),
    (4, 4, r"bad sample slice \[4, 4\) for length 100"),
    (-1, 5, r"bad sample slice \[-1, 5\) for length 100"),
    (90, 101, r"bad sample slice \[90, 101\) for length 100"),
])
def test_slice_samples_rejects(start, stop, message):
    with pytest.raises(ValueError, match=message):
        make_traj(n=100).slice_samples(start, stop)


def test_trajectory_csv_roundtrip_bytes(tmp_path):
    traj = make_traj(seed=5)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    traj.write_csv(p1)
    back = Trajectory.read_csv(p1)
    back.write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    np.testing.assert_array_equal(back.v, traj.v)
    np.testing.assert_array_equal(back.f_tr, traj.f_tr)


def test_read_csv_columns_own_their_data(tmp_path):
    # no column may be a view that keeps the (n, 4) parse buffer alive
    path = tmp_path / "a.csv"
    make_traj(seed=6).write_csv(path)
    back = Trajectory.read_csv(path)
    for name in ("t", "v", "f_tr", "v_ref"):
        column = getattr(back, name)
        assert column.base is None and column.flags.owndata, name
        assert column.flags.c_contiguous, name


def test_trajectory_csv_matches_per_cell_repr(tmp_path):
    # signed zero, the smallest subnormal, both sides of repr's switch to
    # exponent notation, an integral force and a value with no short decimal
    odd = np.array([-0.0, 5e-324, 1e-5, 1e16, -9000.0, 0.1 + 0.2])
    traj = Trajectory(sample_period=0.025, t=np.arange(6) * 0.025, v=odd,
                      f_tr=odd[::-1], v_ref=np.roll(odd, 2))
    p = tmp_path / "odd.csv"
    traj.write_csv(p)
    cols = (traj.t, traj.v, traj.f_tr, traj.v_ref)
    expected = ["t_s,v_mps,f_tr_n,v_ref_mps"] + [
        ",".join(repr(float(col[k])) for col in cols) for k in range(6)
    ]
    assert p.read_bytes() == ("\n".join(expected) + "\n").encode()
    back = Trajectory.read_csv(p)
    for got, want in zip((back.t, back.v, back.f_tr, back.v_ref), cols):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_row_template_writes_per_cell_repr(tmp_path):
    # the row template of t and v_ref, passed to trajectories with the same t
    # and v_ref bytes, formats only their v and f_tr
    t = np.arange(5) * 0.025
    v_ref = np.array([-0.0, 1.5, 0.0, 0.1 + 0.2, 7.0])
    template = _row_template(t, v_ref)
    for k in range(2):
        traj = Trajectory(sample_period=0.025, t=t, v=np.full(5, 3.0 + k),
                          f_tr=np.full(5, -1.0 - k), v_ref=v_ref)
        p = tmp_path / f"driver_{k}.csv"
        traj.write_csv(p, template)
        cols = (traj.t, traj.v, traj.f_tr, traj.v_ref)
        expected = ["t_s,v_mps,f_tr_n,v_ref_mps"] + [
            ",".join(repr(float(col[i])) for col in cols) for i in range(5)
        ]
        assert p.read_bytes() == ("\n".join(expected) + "\n").encode()


def test_trajectory_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time,speed\n0,1\n")
    with pytest.raises(ValueError):
        Trajectory.read_csv(p)


def test_window_selects_halfopen_range():
    traj = make_traj(n=200)
    w = traj.window(1.0, 2.0)
    assert w.t[0] >= 1.0
    assert w.t[-1] <= 2.0
    assert abs(w.t[0] - 1.0) < traj.sample_period


def test_segment_indices_inclusive_bounds():
    traj = make_traj(n=200)
    assert traj.segment_indices(1.0, 2.0) == (40, 80)
    assert traj.segment_indices(0.0, traj.t[-1]) == (0, 199)


@pytest.mark.parametrize("t_start, t_end", [(2.0, 1.0), (1.0, 1.0), (-0.1, 1.0),
                                            (4.0, 5.0), (1.0, 1.01), (0.0, math.inf),
                                            (-math.inf, 1.0)])
def test_segment_indices_rejects(t_start, t_end):
    # reversed, empty, before the start, past the end, under 2 samples, and
    # bounds that are no finite number of samples
    traj = make_traj(n=200)
    with pytest.raises(ValueError):
        traj.segment_indices(t_start, t_end)


def test_window_past_data_raises():
    traj = make_traj(n=200)
    with pytest.raises(ValueError, match="extends beyond"):
        traj.window(4.0, 9999.0)


def test_states_stacks_v_and_force():
    traj = make_traj(n=10)
    X = traj.states()
    assert X.shape == (10, 2)
    np.testing.assert_array_equal(X[:, 0], traj.v)
    np.testing.assert_array_equal(X[:, 1], traj.f_tr)


def test_rollout_constant_under_identity():
    m = identity_model()
    pred = m.rollout(np.array([10.0, 0.0]), np.full(100, 12.0))
    assert len(pred.v) == 101
    np.testing.assert_array_equal(pred.v, 10.0)
    np.testing.assert_array_equal(pred.f_tr, 0.0)


def test_rollout_divergence_reports_step():
    basis = LiftedBasis()
    A = np.eye(9) * 1e3
    B = np.zeros((9, 1))
    m = KoopmanModel(basis=basis, A=A, B=B, sample_period=0.025)
    with pytest.raises(RolloutDivergenceError) as exc:
        m.rollout(np.array([1e3, 1e3]), np.zeros(200))
    assert exc.value.step == 100


def step_loop_rollout(basis, A, B, x0, u) -> np.ndarray:
    """The reference the doubling scan replaced: lift once, advance one step
    at a time, project each step. Returns the (len(u) + 1, 2) states."""
    z = basis.lift(x0)
    expect = [x0]
    for k in range(len(u)):
        z = A @ z + B[:, 0] * u[k]
        expect.append(basis.project_many(z[None])[0])
    return np.array(expect)


def assert_matches_step_loop(pred, expect, rtol):
    """Each channel within rtol of that channel's max |value| of the loop."""
    got = np.column_stack([pred.v, pred.f_tr])
    bound = rtol * np.max(np.abs(expect), axis=0)
    assert np.all(np.abs(got - expect) <= bound), np.max(np.abs(got - expect) / bound)


def test_lifted_rollout_matches_step_loop():
    basis = LiftedBasis(scale=(16.0, 1024.0))
    rng = np.random.default_rng(4)
    A = rng.normal(0, 0.3, size=(9, 9))
    B = rng.normal(size=(9, 1))
    m = KoopmanModel(basis=basis, A=A, B=B, sample_period=0.025)
    x0 = np.array([11.5, -230.0])
    u = rng.normal(12.0, 1.0, size=60)
    pred = m.rollout(x0, u)
    # the scan sums the same terms in another order: last bits differ
    assert_matches_step_loop(pred, step_loop_rollout(basis, A, B, x0, u), 1e-12)
    assert pred.v[0] == x0[0] and pred.f_tr[0] == x0[1]
    # rollout skips the constructor's checks; the checked constructor accepts
    # the same columns and keeps every array as it is
    checked = Trajectory(sample_period=pred.sample_period, t=pred.t, v=pred.v, f_tr=pred.f_tr,
                         v_ref=pred.v_ref)
    for name in ("t", "v", "f_tr", "v_ref"):
        np.testing.assert_array_equal(getattr(checked, name), getattr(pred, name))
    np.testing.assert_array_equal(pred.t, np.arange(len(u) + 1) * 0.025)
    np.testing.assert_array_equal(pred.v_ref, np.append(u, u[-1]))


@pytest.mark.parametrize("rho", [0.9, 1.0, 1.02])
@pytest.mark.parametrize("steps", [1, 2, 3, 127, 128, 129, 200, 2000])
def test_scan_rollout_matches_step_loop_at_every_length(steps, rho):
    # lengths on either side of a power of two, where the number of strides
    # changes; a random A is non-normal, scaled to spectral radius rho
    basis = LiftedBasis(scale=(16.0, 1024.0))
    rng = np.random.default_rng(7)
    M = rng.normal(size=(9, 9))
    A = M * (rho / np.max(np.abs(np.linalg.eigvals(M))))
    B = rng.normal(size=(9, 1))
    m = KoopmanModel(basis=basis, A=A, B=B, sample_period=0.025)
    x0 = np.array([11.5, -230.0])
    u = rng.normal(12.0, 1.0, size=steps)
    pred = m.rollout(x0, u)
    assert len(pred) == steps + 1
    assert_matches_step_loop(pred, step_loop_rollout(basis, A, B, x0, u), 1e-12)


def test_refined_scan_keeps_a_non_normal_rollout_at_the_loop_accuracy():
    # squared powers of this A (Schur form with off-diagonal entries of
    # spread 0.6, spectral radius 1.02) carry 1.4e-9 of error into the
    # forecast without the refinement pass, 1e3 times the bound below
    basis = LiftedBasis(scale=(16.0, 1024.0))
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.normal(size=(9, 9)))
    T = np.diag(np.linspace(1.02, 0.5, 9)) + np.triu(rng.normal(0, 0.6, size=(9, 9)), 1)
    A = Q @ T @ Q.T
    B = rng.normal(size=(9, 1))
    x0 = np.array([11.5, -230.0])
    u = rng.normal(12.0, 1.0, size=2000)
    m = KoopmanModel(basis=basis, A=A, B=B, sample_period=0.025)
    assert_matches_step_loop(m.rollout(x0, u), step_loop_rollout(basis, A, B, x0, u), 1e-12)


def test_scan_reports_an_overflowing_power_the_loop_never_forms():
    # A^128 overflows in its first entry, but the state has v = 0 and stays
    # in the decaying coordinates: the loop's states are finite, while the
    # scan multiplies by the infinite power and reports step 128
    basis = LiftedBasis()
    A = np.diag([1e3] + [0.5] * 8)
    B = np.zeros((9, 1))
    x0 = np.array([0.0, 2.0])
    u = np.zeros(200)
    assert np.isfinite(step_loop_rollout(basis, A, B, x0, u)).all()
    m = KoopmanModel(basis=basis, A=A, B=B, sample_period=0.025)
    with pytest.raises(RolloutDivergenceError) as exc:
        m.rollout(x0, u)
    assert exc.value.step == 128
    # short of the first overflowing power the scan agrees with the loop
    pred = m.rollout(x0, u[:127])
    assert_matches_step_loop(pred, step_loop_rollout(basis, A, B, x0, u[:127]), 1e-12)


def test_rollout_requires_inputs():
    m = identity_model()
    with pytest.raises(ValueError):
        m.rollout(np.array([1.0, 0.0]), np.array([]))


def test_rollout_checks_inputs_then_the_initial_state():
    m = identity_model()
    with pytest.raises(ValueError, match="inputs must be a nonempty"):
        m.rollout([np.nan, 0.0, 0.0], [])
    with pytest.raises(ValueError, match="inputs must be finite"):
        m.rollout([np.nan, 0.0], [np.inf])
    with pytest.raises(ValueError, match=r"state must have shape \(2,\), got \(3,\)"):
        m.rollout([1.0, 0.0, 0.0], [12.0])
    with pytest.raises(ValueError, match="state must be finite"):
        m.rollout([np.nan, 0.0], [12.0])
    # a list start state, read as floats, is the forecast's first sample
    pred = m.rollout([10, -0.0], [12.0])
    assert pred.v[0] == 10.0 and math.copysign(1.0, pred.f_tr[0]) == -1.0


def test_save_load_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    basis = LiftedBasis()
    A = rng.normal(size=(9, 9))
    B = rng.normal(size=(9, 1))
    m = KoopmanModel(basis=basis, A=A, B=B, sample_period=0.025,
                     provenance={"source": "test"})
    path = tmp_path / "model.json"
    m.save(path)
    back = KoopmanModel.load(path)
    np.testing.assert_array_equal(back.A, m.A)
    np.testing.assert_array_equal(back.B, m.B)
    assert back.basis.monomials == m.basis.monomials
    assert back.sample_period == m.sample_period
    assert back.provenance["source"] == "test"


def test_model_rejects_two_column_B():
    with pytest.raises(ValueError, match=r"B must be \(9, 1\)"):
        KoopmanModel(basis=LiftedBasis(), A=np.zeros((9, 9)), B=np.zeros((9, 2)),
                     sample_period=0.025)


@pytest.mark.parametrize("scaled", [False, True], ids=["raw", "pow2"])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_save_load_save_is_byte_identical(tmp_path, degree, scaled):
    scale = (pow2_scale(17.0, "v"), pow2_scale(-5100.0, "f_tr")) if scaled else None
    basis = LiftedBasis(max_degree=degree, scale=scale)
    n = basis.lifted_dim
    rng = np.random.default_rng(degree)
    m = KoopmanModel(basis=basis, A=rng.normal(size=(n, n)), B=rng.normal(size=(n, 1)),
                     sample_period=0.025, provenance={"source": "test"})
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    m.save(first)
    KoopmanModel.load(first).save(second)
    assert first.read_bytes() == second.read_bytes()
    # the file still spells out the fixed shape
    doc = json.loads(first.read_text())
    assert doc["input_dim"] == 1
    assert doc["basis"]["state_dim"] == 2
    assert doc["basis"]["monomials"] == [list(e) for e in basis.monomials]
    assert len(doc["basis"]["monomials"]) == (degree + 1) * (degree + 2) // 2 - 1


def test_load_rejects_wrong_kind(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"kind": "something_else", "schema_version": 1}))
    with pytest.raises(ModelFileError):
        KoopmanModel.load(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{not json")
    with pytest.raises(ModelFileError):
        KoopmanModel.load(path)


def test_load_rejects_bad_shapes(tmp_path):
    m = identity_model()
    path = tmp_path / "m.json"
    m.save(path)
    doc = json.loads(path.read_text())
    doc["A"] = [[1.0, 2.0]]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFileError):
        KoopmanModel.load(path)



@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.pop("A"), "A must be"),
    (lambda doc: doc["A"][0].pop(), "inhomogeneous"),
    (lambda doc: doc["A"][0].__setitem__(0, "x"), "could not convert"),
    (lambda doc: doc["B"][0].__setitem__(0, 1e999), "finite"),
    (lambda doc: doc.pop("sample_period"), "got None"),
    (lambda doc: doc.update(sample_period="0.025"), "got '0.025'"),
    (lambda doc: doc.update(sample_period=0), "got 0"),
    (lambda doc: doc.update(sample_period=True), "got True"),
    (lambda doc: doc.update(provenance=[1]), "provenance must be an object"),
], ids=["no_A", "ragged_A", "text_in_A", "infinite_B", "no_sample_period",
        "text_sample_period", "zero_sample_period", "boolean_sample_period",
        "list_provenance"])
def test_load_rejects_what_the_constructor_rejects(tmp_path, edit, message):
    path = tmp_path / "m.json"
    identity_model().save(path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFileError, match=message):
        KoopmanModel.load(path)

def test_stacked_roundtrip():
    m = identity_model()
    theta = m.stacked()
    assert theta.shape == (9, 10)
    m2 = KoopmanModel.from_stacked(m.basis, theta, m.sample_period)
    np.testing.assert_array_equal(m2.A, m.A)
    np.testing.assert_array_equal(m2.B, m.B)


# ------------------------------------------------------------ number rule

CONFIG_BASES = [
    PowertrainParams(),
    EcoDpConfig(),
    VehicleParams(mass=2200.0, a0=160.0, a1=2.5, a2=0.45, f_min=-9000.0, f_max=6500.0),
    DistractionWindow(t_start=10.0, t_end=25.0),
    DriverParams(),
    FitConfig(),
    OnlineSettings(),
    Roster(),
    EvalSettings(),
]
BAD_VALUES = {
    "float": [("true", True), ("nan", math.nan), ("inf", math.inf), ("1e400", 10**400)],
    "int": [("true", True), ("fraction", 2.5)],
    "tuple[float, ...]": [("true", (5.0, True)), ("nan", (math.nan,)), ("inf", (5.0, math.inf)),
                          ("1e400", (10**400,)), ("str", ("5",)), ("not-a-tuple", 5.0)],
}
NUMBER_CASES = [
    pytest.param(base, f.name, value, f"^{f.name} must be "
                 + ("an integer, got " if f.type == "int" else "finite, got "),
                 id=f"{type(base).__name__}.{f.name}-{label}")
    for base in CONFIG_BASES for f in dataclasses.fields(base)
    for label, value in BAD_VALUES.get(f.type.removesuffix(" | None"), [])
]


def test_every_config_class_has_numeric_fields():
    # a module without `from __future__ import annotations` would leave the
    # annotations as classes, and the rule (and these cases) would skip them
    classes = {type(case.values[0]) for case in NUMBER_CASES}
    assert classes == {type(base) for base in CONFIG_BASES}


@pytest.mark.parametrize("base, name, value, message", NUMBER_CASES)
def test_config_number_rule_names_the_field(base, name, value, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(base, **{name: value})


@pytest.mark.parametrize("value, kind, expected", [
    (np.float64(0.5), numbers.Real, True),
    (np.int64(3), numbers.Integral, True),
    (3, numbers.Real, True),
    (np.True_, numbers.Real, False),
    (False, numbers.Integral, False),
    (3.0, numbers.Integral, False),
    ("1", numbers.Real, False),
    (-math.inf, numbers.Real, False),
    (-10**400, numbers.Integral, False),
])
def test_is_number(value, kind, expected):
    assert _is_number(value, kind) is expected


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_written_files_follow_the_umask(tmp_path, umask, mode):
    path = tmp_path / "out.json"
    old = os.umask(umask)
    try:
        _write_json(str(path), {"a": 1.5})
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_text() == '{\n  "a": 1.5\n}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
