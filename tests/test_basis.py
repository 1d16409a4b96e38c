import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from koopdrive.basis import LiftedBasis, _monomial_count, pow2_scale
from koopdrive.model import KoopmanModel, ModelFileError


def test_monomial_ordering_degree3():
    basis = LiftedBasis()
    assert basis.monomials == (
        (1, 0), (0, 1),
        (1, 1), (2, 0), (0, 2),
        (2, 1), (1, 2), (3, 0), (0, 3),
    )
    assert basis.lifted_dim == 9


def sorted_monomials(max_degree):
    """The order by its sort rule: degree block first, mixed terms before
    pure powers, then exponent pairs lexicographically descending."""
    exps = [(a, b) for a in range(max_degree + 1) for b in range(max_degree + 1)
            if 1 <= a + b <= max_degree]
    return tuple(sorted(exps, key=lambda e: (sum(e), -sum(x > 0 for x in e), -e[0], -e[1])))


def test_built_order_is_the_sort_rule():
    for degree in range(1, 61):
        basis = LiftedBasis(max_degree=degree)
        assert basis.monomials == sorted_monomials(degree), degree
        assert basis.lifted_dim == _monomial_count(degree), degree


def test_lift_known_point():
    basis = LiftedBasis()
    z = basis.lift(np.array([2.0, 3.0]))
    np.testing.assert_array_equal(z, [2, 3, 6, 4, 9, 12, 18, 8, 27])


def test_identity_block_first():
    basis = LiftedBasis()
    # the first two observables are the raw state, so projection is a slice
    x = np.array([1.7, -4.2])
    z = basis.lift(x)
    np.testing.assert_array_equal(z[:2], x)
    np.testing.assert_array_equal(basis.project_many(z[None]), x[None])


def test_lift_many_matches_lift():
    basis = LiftedBasis()
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(50, 2)) * [20, 4000]
    Z = basis.lift_many(*pts.T)
    assert Z.shape == (50, 9)
    for i in range(50):
        np.testing.assert_array_equal(Z[i], basis.lift(pts[i]))


def test_project_many_roundtrip():
    basis = LiftedBasis()
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(30, 2))
    np.testing.assert_array_equal(basis.project_many(basis.lift_many(*pts.T)), pts)


@given(st.floats(-50, 50), st.floats(-9000, 9000))
@settings(max_examples=60, deadline=None)
def test_scaling_law_per_degree(v, f):
    # z(c*x) entrywise equals c^deg(z) * z(x) for any scalar c
    basis = LiftedBasis()
    c = 2.0
    z1 = basis.lift(np.array([v, f]))
    z2 = basis.lift(np.array([c * v, c * f]))
    degs = np.array([sum(m) for m in basis.monomials], dtype=float)
    expect = z1 * c ** degs
    np.testing.assert_allclose(z2, expect, rtol=1e-12, atol=1e-12)


def test_pow2_scaler_bit_exact_roundtrip():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(200, 2)) * [17.0, 5100.0]
    scale = tuple(pow2_scale(peak, name)
                  for peak, name in zip(np.max(np.abs(data), axis=0), ("v", "f_tr")))
    assert all(np.log2(s) == int(np.log2(s)) for s in scale)
    basis = LiftedBasis(scale=scale)
    # power-of-two scaling keeps project(lift(x)) == x bitwise
    Z = basis.lift_many(*data.T)
    np.testing.assert_array_equal(basis.project_many(Z), data)


def test_pow2_round_trip_keeps_every_byte_signed_zeros_included():
    # dividing and multiplying by a power of two is exact, and without an
    # offset to add back, -0.0 comes back as -0.0
    x = np.array([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [1.5, -2.0], [-0.0, 7.25],
                  [13.9, -4871.5], [-0.3, 1e-30]])
    for scale in ((16.0, 512.0), (0.5, 2.0 ** -20), (2.0 ** 40, 1.0)):
        basis = LiftedBasis(scale=scale)
        assert basis.project_many(basis.lift_many(*x.T)).tobytes() == x.tobytes()


def test_pow2_scaler_rejects_peaks_beyond_the_largest_power():
    # every in-range peak keeps the scale 2**round(log2(peak))
    for peak in (1e-300, 0.3, 17.0, 5100.0, 2.0 ** 1023, 2.0 ** 1023.49):
        assert pow2_scale(-peak, "f_tr") == 2.0 ** round(math.log2(peak))
    assert pow2_scale(0.0, "v") == pow2_scale(-0.0, "v") == 1.0
    # a peak at or above 2**1023.5 rounds to 2**1024, which overflows a float
    with pytest.raises(ValueError, match=r"\|v\| = 1.5e\+308"):
        pow2_scale(1.5e308, "v")
    with pytest.raises(ValueError, match=r"\|f_tr\| = 1.5e\+308"):
        pow2_scale(-1.5e308, "f_tr")


@pytest.mark.parametrize("scale", [(3.0, 1.0), (16.0, -16.0), (0.0, 1.0), (math.inf, 1.0),
                                   (math.nan, 1.0), (16, 512.0), (16.0,), (1.0, 1.0, 1.0)],
                         ids=["three", "negative", "zero", "inf", "nan", "int", "one",
                              "three_channels"])
def test_scale_must_be_two_positive_powers_of_two(scale):
    with pytest.raises(ValueError, match="two positive finite powers of two"):
        LiftedBasis(scale=scale)


def write_model(path, basis, edit=None):
    """Save a model of basis to path, then apply edit to its basis block."""
    n = basis.lifted_dim
    KoopmanModel(basis=basis, theta=np.eye(n, n + 1), sample_period=0.025).save(path)
    if edit is not None:
        doc = json.loads(path.read_text())
        edit(doc["basis"])
        path.write_text(json.dumps(doc))
    return path


def test_scaler_dict_roundtrip(tmp_path):
    # the model file is the basis's one serialized form: save writes the
    # scale with a zero offset and load rebuilds the same basis
    for basis, scale in ((LiftedBasis(scale=(16.0, 4096.0)), [16.0, 4096.0]),
                         (LiftedBasis(), [1.0, 1.0])):
        path = write_model(tmp_path / "m.json", basis)
        assert json.loads(path.read_text())["basis"]["scaler"] == {"scale": scale,
                                                                   "offset": [0.0, 0.0]}
        assert KoopmanModel.load(path).basis == basis


def with_scaler(scale=(16.0, 4096.0), offset=(0.0, 0.0)):
    return lambda block: block.update(scaler={"scale": list(scale), "offset": list(offset)})


@pytest.mark.parametrize("edit, message", [
    (lambda block: block.update(scaler=None), "scaler must be an object, got None"),
    (lambda block: block.pop("scaler"), "'scaler'"),
    (lambda block: block.update(scaler={}), "'offset'"),
    (lambda block: block["scaler"].pop("scale"), "'scale'"),
    *[(with_scaler(offset=offset), re.escape(f"scaler offset must be [0.0, 0.0], got {offset!r}"))
      for offset in ([1.0, 0.0], [0.0], [False, 0.0], ["0", 0.0])],
    *[(with_scaler(scale=scale), "scale must be two positive finite powers of two")
      for scale in ([True, 4096.0], ["16", 4096.0], [16, 4096.0], [3.0, 4096.0],
                    [-16.0, 4096.0], [16.0])],
], ids=["null_scaler", "no_scaler", "empty_scaler", "no_scale", "offset_1", "offset_short",
        "offset_false", "offset_text", "scale_true", "scale_text", "scale_int", "scale_3",
        "scale_negative", "scale_short"])
def test_model_file_refuses_another_scaler(tmp_path, edit, message):
    # every scaler the file format does not write is refused on load
    path = write_model(tmp_path / "m.json", LiftedBasis(scale=(16.0, 4096.0)), edit)
    with pytest.raises(ModelFileError, match="invalid basis metadata: " + message):
        KoopmanModel.load(path)


def test_scaled_lift_magnitudes():
    basis = LiftedBasis(scale=(16.0, 4096.0))
    z = basis.lift(np.array([16.0, 4096.0]))
    # every scaled monomial of the unit corner is exactly 1
    np.testing.assert_array_equal(z, np.ones(9))


def test_physical_state_validation():
    basis = LiftedBasis()
    with pytest.raises(ValueError):
        basis.lift(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        basis.lift(np.array([1.0, np.inf]))


def test_lift_rejects_wrong_shape():
    basis = LiftedBasis()
    with pytest.raises(ValueError):
        basis.lift(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        basis.project_many(np.ones((1, 4)))


def test_degree_bounds():
    with pytest.raises(ValueError):
        LiftedBasis(max_degree=0)
    b1 = LiftedBasis(max_degree=1)
    assert b1.monomials == ((1, 0), (0, 1))
    b2 = LiftedBasis(max_degree=2)
    assert b2.lifted_dim == 5


@given(st.integers(1, 4))
@settings(max_examples=4, deadline=None)
def test_dim_formula(deg):
    # monomials of total degree 1..deg in two variables, no constant
    basis = LiftedBasis(max_degree=deg)
    assert basis.lifted_dim == (deg + 1) * (deg + 2) // 2 - 1
