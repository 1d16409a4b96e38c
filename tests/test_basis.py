import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from koopdrive.basis import LiftedBasis, StateScaler


def test_monomial_ordering_degree3():
    basis = LiftedBasis()
    assert basis.monomials == (
        (1, 0), (0, 1),
        (1, 1), (2, 0), (0, 2),
        (2, 1), (1, 2), (3, 0), (0, 3),
    )
    assert basis.lifted_dim == 9


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
    Z = basis.lift_many(pts)
    assert Z.shape == (50, 9)
    for i in range(50):
        np.testing.assert_array_equal(Z[i], basis.lift(pts[i]))


def test_project_many_roundtrip():
    basis = LiftedBasis()
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(30, 2))
    np.testing.assert_array_equal(basis.project_many(basis.lift_many(pts)), pts)


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
    scaler = StateScaler.pow2_from_data(data)
    assert all(np.log2(s) == int(np.log2(s)) for s in scaler.scale)
    basis = LiftedBasis(scaler=scaler)
    # power-of-two scaling keeps project(lift(x)) == x bitwise
    Z = basis.lift_many(data)
    np.testing.assert_array_equal(basis.project_many(Z), data)


def test_pow2_scaler_rejects_peaks_beyond_the_largest_power():
    # every in-range peak keeps the scale 2**round(log2(peak))
    for peak in (1e-300, 0.3, 17.0, 5100.0, 2.0 ** 1023, 2.0 ** 1023.49):
        scaler = StateScaler.pow2_from_data(np.array([[1.0, -peak]]))
        assert scaler.scale == (1.0, 2.0 ** round(math.log2(peak)))
    # a peak at or above 2**1023.5 rounds to 2**1024, which overflows a float
    with pytest.raises(ValueError, match="channel 1"):
        StateScaler.pow2_from_data(np.array([[1.0, 1.5e308]]))
    with pytest.raises(ValueError, match=r"\|f_tr\| = 1.5e\+308"):
        StateScaler.pow2_from_data(np.array([[1.0, -1.5e308]]), names=("v", "f_tr"))


@pytest.mark.parametrize("offset", [(0.0, 0.0), (-0.0, 0.0), (1.5, -2.0)])
def test_scaler_apply_is_the_affine_map_bit_for_bit(offset):
    # apply skips subtracting +0.0 offsets, which must change no bit (-0.0 included)
    scaler = StateScaler(scale=(16.0, 3.0), offset=offset)
    x = np.array([[-0.0, 0.0], [0.0, -0.0], [1.5, -2.0], [-5e-324, 7.25]])
    expect = (x - np.array(offset)) / np.array([16.0, 3.0])
    assert scaler.apply(x).tobytes() == expect.tobytes()
    assert scaler.invert(x).tobytes() == (x * np.array([16.0, 3.0]) + offset).tobytes()


def test_scaler_dict_roundtrip():
    scaler = StateScaler(scale=(16.0, 4096.0), offset=(0.0, 0.0))
    back = StateScaler.from_dict(scaler.to_dict())
    assert back == scaler


def test_scaled_lift_magnitudes():
    scaler = StateScaler(scale=(16.0, 4096.0), offset=(0.0, 0.0))
    basis = LiftedBasis(scaler=scaler)
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
