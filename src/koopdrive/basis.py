"""Polynomial observable lifting for the driver-response state.

The physical state of the driver model is the pair (vehicle speed v in m/s,
traction force f_tr in N, signed so that braking is negative). Lifting maps
this state onto a dictionary of monomials so that the closed-loop response of
a driver to an advisory speed can be approximated by a linear recursion in
the lifted space. The first entries of the dictionary are always the raw
state variables themselves, which keeps the projection back to physical
coordinates a plain row selection.

The dictionary contains every monomial of total degree 1 through
``max_degree``; there is no constant observable. For the default degree 3
the dictionary has nine entries and reads

    v, f, v*f, v**2, f**2, v**2*f, v*f**2, v**3, f**3

Ordering rule: the identity monomials v, f come first, then each higher
degree block in turn; a degree-d block lists the terms that mix both
variables by falling power of v, v**(d-1)*f through v*f**(d-1), then v**d,
then f**d. The monomials are built in this order, not sorted, and follow
from ``max_degree`` alone, so a basis is rebuilt exactly from its degree and
scale. Their count, (d + 1)(d + 2)/2 - 1 for degree d, is _monomial_count's
alone, so a degree is sized before its basis is built (the model file check
and the fit's pair-count check read it).

``lift_many(v, f)`` is the one lift kernel. It takes the v and f columns,
stacks them into one (2, k) array, divides it by the scale column in place,
raises both channels to the powers 0..max_degree in one call and multiplies
the two gathered columns of each monomial: the same ``pow`` calls and the
same single multiply as a product over v**a and f**b, so the bits are that
product's. It checks nothing: ``lift`` checks its one state and calls it,
and model._pairs, which lifts every fit block and every tick, hands it the
columns of a Trajectory, finite by construction.

Every basis divides the state by its scale before lifting, which keeps the
monomials well conditioned: one power of two per channel, the nearest to its
training peak (pow2_scale), so project_many(lift_many(v, f)) is the state
(v, f) bit for bit, signed zeros included, wherever x / scale is zero or a
normal float. A subnormal quotient (below 2**-1022 in magnitude) loses its
low bits: at scale (16, 4096) a speed of 5e-324 comes back as 0.0 and one
of 3e-320 as 3.004e-320. The default unit scale 2**0 takes the same path and
lifts raw units. Peaks of 2**1023.5 and above have no such scale and raise
ValueError. The model file's form of a basis is model.py's to decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LiftedBasis",
    "pow2_scale",
]


def pow2_scale(peak: float, name: str) -> float:
    """The power of two nearest to a channel's peak magnitude |peak|, in log2.

    A zero or non-finite peak gets unit scale. A peak that rounds to 2**1024
    or more has no float power-of-two scale and raises ValueError naming the
    channel.
    """
    m = abs(float(peak))
    if m == 0.0 or not math.isfinite(m):
        return 1.0
    exponent = round(math.log2(m))
    if exponent > 1023:
        raise ValueError(f"peak |{name}| = {m!r} rounds to 2**{exponent}, beyond "
                         f"the largest finite power-of-two scale 2**1023")
    return 2.0 ** exponent


def _monomial_count(max_degree: int) -> int:
    """The number of monomials of (v, f) of degree 1..max_degree."""
    return (max_degree + 1) * (max_degree + 2) // 2 - 1


@dataclass(frozen=True)
class LiftedBasis:
    """Monomials of (v, f_tr) of degree 1..max_degree, identity pair first,
    of the state divided by its scale (one power of two per channel)."""

    max_degree: int = 3
    scale: tuple[float, float] = (1.0, 1.0)
    monomials: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.max_degree < 1:
            raise ValueError(f"max_degree must be >= 1, got {self.max_degree}")
        # a positive finite float is a power of two iff its mantissa is 1/2
        if len(self.scale) != 2 or not all(isinstance(s, float) and 0.0 < s < math.inf
                                           and math.frexp(s)[0] == 0.5 for s in self.scale):
            raise ValueError(f"scale must be two positive finite powers of two, "
                             f"got {self.scale!r}")
        object.__setattr__(self, "_scale_column", np.array(self.scale)[:, None])
        # each degree block: the mixed terms by falling power of v, then v**d, then f**d
        monomials = tuple((a, d - a) for d in range(1, self.max_degree + 1)
                          for a in (*range(d - 1, 0, -1), d, 0))
        object.__setattr__(self, "monomials", monomials)
        # the (2, k, d + 1) power array holds v**0..v**d, then f**0..f**d
        object.__setattr__(self, "_powers", np.arange(self.max_degree + 1, dtype=float))
        object.__setattr__(self, "_v_exponents", np.array([a for a, _ in monomials]))
        object.__setattr__(self, "_f_exponents", np.array([b for _, b in monomials]))

    @property
    def lifted_dim(self) -> int:
        return len(self.monomials)

    def lift(self, x) -> np.ndarray:
        """Map one physical state to its lifted image, shape (lifted_dim,)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (2,):
            raise ValueError(f"state must have shape (2,), got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"state must be finite, got {x}")
        return self.lift_many(x[:1], x[1:])[0]

    def lift_many(self, v: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Lift the states (v[i], f[i]) of two float columns of one length k;
        returns (k, lifted_dim). The one lift kernel: it checks nothing, so
        its callers are lift, which checks its state, and model._pairs,
        whose Trajectory is finite by construction."""
        scaled = np.array((v, f))
        scaled /= self._scale_column
        # each power of v and f once, in one call, then one product per
        # monomial: the same pow calls and the same single multiply as a
        # product over v**a, f**b
        powers = scaled[:, :, None] ** self._powers
        return np.multiply(powers[0].take(self._v_exponents, axis=1),
                           powers[1].take(self._f_exponents, axis=1))

    def project_many(self, Z: np.ndarray) -> np.ndarray:
        arr = np.asarray(Z, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.lifted_dim:
            raise ValueError(f"expected (k, {self.lifted_dim}) array, got {arr.shape}")
        return arr[:, :2] * self._scale_column.T
