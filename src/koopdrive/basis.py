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
degree block in turn; inside a degree block, monomials that mix both
variables precede pure powers, and otherwise exponent pairs are sorted
lexicographically descending. The monomials follow from ``max_degree`` by
this rule, so a basis is rebuilt exactly from its degree and scaler.

``lift_many`` raises both channels to the powers 0..max_degree in one call
and multiplies the two gathered columns of each monomial: the same ``pow``
calls and the same single multiply as a product over v**a and f**b, so the
bits are that product's. The scaler skips subtracting offsets that are all
+0.0, since x - (+0.0) is x bit for bit. A power-of-two scale exists only
for peaks below 2**1023.5; a larger training peak raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

__all__ = [
    "StateScaler",
    "LiftedBasis",
]


def _state_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (2,):
        raise ValueError(f"state must have shape (2,), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"state must be finite, got {arr}")
    return arr


@dataclass(frozen=True)
class StateScaler:
    """Optional affine pre-scaler applied to states before lifting.

    Each state channel is mapped to (x - offset) / scale. The default
    construction picks power-of-two scales and zero offsets, so that scaling
    and unscaling are exact in binary floating point and the lift/project
    round trip stays bit-exact.
    """

    scale: tuple[float, ...]
    offset: tuple[float, ...]

    def __post_init__(self):
        if len(self.scale) != len(self.offset):
            raise ValueError("scale and offset must have the same length")
        for s in self.scale:
            if not math.isfinite(s) or s == 0.0:
                raise ValueError(f"scale entries must be finite and nonzero, got {self.scale}")
        for o in self.offset:
            if not math.isfinite(o):
                raise ValueError(f"offset entries must be finite, got {self.offset}")
        object.__setattr__(self, "_scale", np.array(self.scale, dtype=float))
        object.__setattr__(self, "_offset", np.array(self.offset, dtype=float))
        # x - (+0.0) is x bit for bit, -0.0 included, so apply skips a
        # subtraction of +0.0 offsets; x * s + 0.0 turns -0.0 into +0.0, so
        # invert always adds
        object.__setattr__(self, "_shifts", not all(o == 0.0 and math.copysign(1.0, o) > 0
                                                    for o in self.offset))

    @classmethod
    def pow2_from_data(cls, states: np.ndarray, names=None) -> "StateScaler":
        """Build a scaler from samples, rounding magnitudes to powers of two.

        ``states`` has one row per sample. Channels that are identically zero
        get unit scale. A channel whose peak magnitude rounds to 2**1024 or
        more has no float power-of-two scale and raises ValueError, naming
        the channel by its entry of ``names`` if given, else by its index.
        """
        arr = np.asarray(states, dtype=float)
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ValueError("need a nonempty 2-D sample array to build a scaler")
        scales = []
        for j in range(arr.shape[1]):
            m = float(np.max(np.abs(arr[:, j])))
            if m == 0.0 or not math.isfinite(m):
                scales.append(1.0)
                continue
            exponent = round(math.log2(m))
            if exponent > 1023:
                channel = names[j] if names is not None else f"channel {j}"
                raise ValueError(f"peak |{channel}| = {m!r} rounds to 2**{exponent}, beyond "
                                 f"the largest finite power-of-two scale 2**1023")
            scales.append(2.0 ** exponent)
        return cls(scale=tuple(scales), offset=tuple(0.0 for _ in scales))

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._shifts:
            x = x - self._offset
        return x / self._scale

    def invert(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) * self._scale + self._offset

    def to_dict(self) -> dict:
        return {"scale": list(self.scale), "offset": list(self.offset)}

    @classmethod
    def from_dict(cls, d: dict) -> "StateScaler":
        return cls(scale=tuple(float(s) for s in d["scale"]),
                   offset=tuple(float(o) for o in d["offset"]))


def _monomial_order_key(exponents: tuple[int, ...]):
    # degree block first; mixed terms before pure powers; then lex descending
    degree = sum(exponents)
    nonzero = sum(1 for e in exponents if e > 0)
    return (degree, -nonzero, tuple(-e for e in exponents))


def _enumerate_exponents(max_degree: int) -> tuple[tuple[int, int], ...]:
    exps = [e for e in product(range(max_degree + 1), repeat=2) if 1 <= sum(e) <= max_degree]
    exps.sort(key=_monomial_order_key)
    return tuple(exps)


@dataclass(frozen=True)
class LiftedBasis:
    """Monomials of (v, f_tr) of degree 1..max_degree, identity pair first."""

    max_degree: int = 3
    scaler: StateScaler | None = None
    monomials: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.max_degree < 1:
            raise ValueError(f"max_degree must be >= 1, got {self.max_degree}")
        if self.scaler is not None and len(self.scaler.scale) != 2:
            raise ValueError("scaler must have two channels, one per state")
        monomials = _enumerate_exponents(self.max_degree)
        object.__setattr__(self, "monomials", monomials)
        # columns of the (k, 2 (d + 1)) power array: v**0..v**d, then f**0..f**d
        object.__setattr__(self, "_powers", np.arange(self.max_degree + 1, dtype=float))
        object.__setattr__(self, "_v_cols", np.array([a for a, _ in monomials]))
        object.__setattr__(self, "_f_cols",
                           np.array([self.max_degree + 1 + b for _, b in monomials]))

    @property
    def lifted_dim(self) -> int:
        return len(self.monomials)

    def lift(self, x) -> np.ndarray:
        """Map one physical state to its lifted image, shape (lifted_dim,)."""
        return self.lift_many(_state_array(x)[None, :])[0]

    def lift_many(self, states: np.ndarray) -> np.ndarray:
        """Lift a batch of states, one per row; returns (k, lifted_dim)."""
        arr = np.asarray(states, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"expected (k, 2) state array, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("states must be finite")
        if self.scaler is not None:
            arr = self.scaler.apply(arr)
        # each power of v and f once, in one call, then one product per
        # monomial: the same pow calls and the same single multiply as a
        # product over v**a, f**b
        powers = (arr[:, :, None] ** self._powers).reshape(len(arr), -1)
        return powers.take(self._v_cols, axis=1) * powers.take(self._f_cols, axis=1)

    def project_many(self, Z: np.ndarray) -> np.ndarray:
        arr = np.asarray(Z, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.lifted_dim:
            raise ValueError(f"expected (k, {self.lifted_dim}) array, got {arr.shape}")
        X = arr[:, :2]
        if self.scaler is not None:
            X = self.scaler.invert(X)
        return X

    def to_dict(self) -> dict:
        return {
            "state_dim": 2,
            "max_degree": self.max_degree,
            "monomials": [list(e) for e in self.monomials],
            "scaler": self.scaler.to_dict() if self.scaler is not None else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LiftedBasis":
        """Rebuild a basis, rejecting any shape but the canonical one."""
        if d["state_dim"] != 2:
            raise ValueError(f"state_dim must be 2, got {d['state_dim']!r}")
        scaler = d.get("scaler")
        basis = cls(max_degree=int(d["max_degree"]),
                    scaler=StateScaler.from_dict(scaler) if scaler else None)
        canonical = [list(e) for e in basis.monomials]
        if d["monomials"] != canonical:
            raise ValueError(f"monomials must be {canonical} for degree {basis.max_degree}")
        return basis
