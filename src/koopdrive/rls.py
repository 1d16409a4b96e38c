"""Recursive least-squares adaptation of the lifted dynamics.

The stacked parameter block theta = [A B], with B the single advisory-speed
column, is refreshed from streaming transition pairs with exponential
forgetting. For a pair (x_k, u_k, x_next) the regressor is
z = [psi(x_k); u_k] and the update reads

    eps   = psi(x_next) - theta z
    K     = P z / (lambda + z' P z)
    theta = theta + eps K'
    P     = (P - K z' P) / lambda,  then re-symmetrized

With lambda = 1 and P(0) = kappa * I this is exactly sequential ridge
regression with penalty 1/kappa, which is what the batch solver computes;
lambda < 1 discounts old data with the usual 1/(1 - lambda) sample memory.
No covariance resetting or windup protection is applied beyond the
forgetting factor itself.

A tick (update_tick) checks that the state has lifted_dim + 1 columns,
validates and lifts its whole buffer once, then applies the pairs one at a
time through rls_update's internal lifted= fast path. The per-pair
arithmetic is the same as for a validating rls_update call, so the result
is bit-identical to applying the pairs one by one.

The kernel works on 10-wide arrays, where numpy's per-call overhead costs
more than the arithmetic. It multiplies with ndarray.dot, which makes the
same BLAS call as @ without the ufunc dispatch, forms the outer products by
broadcasting (the products np.outer computes) and takes the error norm as
sqrt(eps . eps), which is how np.linalg.norm computes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import LiftedBasis
from .model import KoopmanModel, Trajectory

__all__ = ["OnlineSettings", "RlsState", "RlsUpdateRejectedError", "init_rls", "rls_update",
           "update_tick", "stream_ticks", "snapshot_model"]


class RlsUpdateRejectedError(ArithmeticError):
    """An update was refused on numerical grounds: a non-positive gain
    denominator (the covariance is no longer positive definite) or a
    non-finite prediction error. The state is left untouched."""


@dataclass(frozen=True)
class OnlineSettings:
    """Forgetting factor and tick cadence for streaming adaptation.

    The forgetting factor applies per sample.  At 40 Hz a per-sample
    0.99737 discounts one second of history by about 0.9; per-sample
    factors far below that inflate the covariance without bound on
    weakly exciting driving data.
    """

    lam: float = 0.99737
    cadence_s: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.lam <= 1.0):
            raise ValueError(f"forgetting factor must be in (0, 1], got {self.lam}")
        if not (math.isfinite(self.cadence_s) and self.cadence_s > 0):
            raise ValueError(f"cadence must be positive and finite, got {self.cadence_s}")

    def tick_steps(self, sample_period: float) -> int:
        """Transition pairs per tick at this cadence, at least one."""
        return max(int(round(self.cadence_s / sample_period)), 1)


@dataclass
class RlsState:
    """Mutable adaptation state: parameter block, covariance, forgetting."""

    theta: np.ndarray
    P: np.ndarray
    lam: float
    update_count: int = 0

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        self.P = np.asarray(self.P, dtype=float)
        if self.theta.ndim != 2:
            raise ValueError("theta must be a 2-D block [A B]")
        p = self.theta.shape[1]
        if self.P.shape != (p, p):
            raise ValueError(f"P must be ({p}, {p}), got {self.P.shape}")
        if not (0.0 < self.lam <= 1.0):
            raise ValueError(f"forgetting factor must be in (0, 1], got {self.lam}")
        if not (np.all(np.isfinite(self.theta)) and np.all(np.isfinite(self.P))):
            raise ValueError("theta and P must be finite")

    @property
    def n_features(self) -> int:
        return self.theta.shape[1]


def init_rls(model: KoopmanModel, lam: float, p0_scale: float | None = None) -> RlsState:
    """Start adaptation from a fitted model.

    P is initialized to I / lambda by default; pass p0_scale to use
    p0_scale * I instead (large values make the first updates behave like an
    unregularized batch fit).
    """
    if not (0.0 < lam <= 1.0):
        raise ValueError(f"forgetting factor must be in (0, 1], got {lam}")
    scale = (1.0 / lam) if p0_scale is None else float(p0_scale)
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"p0_scale must be positive and finite, got {p0_scale}")
    p = model.lifted_dim + 1
    return RlsState(theta=model.stacked().copy(), P=np.eye(p) * scale, lam=lam)


def rls_update(state: RlsState, basis: LiftedBasis, x_k, u_k, x_next, *,
               lifted: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """Apply one transition pair in place; returns the prediction error norm.

    All quantities are validated before any mutation, so a rejected update
    leaves the state exactly as it was. Malformed inputs (wrong shape or
    non-finite) raise ValueError; a non-positive gain denominator or a
    non-finite prediction error raises RlsUpdateRejectedError.

    lifted=(z, psi_next) is update_tick's fast path: the regressor
    [psi(x_k); u_k] and psi(x_next), already validated and lifted by the
    caller. The raw x_k, u_k and x_next are then not read.
    """
    if lifted is None:
        psi_k = basis.lift(x_k)
        psi_next = basis.lift(x_next)
        u_arr = np.asarray(u_k, dtype=float)
        if u_arr.shape != (1,):
            raise ValueError(f"input must have shape (1,), got {u_arr.shape}")
        if not np.all(np.isfinite(u_arr)):
            raise ValueError(f"input must be finite, got {u_arr}")
        z = np.concatenate([psi_k, u_arr])
    else:
        z, psi_next = lifted

    Pz = state.P.dot(z)
    denom = state.lam + float(z.dot(Pz))
    if not math.isfinite(denom) or denom <= 0.0:
        raise RlsUpdateRejectedError(f"update rejected: gain denominator is {denom}")
    eps = psi_next - state.theta.dot(z)
    sq = float(eps.dot(eps))
    # sq is finite only if eps is; a finite eps whose square overflows passes
    if not math.isfinite(sq) and not np.all(np.isfinite(eps)):
        raise RlsUpdateRejectedError("update rejected: non-finite prediction error")

    K = Pz / denom
    state.theta += eps[:, None] * K  # the outer product eps K'
    # z' P equals (P z)' while P stays symmetric, which re-symmetrizing enforces
    P_new = (state.P - K[:, None] * Pz) / state.lam
    state.P = 0.5 * (P_new + P_new.T)
    state.update_count += 1
    return math.sqrt(sq)


def _buffer_rows(buffer) -> np.ndarray:
    if isinstance(buffer, Trajectory):
        return np.column_stack([buffer.v, buffer.f_tr, buffer.v_ref])
    arr = np.asarray(buffer, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"buffer must be a Trajectory or a (k, 3) array, got {arr.shape}")
    return arr


def update_tick(state: RlsState, basis: LiftedBasis, buffer) -> np.ndarray:
    """Apply one tick's worth of buffered samples in time order.

    The buffer holds rows (v, f_tr, v_ref) and should include the last sample
    seen before the tick, so a tick covering 1 s of 40 Hz data carries 41
    rows and produces 40 updates. A buffer with fewer than two rows leaves
    the state unchanged. Returns the per-pair prediction error norms. A
    failing pair aborts the tick with the same exception type, naming the
    pair's index in the buffer; the pairs before it stay applied.

    A state whose width is not basis.lifted_dim + 1 raises ValueError before
    any pair is applied. The buffer is validated and lifted once: the pairs
    before the first malformed one run through rls_update's lifted fast
    path, and the malformed pair through its validating path, which raises.
    """
    if state.n_features != basis.lifted_dim + 1:
        raise ValueError(f"state has {state.n_features} columns, expected "
                         f"{basis.lifted_dim + 1} for this basis")
    rows = _buffer_rows(buffer)
    if len(rows) < 2:
        return np.empty(0)
    n_pairs = len(rows) - 1
    # pair i reads the states of rows i and i + 1 and the input of row i
    finite = np.isfinite(rows)
    ok = finite[:-1, :2].all(axis=1) & finite[1:, :2].all(axis=1) & finite[:-1, 2]
    good = n_pairs if ok.all() else int(np.argmin(ok))
    errs = np.empty(n_pairs)
    i = 0
    try:
        if good:
            psi = basis.lift_many(rows[: good + 1, :2])
            Z = np.column_stack([psi[:-1], rows[:good, 2]])
            for i in range(good):
                errs[i] = rls_update(state, basis, None, None, None, lifted=(Z[i], psi[i + 1]))
        if good < n_pairs:
            i = good
            rls_update(state, basis, rows[i, :2], rows[i, 2:3], rows[i + 1, :2])
    except (ValueError, RlsUpdateRejectedError) as exc:
        raise type(exc)(f"tick aborted at buffered pair {i}: {exc}") from exc
    return errs


def stream_ticks(state: RlsState, basis: LiftedBasis, traj: Trajectory, start: int,
                 stop: int, tick_steps: int):
    """Apply the pairs between samples start and stop, tick_steps pairs a tick.

    Each tick's buffer carries the sample before the tick, so every pair is
    applied exactly once; only the last tick may be shorter. Yields
    (index of the tick's last sample, update_tick's error norms) per tick.
    """
    pos = start
    while pos < stop:
        end = min(pos + tick_steps, stop)
        yield end, update_tick(state, basis, traj.slice_samples(pos, end + 1))
        pos = end


def snapshot_model(state: RlsState, basis: LiftedBasis, sample_period: float,
                   provenance: dict | None = None) -> KoopmanModel:
    """Freeze the current parameter block into a standalone model.

    A and B are copied out of state.theta, so later updates of the state do
    not reach the snapshot. A theta that an accepted update overflowed
    raises ValueError, as does a bad sample period.
    """
    prov = {"fitted_by": "rls", "updates": state.update_count, "lambda": state.lam}
    if provenance:
        prov.update(provenance)
    return KoopmanModel.from_stacked(basis, state.theta, sample_period, prov)
