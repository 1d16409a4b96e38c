"""Recursive least-squares adaptation of the lifted dynamics.

The stacked parameter block theta = [A B], with B the single advisory-speed
column, is refreshed from streaming transition pairs with exponential
forgetting. For a pair (x_k, u_k, x_next) the regressor is
z = [psi(x_k); u_k] and the update reads

    eps   = psi(x_next) - theta z
    K     = P z / (lambda + z' P z)
    theta = theta + eps K'
    P     = (P - K z' P) / lambda

With lambda = 1 and P(0) = kappa * I this is exactly sequential ridge
regression with penalty 1/kappa, which is what the batch solver computes;
lambda < 1 discounts old data with the usual 1/(1 - lambda) sample memory.
No covariance resetting or windup protection is applied beyond the
forgetting factor itself.

rls_update(state, z, psi_next) is the kernel: one lifted pair, no input
validation. update_tick is the validating entry: it checks that the state
has lifted_dim + 1 columns, checks its buffer's rows for finiteness in one
pass (the per-pair mask that names the first malformed pair is built only
when that pass fails), and lifts the k + 1 rows of the finite prefix once,
through the basis's unchecked row kernel, straight into one (k + 1, N + 1)
array [psi | u]. Row i of it is the regressor z_i, and its first N entries
are psi(x_i), the target of pair i - 1, so the kernel reads both as views
of that one array, once per pair. stream_ticks stacks a segment's
(v, f_tr, v_ref) rows once and hands each tick a view.

The kernel works on 10-wide arrays, where numpy's per-call overhead costs
more than the arithmetic, so it makes one matrix product and one rank-one
update per pair. The state is one C-contiguous (n + p) x p block
[theta; S], with n lifted states and p = n + 1 regressors (9 and 10 at
degree 3), where S = mu P is the covariance times a scalar mu that carries
the forgetting (the scaled-covariance form of exponentially weighted RLS;
Ljung & Soderstrom, Theory and Practice of Recursive Identification, 1983).
w = block z gives theta z and S z in one product, and
md = mu lambda + z' S z is mu times the gain denominator. w[:n] -= psi_next
turns theta z into -eps, and scaling w by 1/sqrt(md) makes its S rows
g = S z / sqrt(md). block -= w g', taken as the (n + p, 1) x (1, p) matrix
product, adds eps K' to theta and leaves S - g g' = mu lambda P_new in the
S rows, so mu <- lambda mu keeps S = mu P without touching the block
again. Each entry of that product is the single floating-point product
w_i g_j, so g_i g_j and g_j g_i are the same number and a symmetric S stays
exactly symmetric, as S(0) = P(0) = I / lambda is. The error norm is
sqrt(eps . eps), which is how np.linalg.norm computes it. Every check runs
on w and md before the block is touched, so a rejected pair leaves the
state as it was; the error names the gain denominator md / mu. w and the
product w g' are written into two scratch arrays of the state, not
allocated per pair; each pair overwrites them before reading them, so they
carry nothing from one pair to the next. The state keeps no view into the
block or the scratch as an attribute (theta and S are sliced on each
read), so copy.deepcopy gives a state that updates on its own.

mu starts at 1.0. When it falls below 2**-512 (after about 3370 pairs at
lambda = 0.9, 135 000 at the default), S and mu are both multiplied by
2**512. That scales w's S rows and md by 2**512 and sqrt(md) and g by its
exact square root 2**256, all without rounding, and the powers cancel in
every theta entry and in P = S / mu, so the rescale changes no bit of any
later result; it depends only on the number of pairs applied, never on the
tick boundaries. state.P returns S / mu as a new array and never writes it
back, so reading P cannot change a later update either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import LiftedBasis
from .model import KoopmanModel, Trajectory, _check_fields, _samples

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
        _check_fields(self)
        _check_forgetting_factor(self.lam)
        if not self.cadence_s > 0:
            raise ValueError(f"cadence must be positive, got {self.cadence_s}")

    def tick_steps(self, sample_period: float) -> int:
        """Transition pairs per tick at this cadence, at least one."""
        return max(int(round(_samples("cadence", self.cadence_s, sample_period))), 1)


def _check_forgetting_factor(lam) -> None:
    if not (0.0 < lam <= 1.0):
        raise ValueError(f"forgetting factor must be in (0, 1], got {lam}")


class RlsState:
    """Mutable adaptation state: the block [theta; S], the scalar mu with
    S = mu P, and the forgetting factor.

    The block is one C-contiguous (n + p) x p array whose rows [:n] are the
    parameter block theta = [A B] and whose rows [n:] are the scaled
    covariance S. state.theta is a view of the block, sliced on each read.
    state.P is S / mu, computed on each read and never stored, so a read
    leaves the state as it was.
    """

    def __init__(self, theta, P, lam: float):
        theta = np.asarray(theta, dtype=float)
        P = np.asarray(P, dtype=float)
        if theta.ndim != 2:
            raise ValueError("theta must be a 2-D block [A B]")
        n, p = theta.shape
        if P.shape != (p, p):
            raise ValueError(f"P must be ({p}, {p}), got {P.shape}")
        _check_forgetting_factor(lam)
        self.block = np.empty((n + p, p))
        self.block[:n] = theta
        self.block[n:] = P
        if not np.isfinite(self.block).all():
            raise ValueError("theta and P must be finite")
        self._n = n
        self.mu = 1.0
        self.lam = lam
        self.update_count = 0
        # rls_update's scratch: w = block z, and the rank-one product w g'
        self._w = np.empty(n + p)
        self._wg = np.empty((n + p, p))

    @property
    def theta(self) -> np.ndarray:
        return self.block[:self._n]

    @property
    def P(self) -> np.ndarray:
        return self.block[self._n:] / self.mu

    @property
    def n_features(self) -> int:
        return self.block.shape[1]


# mu below this is scaled back up, together with S, by _MU_RESCALE
_MU_FLOOR = 2.0 ** -512
_MU_RESCALE = 2.0 ** 512


def init_rls(model: KoopmanModel, lam: float) -> RlsState:
    """Start adaptation from a fitted model, with P = I / lambda."""
    _check_forgetting_factor(lam)  # before I / lambda divides by it
    p = model.lifted_dim + 1
    return RlsState(theta=model.stacked(), P=np.eye(p) / lam, lam=lam)


def rls_update(state: RlsState, z: np.ndarray, psi_next: np.ndarray) -> float:
    """Apply one lifted pair in place; returns the prediction error norm.

    z is the regressor [psi(x_k); u_k] and psi_next is psi(x_next), both
    finite and of the state's widths; update_tick checks that. A
    non-positive gain denominator or a non-finite prediction error raises
    RlsUpdateRejectedError and leaves the state exactly as it was.
    """
    block = state.block
    w = state._w
    block.dot(z, out=w)  # [theta z; S z]
    n = len(psi_next)
    Sz = w[n:]
    mu = state.mu * state.lam  # the next mu
    md = mu + float(z.dot(Sz))  # mu times the gain denominator
    if not math.isfinite(md) or md <= 0.0:
        raise RlsUpdateRejectedError(f"update rejected: gain denominator is {md / state.mu}")
    neg_eps = w[:n]
    neg_eps -= psi_next
    sq = float(neg_eps.dot(neg_eps))
    # sq is finite only if eps is; a finite eps whose square overflows passes
    if not math.isfinite(sq) and not np.all(np.isfinite(neg_eps)):
        raise RlsUpdateRejectedError("update rejected: non-finite prediction error")

    w *= 1.0 / math.sqrt(md)  # Sz becomes g = S z / sqrt(md)
    # rows [:n] gain eps K' and rows [n:] lose g g', each entry one product
    wg = state._wg
    w[:, None].dot(Sz[None], out=wg)
    block -= wg
    if mu < _MU_FLOOR:
        block[n:] *= _MU_RESCALE
        mu *= _MU_RESCALE
    state.mu = mu
    state.update_count += 1
    return math.sqrt(sq)


def _buffer_rows(buffer) -> np.ndarray:
    # the Trajectory branch serves bench/run.py's replay, which still hands
    # update_tick per-tick trajectory slices; the package passes row arrays
    if isinstance(buffer, Trajectory):
        rows = np.empty((len(buffer), 3))
        rows[:, 0] = buffer.v
        rows[:, 1] = buffer.f_tr
        rows[:, 2] = buffer.v_ref
        return rows
    arr = np.asarray(buffer, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"buffer must be a Trajectory or a (k, 3) array, got {arr.shape}")
    return arr


def update_tick(state: RlsState, basis: LiftedBasis, buffer) -> np.ndarray:
    """Apply one tick's worth of buffered samples in time order.

    The buffer holds rows (v, f_tr, v_ref) and should include the last sample
    seen before the tick, so a tick covering 1 s of 40 Hz data carries 41
    rows and produces 40 updates. A buffer with fewer than two rows leaves
    the state unchanged. Returns the per-pair prediction error norms.

    A state whose width is not basis.lifted_dim + 1 raises ValueError before
    any pair is applied. The pairs before the first malformed one (a
    non-finite state or input) are lifted once and applied; the malformed
    pair then raises ValueError. A pair the kernel rejects raises
    RlsUpdateRejectedError. Either names the pair's index in the buffer,
    and the pairs before it stay applied.
    """
    if state.n_features != basis.lifted_dim + 1:
        raise ValueError(f"state has {state.n_features} columns, expected "
                         f"{basis.lifted_dim + 1} for this basis")
    rows = _buffer_rows(buffer)
    if len(rows) < 2:
        return np.empty(0)
    n_pairs = len(rows) - 1
    finite = np.isfinite(rows)
    good = n_pairs
    if not finite.all():
        # pair i reads the states of rows i and i + 1 and the input of row i,
        # so a non-finite input in the last row breaks no pair
        ok = finite[:-1, :2].all(axis=1) & finite[1:, :2].all(axis=1) & finite[:-1, 2]
        good = n_pairs if ok.all() else int(np.argmin(ok))
    errs = np.empty(n_pairs)
    if good:
        # row i is [psi(x_i) | u_i]: the regressor z_i, and psi(x_i) is the
        # target of pair i - 1; the u of row good is never read
        N = basis.lifted_dim
        Z = np.empty((good + 1, N + 1))
        basis._lift_rows(rows[: good + 1, :2], out=Z[:, :N])
        Z[:, N] = rows[: good + 1, 2]
        try:
            for i in range(good):
                errs[i] = rls_update(state, Z[i], Z[i + 1, :N])
        except RlsUpdateRejectedError as exc:
            raise RlsUpdateRejectedError(f"tick aborted at buffered pair {i}: {exc}") from exc
    if good < n_pairs:
        raise ValueError(f"tick aborted at buffered pair {good}: x_k {rows[good, :2]}, "
                         f"u_k {rows[good, 2]} and x_next {rows[good + 1, :2]} must be finite")
    return errs


def stream_ticks(state: RlsState, basis: LiftedBasis, traj: Trajectory, start: int,
                 stop: int, tick_steps: int):
    """Apply the pairs between samples start and stop, tick_steps pairs a tick.

    The segment's rows (v, f_tr, v_ref) are stacked once, and each tick gets
    a view of them that carries the sample before the tick, so every pair is
    applied exactly once; only the last tick may be shorter. Yields
    (index of the tick's last sample, update_tick's error norms) per tick.
    """
    if not 0 <= start <= stop < len(traj):
        raise ValueError(f"bad sample range [{start}, {stop}] for length {len(traj)}")
    seg = slice(start, stop + 1)
    rows = np.column_stack([traj.v[seg], traj.f_tr[seg], traj.v_ref[seg]])
    n_pairs = stop - start
    for lo in range(0, n_pairs, tick_steps):
        hi = min(lo + tick_steps, n_pairs)
        yield start + hi, update_tick(state, basis, rows[lo:hi + 1])


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
