"""Recursive least-squares adaptation of the lifted dynamics.

The parameter block theta = [A B] of a KoopmanModel, with B the single
advisory-speed column, is refreshed from streaming transition pairs (regressor
z = [psi(x_k); u_k], target psi(x_next)) with exponential forgetting. After
k pairs theta minimizes

    lambda^(k+1) ||theta - theta_0||_F^2
        + sum_i lambda^(k-i) ||psi(x_next,i) - theta z_i||^2,

which is RLS started from P(0) = I / lambda; with lambda = 1 and
theta_0 = 0 it is the batch fit with ridge 1.

The state is the square-root information form (Bierman, Factorization
Methods for Discrete Sequential Estimation, 1977) of edmd's offline fit: an
upper triangular R with R'R = P^-1, and theta. A pair's row is [z | eps],
with eps = psi(x_next) - theta z, so the rows are relative to theta and
theta_0's prior rows are sqrt(lambda) [I | 0]. Every _FOLD_PAIRS pairs,
counted from the start of the stream, the k pending rows are folded into R
by one QR, numpy's own R (edmd._fold, np.linalg.qr(rows, mode="r")), the
oldest weighted by lambda^((k-1)/2), the newest by 1 and R by lambda^(k/2),
and theta moves by the folded rows' least-squares solution (edmd._solve),
which is then 0 again: the state keeps no right-hand side, and pairs with
zero error leave theta bit for bit. R and the pending rows share one row
stack [R | 0; z | eps]. The state stores no count of its pending rows,
which are the first update_count % _FOLD_PAIRS, and a k-row fold weighs
its stack by one multiply with a weight column of powers of
sqrt(lambda) that the state builds once for each k: lambda^(k/2) on R's
rows, then lambda^((k-1)/2) down to 1 on the pending rows, so each entry
is multiplied by its own weight once.
rls_update(state, z, psi_next) writes one pair's row into that stack and
returns its error norm, against theta as of the last fold. It writes
through the (z, eps) views of the pending rows that the state makes once:
z is copied into its view, the prediction theta z goes straight into the
eps view, and psi_next minus it replaces it there, so a pair makes no
temporary array. A copy or a pickle of the state drops the views and the
restored state makes its own, on its own stack. Reading
state.theta or state.P folds the pending rows into a copy, so theta after
k pairs depends neither on the tick boundaries nor on the reads, and a
theta read is read-only. A fold or read whose R11 has sigma_min <= p eps sigma_max
(edmd.fit's rank rule, with p regressors), whose folded R is not finite
(the rank rule's SVD raises numpy's LinAlgError on it, which is caught on
that exception path, so a finite fold pays no check), or whose new theta
is not finite, raises RlsUpdateRejectedError, an ArithmeticError like
every numerical refusal of the package, as does a non-finite prediction
error; the refused pair leaves the state as it was. Every step keeps the
package's numerical-error rule (see the model module): the tick enters no
np.errstate, and where the caller's error handling turns a numpy event into
a RuntimeWarning or a FloatingPointError, the handler of the tick's lift
(in model._pairs), of a pair's prediction, error and square, or of a fold
calls its own function again under np.errstate(all="ignore"). Each of these
steps warns before the state changes, so the second call starts from the
same state.
init_rls starts from a copy of the model's theta, and snapshot_model hands
state.theta to the KoopmanModel constructor, which copies it.

update_tick is the per-tick entry: it checks that the state's theta is
lifted_dim x (lifted_dim + 1) and takes the pairs of its Trajectory buffer
from model._pairs, the one pair rule, which edmd.build_matrices follows
too: one lift of the k + 1 samples into psi, and Z = [psi | u]. Pair i is
(Z[i], psi[i + 1]), so update_tick calls rls_update once per pair, through
the module name, with both as row views; a value made non-finite after
construction reaches it as a non-finite prediction error and is refused.
This module reads no v_ref column and calls no lift itself. stream_ticks
takes its ticks from model._pair_blocks, the one pair-block rule, which
also refuses the range and the tick size, and hands each tick the block's
span, whose columns are views of the segment's: no tick copies a column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import LiftedBasis
from .edmd import _fold, _rank, _solve
from .model import (KoopmanModel, Trajectory, _check_fields, _is_number, _pair_blocks, _pairs,
                    _samples)

__all__ = ["OnlineSettings", "RlsState", "RlsUpdateRejectedError", "init_rls", "rls_update",
           "update_tick", "stream_ticks", "snapshot_model"]

# pairs per fold: one second of 40 Hz samples, so a 1 s tick reads theta
# just after a fold, and 4-pair ticks fold every tenth tick
_FOLD_PAIRS = 40


class RlsUpdateRejectedError(ArithmeticError):
    """An update or a read was refused on numerical grounds: a non-finite
    prediction error, folded information that is not finite or singular to
    working precision, or a folded theta that is not finite. The state is
    left untouched."""


@dataclass(frozen=True)
class OnlineSettings:
    """Forgetting factor and tick cadence for streaming adaptation.

    The forgetting factor applies per sample.  At 40 Hz a per-sample
    0.99737 discounts one second of history by about 0.9; per-sample
    factors far below that forget the information of weakly excited
    directions until it is singular.

    The cadence only groups pairs into ticks: it sets update --log's rows
    and tick count, the bench's tick timings and the sample range a refused
    tick names. The state folds its pairs in fixed blocks counted from the
    stream's start, so the adapted theta, and every number eval prints, are
    the same at any cadence.
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
    if not (_is_number(lam) and 0.0 < lam <= 1.0):
        raise ValueError(f"forgetting factor must be in (0, 1], got {lam}")


class RlsState:
    """Mutable adaptation state: one (p + _FOLD_PAIRS) x (p + n) row stack
    holding the p x p information factor R as [R | 0] above the rows [z | eps]
    pending since the last fold, theta as of that fold, and the forgetting
    factor. It starts from theta with R = sqrt(lambda) I, which is
    P = I / lambda; state.theta and state.P fold the pending rows into a copy
    on each read. The pending rows are the first update_count % _FOLD_PAIRS,
    and no count of them is stored. The (z, eps) views of each pending row
    are made once and remade, never copied, when the state is deep-copied
    or unpickled."""

    def __init__(self, theta, lam: float):
        theta = np.array(theta, dtype=float)
        if theta.ndim != 2:
            raise ValueError("theta must be a 2-D block [A B]")
        if not np.isfinite(theta).all():
            raise ValueError("theta must be finite")
        _check_forgetting_factor(lam)
        n, p = theta.shape
        self.lam = lam
        self.n_features = p
        self._theta = theta
        # [R | 0] in the first p rows, then the pending rows [z | eps]; R's
        # rows carry no right-hand side, since the last fold's theta solves them
        self._rows = np.zeros((p + _FOLD_PAIRS, p + n))
        self._rows[:p, :p] = math.sqrt(lam) * np.eye(p)
        self._pair_rows = self._row_views()
        # _weights[k - 1] weighs the stack of a k-row fold, _rows[:p + k], in
        # one multiply: lambda^(k/2) on R's rows, then lambda^((k-1)/2) down
        # to 1 on the pending rows, oldest first
        decay = math.sqrt(lam) ** np.arange(_FOLD_PAIRS, -1, -1)
        self._weights = [np.concatenate((np.full(p, decay[-k - 1]), decay[-k:]))[:, None]
                         for k in range(1, _FOLD_PAIRS + 1)]
        self.update_count = 0

    def _row_views(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(z, eps) views of each pending row of the stack, the rows that
        rls_update writes."""
        p = self.n_features
        return [(row[:p], row[p:]) for row in self._rows[p:]]

    def __getstate__(self) -> dict:
        # the row views are not copied or pickled, so no copy holds views of
        # the original's stack; __setstate__ makes them on the copy's own
        state = self.__dict__.copy()
        del state["_pair_rows"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._pair_rows = self._row_views()

    def _folded(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """R and theta with the first k pending rows folded in: the state's
        own when k is 0, else new arrays."""
        if k == 0:
            return self.R, self._theta
        p = self.n_features
        try:
            R = _fold(self._rows[:p + k] * self._weights[k - 1])
            rank, svals = _rank(R[:p, :p], p)
            if rank < p:
                raise RlsUpdateRejectedError(
                    f"update rejected: the information is singular to working precision "
                    f"(sigma_min {svals[-1]:.3g}, sigma_max {svals[0]:.3g})")
            theta = self._theta + _solve(R, p)
        except (RuntimeWarning, FloatingPointError):
            with np.errstate(all="ignore"):
                return self._folded(k)
        except np.linalg.LinAlgError:  # _rank's SVD of a non-finite R
            raise RlsUpdateRejectedError(
                "update rejected: the folded information is not finite") from None
        if not np.isfinite(theta).all():
            raise RlsUpdateRejectedError("update rejected: the folded theta is not finite")
        return R[:p, :p], theta

    @property
    def R(self) -> np.ndarray:
        """The information factor as of the last fold, a view of the row stack."""
        return self._rows[:self.n_features, :self.n_features]

    @property
    def theta(self) -> np.ndarray:
        # read-only whether or not pairs are pending: theta is replaced at
        # each fold, never written in place
        theta = self._folded(self.update_count % _FOLD_PAIRS)[1].view()
        theta.flags.writeable = False
        return theta

    @property
    def P(self) -> np.ndarray:
        R_inv = np.linalg.inv(self._folded(self.update_count % _FOLD_PAIRS)[0])
        P = R_inv @ R_inv.T
        return (P + P.T) / 2.0


def init_rls(model: KoopmanModel, lam: float) -> RlsState:
    """Start adaptation from a model's theta, copied, with P = I / lambda."""
    return RlsState(theta=model.theta, lam=lam)


def rls_update(state: RlsState, z: np.ndarray, psi_next: np.ndarray) -> float:
    """Apply one lifted pair; returns the norm of its prediction error
    against theta as of the last fold.

    z is the regressor [psi(x_k); u_k] and psi_next is psi(x_next), both of
    the state's widths; update_tick checks that. The pair's row is pending
    row update_count % _FOLD_PAIRS. A non-finite prediction error, or a
    fold whose information is singular, raises RlsUpdateRejectedError and
    leaves the state as it was. In every error mode (see the model module)
    an inf * 0 or inf - inf is refused, a finite error whose square
    overflows is accepted with norm inf, and one whose products underflow
    is accepted with its default norm.
    """
    k = state.update_count % _FOLD_PAIRS
    z_row, eps = state._pair_rows[k]
    z_row[...] = z
    try:
        # the prediction goes into the error row, which then takes
        # psi_next - prediction: no temporary
        state._theta.dot(z, out=eps)
        np.subtract(psi_next, eps, out=eps)
        sq = eps.dot(eps)
    except (RuntimeWarning, FloatingPointError):
        with np.errstate(all="ignore"):
            return rls_update(state, z, psi_next)
    # sq is finite only if eps is; a finite eps whose square overflows passes
    if not math.isfinite(sq) and not np.all(np.isfinite(eps)):
        raise RlsUpdateRejectedError("update rejected: non-finite prediction error")
    if k + 1 == _FOLD_PAIRS:
        state.R[...], state._theta = state._folded(_FOLD_PAIRS)
    state.update_count += 1
    return math.sqrt(sq)


def update_tick(state: RlsState, basis: LiftedBasis, buffer: Trajectory) -> np.ndarray:
    """Apply one tick's worth of buffered samples in time order.

    The buffer should include the last sample seen before the tick, so a
    tick covering 1 s of 40 Hz data carries 41 samples and produces 40
    updates. Returns the per-pair prediction error norms.

    A state whose theta is not N x (N + 1), N = basis.lifted_dim, raises
    ValueError before any pair is applied. A pair the kernel rejects raises
    RlsUpdateRejectedError naming the pair's index in the buffer, and the
    pairs before it stay applied. A state made non-finite in sample r after
    the buffer was built is refused at pair r - 1 (its target), or at pair
    0 for the first sample, and an input in sample r at pair r. A sample
    whose lift overflows is refused the same way, and one whose lift
    underflows is accepted, in every error mode (see the model module).
    """
    N = basis.lifted_dim
    if state.n_features != N + 1 or len(state._theta) != N:
        raise ValueError(f"state has {state.n_features} columns, expected {N + 1}, and "
                         f"{len(state._theta)} rows, expected {N}, for this basis")
    Z, psi = _pairs(basis, buffer)
    errs = np.empty(len(buffer) - 1)
    try:
        for i in range(len(errs)):
            errs[i] = rls_update(state, Z[i], psi[i + 1])
    except RlsUpdateRejectedError as exc:
        raise RlsUpdateRejectedError(f"tick aborted at buffered pair {i}: {exc}") from exc
    return errs


def stream_ticks(state: RlsState, basis: LiftedBasis, traj: Trajectory, start: int,
                 stop: int, tick_steps: int):
    """Apply the pairs between samples start and stop, tick_steps pairs a tick.

    The ticks are the blocks of model._pair_blocks: each gets the span of
    samples lo..end, a Trajectory of views into traj's columns, copying
    nothing, that carries the sample before the tick, so every pair is
    applied exactly once; only the last tick may be shorter. Yields (index
    of the tick's last sample, update_tick's error norms) per tick. A bad
    range, or a tick_steps below 1, raises ValueError before any pair is
    applied. A refused tick's RlsUpdateRejectedError is raised again with
    the tick's first and last sample and their times before update_tick's
    message.
    """
    for lo, end, tick in _pair_blocks(traj, start, stop, tick_steps):
        try:
            errs = update_tick(state, basis, tick)
        except RlsUpdateRejectedError as exc:
            raise RlsUpdateRejectedError(
                f"tick of samples {lo} to {end} (t = {float(tick.t[0])} s to "
                f"{float(tick.t[-1])} s): {exc}") from exc
        yield end, errs


def snapshot_model(state: RlsState, basis: LiftedBasis, sample_period: float,
                   provenance: dict | None = None) -> KoopmanModel:
    """Freeze the current parameter block into a standalone model.

    The constructor copies state.theta, so later updates of the state do not
    reach the snapshot. The provenance starts with fitted_by, updates and
    lambda, then the given entries; this run's fitted_by ("rls"), updates
    and lambda win over the given ones. None is no provenance, and any
    other value that is no dict raises the constructor's ValueError, as
    does a bad sample period.
    """
    run = {"fitted_by": "rls", "updates": state.update_count, "lambda": state.lam}
    prov = {**run, **provenance, **run} if isinstance(provenance, dict) else provenance
    return KoopmanModel(basis, state.theta, sample_period, run if prov is None else prov)
