"""Offline least-squares identification of the lifted dynamics.

Transition pairs are taken trajectory by trajectory, so a pair never
straddles the boundary between two recordings. With one row per pair, Psi
holding lifted states, u the advisory speeds and Psi+ the lifted successors,
the stacked block theta = [A B] solves

    min || Psi+ - [Psi u] theta^T ||_F

optionally with a ridge penalty ridge * ||theta||_F^2. The pairs are never
stacked: build_matrices, the one fold loop, takes each trajectory's rows
[Psi | u | Psi+] one block of _FOLD_ROWS pairs at a time, the block cut by
model._pair_blocks and its pairs formed by model._pairs, the rules that
rls.stream_ticks and rls.update_tick follow too. split_dataset takes each
part's pairs from model._pair_blocks as well, so this module cuts no span
of samples, reads no v_ref column and calls no lift itself. It folds
each block into the upper triangular factor R of a QR decomposition of all
rows seen so far (a streaming tall-skinny QR) and checks the folded R
finite once, so beyond the trajectories the caller holds, memory stays at
one (2N+1) x (2N+1) factor plus one fold block. It returns R and the pair
count as a frozen DataMatrices record. A block whose lift overflows, or
whose fold passes the float range (an advisory speed of 1e308, whose
column norm overflows), is refused with ValueError naming the trajectory
and its samples, in every error mode (see the model module); a
rank-deficient stack is refused with RankDeficientDataError, an
ArithmeticError like every numerical refusal of the package.
Since R^T R equals the Gram matrix of the stacked
rows, every quantity of the fit follows from R alone: theta from its leading
(N+1) x (N+1) block, the rank and condition number from that block's
singular values (rank counts those above max(T, N+1) * eps * sigma_max), and
the residual and one-step errors from || R [theta^T; -I] ||. Every fold,
offline and online, is numpy's own R, np.linalg.qr(rows, mode="r")
(_fold). fit applies its ridge one way at every ridge: it folds the rows
sqrt(ridge) [I 0] into a copy of R, which at ridge 0 are zero rows, and
numpy's QR leaves a stack's triangle unchanged when the rows below it are
zero, so the unridged fit solves R's own bytes.

fit_trajectories lifts states divided by the basis scale: per channel, the
power of two nearest to the training part's peak |v| or |f_tr|, so the
one-step errors return to physical units by one exact multiply. The report
and the model's provenance record that pre-scale as "scaling": "pow2" and
"scaled": true, and the report carries the model file's scaler object, which
model._scaler builds. Every trajectory of a fit must share one sample period
to 2e-9 relative. The pair-count rule, _check_pairs, is written once: with
ridge = 0, fewer training pairs than the N + 1 columns that the degree alone
gives (basis._monomial_count) are refused by fit_trajectories right after
the split and the scale, before any basis or R factor exists, and by fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import LiftedBasis, _monomial_count, pow2_scale
from .model import (KoopmanModel, _check_fields, _check_same_sample_period, _is_number,
                    _pair_blocks, _pairs, _scaler)

__all__ = [
    "FitConfig",
    "DataMatrices",
    "FitReport",
    "RankDeficientDataError",
    "build_matrices",
    "split_dataset",
    "fit",
    "fit_trajectories",
]


# pairs per QR fold: a block of 4096 x 19 floats (608 KiB) stays in cache
# while its 19 Householder reflections pass over it, about 3x faster per
# pair than folding a whole 26k-sample trajectory at once
_FOLD_ROWS = 4096

_EPS = np.finfo(float).eps

# the parts of a split, in the order split_dataset returns them
_PARTS = ("train", "validation", "test")


class RankDeficientDataError(ArithmeticError):
    """The stacked data matrix is rank deficient and no ridge was requested.
    An ArithmeticError, like every numerical refusal of the package, so the
    command line exits 4 on it."""


@dataclass(frozen=True)
class FitConfig:
    """Settings for an offline fit: the ridge penalty, the train / validation
    / test split of the trajectories and the basis degree."""

    ridge: float = 0.0
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)
    max_degree: int = 3

    def __post_init__(self):
        # the ridge also arrives from model provenance, which is free-form JSON
        _check_fields(self)
        if not self.ridge >= 0.0:
            raise ValueError(f"ridge must be a number >= 0, got {self.ridge!r}")
        _check_split(self.split)
        if not self.max_degree >= 1:
            raise ValueError(f"max_degree must be an integer >= 1, got {self.max_degree!r}")


def _check_split(split) -> None:
    # its annotation is no form _check_fields checks, so the number rule is
    # applied here; a huge JSON integer has no float and fails it, not sum()
    if not (isinstance(split, (list, tuple)) and len(split) == 3
            and all(_is_number(f) and 0 < f <= 1 for f in split)):
        raise ValueError(f"split needs three fractions in (0, 1], got {split!r}")
    if abs(sum(split) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {split}")


@dataclass(frozen=True)
class DataMatrices:
    """Upper triangular factor R of the stacked pairs [Psi | u | Psi+] and their
    count T: R^T R equals M^T M for the (T, 2N+1) matrix M of the pairs."""

    basis: LiftedBasis
    sample_period: float
    R: np.ndarray
    T: int


def build_matrices(trajectories, basis: LiftedBasis) -> DataMatrices:
    """Lift trajectories and fold their transition pairs into one R factor.

    Every trajectory of k samples contributes k - 1 transition pairs. Each
    trajectory is lifted in blocks of _FOLD_ROWS pairs cut by
    model._pair_blocks, pairs lo..hi - 1 taken by model._pairs from the
    block's views of samples lo..hi, each pair (Z[j], psi[j + 1]) as one
    row, and each block is one fold of R: the same rows and the same folds as
    lifting the whole trajectory, so R is bit for bit the same, while no
    more than one block's lifted pairs exist.
    A block whose lift overflows, or whose fold leaves R non-finite, raises
    ValueError naming the trajectory and its samples, and one whose lift
    underflows is folded with numpy's default values, in every error mode
    (see the model module).
    """
    trajectories = list(trajectories)
    if not trajectories:
        raise ValueError("need at least one trajectory")
    period = trajectories[0].sample_period
    for i, traj in enumerate(trajectories):
        _check_same_sample_period(f"trajectory {i}", traj.sample_period, "trajectory 0", period)
    N = basis.lifted_dim
    m = 2 * N + 1
    R = np.zeros((m, m))
    for i, traj in enumerate(trajectories):
        for lo, hi, block in _pair_blocks(traj, 0, len(traj) - 1, _FOLD_ROWS):
            # an overflow, in the lift or past the float range in the fold,
            # leaves R non-finite and is refused below, by one check of R
            with np.errstate(all="ignore"):
                Z, psi = _pairs(basis, block)
            rows = np.empty((m + hi - lo, m))
            rows[:m] = R
            rows[m:, :N + 1] = Z[:-1]
            rows[m:, N + 1:] = psi[1:]
            del Z, psi  # only R and the rows live through the fold
            R = _fold(rows)
            if not np.isfinite(R).all():
                raise ValueError(f"trajectory {i}: samples {lo}..{hi} (t = {float(block.t[0])} "
                                 f"to {float(block.t[-1])} s) lift to non-finite values "
                                 "or fold past the float range")
    return DataMatrices(basis, period, R, sum(len(traj) - 1 for traj in trajectories))


def split_dataset(trajectories, split):
    """Contiguous train/validation/test split of the cascaded sample stream.

    Trajectories are concatenated in order and cut at floor((f + 1e-9) *
    total) sample boundaries, f a cumulative fraction. A part holds the
    transition pairs that lie wholly inside its cut: where samples lo..hi - 1
    of a trajectory fall in it, pairs lo..hi - 2, taken as one block of
    model._pair_blocks, the span slice_samples(lo, hi) of views of its
    columns. So the pair across a cut is dropped, and so is a one-sample
    fragment, which holds no pair: its sample belongs to no part. A part
    left with no pair is refused.
    """
    trajectories = list(trajectories)
    if not trajectories:
        raise ValueError("need at least one trajectory")
    _check_split(split)
    total = sum(len(t) for t in trajectories)
    # with the 1e-9 slack _check_split allows on the sum, so that 0.7 + 0.2,
    # 0.8999999999999999 in floats, cuts 30 samples at 27
    b1, b2 = (int(math.floor((f + 1e-9) * total)) for f in (split[0], split[0] + split[1]))
    parts: tuple[list, list, list] = ([], [], [])
    bounds = (0, b1, b2, total)
    offset = 0
    for traj in trajectories:
        n = len(traj)
        for part, start, stop in zip(parts, bounds, bounds[1:]):
            lo = max(start - offset, 0)
            hi = min(stop - offset, n)
            if hi > lo:
                part.extend(span for _, _, span in _pair_blocks(traj, lo, hi - 1, n))
        offset += n
    for name, part in zip(_PARTS, parts):
        if not part:
            raise ValueError(f"{name} part is empty; dataset is too small for this split")
    return parts


def _fold(rows: np.ndarray) -> np.ndarray:
    """R of a QR decomposition of rows, R^T R = rows^T rows: every fold, offline
    and online, is numpy's own min(m, n) x n triangle."""
    return np.linalg.qr(rows, mode="r")


def _rank(R11: np.ndarray, count: int) -> tuple[int, np.ndarray]:
    """The rank of R11, counting the singular values above count * eps *
    sigma_max, and the singular values, largest first."""
    svals = np.linalg.svd(R11, compute_uv=False)
    return int(np.count_nonzero(svals > count * _EPS * svals[0])), svals


def _solve(R: np.ndarray, p: int) -> np.ndarray:
    """theta, the least-squares solution of rows [z | y] folded into R, whose
    first p columns are the regressors z: R11 theta^T = R12."""
    return np.linalg.solve(R[:p, :p], R[:p, p:]).T


def _errors(R: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """R [theta^T; -I]: its column norms are those of the prediction errors."""
    p = theta.shape[1]
    return R[:, :p] @ theta.T - R[:, p:]


def _check_pairs(T: int, max_degree: int, ridge: float) -> None:
    """Refuse T transition pairs for the N + 1 columns of a degree's basis
    with ridge = 0 when T < N + 1: the one pair-count rule of a fit."""
    p = _monomial_count(max_degree) + 1
    if T < p and ridge == 0.0:
        raise ValueError(f"{T} transition pairs cannot determine {p} columns; "
                         "add data or use ridge > 0")


def fit(matrices: DataMatrices, config: FitConfig) -> KoopmanModel:
    """Solve for [A B] from the R factor of the stacked pairs.

    With ridge = 0 the problem must be full rank: fewer pairs than columns
    raise ValueError (_check_pairs, which fit_trajectories calls before it
    builds a basis), and a rank-deficient stack raises
    RankDeficientDataError suggesting a ridge. The rows sqrt(ridge) [I 0]
    are folded into a copy of R at every ridge, the least-squares statement
    of ridge regression; at ridge 0 they are zero rows, and the fold returns
    R's bytes. The fit residual and the condition number of the (ridged)
    regressor go into the model provenance.
    """
    p = matrices.basis.lifted_dim + 1
    T = matrices.T
    _check_pairs(T, matrices.basis.max_degree, config.ridge)
    R = matrices.R
    # at ridge 0 the rows are zero, and numpy's QR leaves a stack's triangle
    # unchanged when the rows below it are zero: R_solve is R byte for byte
    R_solve = _fold(np.vstack([R, math.sqrt(config.ridge) * np.eye(p, len(R))]))
    rank, svals = _rank(R_solve[:p, :p], max(T, p))
    if config.ridge == 0.0 and rank < p:
        raise RankDeficientDataError(
            f"stacked data matrix has rank {rank} < {p}; the regression is "
            "degenerate (insufficient excitation). Use ridge > 0 or richer data."
        )
    theta = _solve(R_solve, p)
    residual = float(np.linalg.norm(_errors(R, theta)))
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else float("inf")
    provenance = {
        "fitted_by": "edmd.fit",
        "pairs": T,
        "ridge": config.ridge,
        "residual_fro": residual,
        "condition_number": cond,
        "basis": f"monomials of degree 1..{matrices.basis.max_degree}",
        "scaled": True,
    }
    return KoopmanModel(matrices.basis, theta, matrices.sample_period, provenance)


def _one_step_rmse(model: KoopmanModel, matrices: DataMatrices) -> tuple[float, float]:
    # the identity columns of the lifted error, in physical units
    err = _errors(matrices.R, model.theta)[:, :2]
    rms = np.sqrt(np.sum(err**2, axis=0) / matrices.T) * matrices.basis.scale
    return float(rms[0]), float(rms[1])


@dataclass
class FitReport:
    """Summary of a trajectory-level fit; the field names are its JSON keys."""

    split_samples: dict
    split_pairs: dict
    residual_fro: float
    condition_number: float
    ridge: float
    max_degree: int
    scaling: str
    scaler: dict
    one_step_rmse_v_mps: dict
    one_step_rmse_f_n: dict


def fit_trajectories(trajectories, config: FitConfig) -> tuple[KoopmanModel, FitReport]:
    """Split, lift, and fit a set of recorded trajectories.

    The pre-scale is computed from the training part only: per channel, the
    power of two nearest to its peak magnitude. The report carries one-step
    prediction errors in physical units for all three parts, and each part's
    samples and pairs. A one-sample fragment belongs to no part (see
    split_dataset), so split_samples sums to the roster's samples less one
    per fragment. With ridge = 0, a degree whose columns outnumber the
    training pairs is refused with fit's ValueError before its basis is
    built or any pair is lifted.
    """
    parts = dict(zip(_PARTS, split_dataset(trajectories, config.split)))
    scale = (pow2_scale(max(np.max(np.abs(traj.v)) for traj in parts["train"]), "v"),
             pow2_scale(max(np.max(np.abs(traj.f_tr)) for traj in parts["train"]), "f_tr"))
    _check_pairs(sum(len(traj) - 1 for traj in parts["train"]), config.max_degree, config.ridge)
    basis = LiftedBasis(max_degree=config.max_degree, scale=scale)
    mats = {name: build_matrices(part, basis) for name, part in parts.items()}
    model = fit(mats["train"], config)
    rmse = {name: _one_step_rmse(model, mm) for name, mm in mats.items()}
    report = FitReport(
        split_samples={name: sum(len(t) for t in part) for name, part in parts.items()},
        split_pairs={name: mm.T for name, mm in mats.items()},
        residual_fro=model.provenance["residual_fro"],
        condition_number=model.provenance["condition_number"],
        ridge=config.ridge,
        max_degree=config.max_degree,
        scaling="pow2",
        scaler=_scaler(basis),
        one_step_rmse_v_mps={name: rv for name, (rv, _) in rmse.items()},
        one_step_rmse_f_n={name: rf for name, (_, rf) in rmse.items()},
    )
    return model, report
