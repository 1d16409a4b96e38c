"""Offline least-squares identification of the lifted dynamics.

Transition pairs are taken trajectory by trajectory, so a pair never
straddles the boundary between two recordings. With one row per pair, Psi
holding lifted states, u the advisory speeds and Psi+ the lifted successors,
the stacked block theta = [A B] solves

    min || Psi+ - [Psi u] theta^T ||_F

optionally with a ridge penalty ridge * ||theta||_F^2. The pairs are never
stacked: each trajectory's rows [Psi | u | Psi+] are lifted and folded into
the upper triangular factor R of a QR decomposition of all rows seen so far
(a streaming tall-skinny QR) one block of _FOLD_ROWS pairs at a time, so
beyond the trajectories the caller holds, memory stays at one (2N+1) x (2N+1)
factor plus one fold block. Since R^T R equals the Gram matrix of the stacked
rows, every quantity of the fit follows from R alone: theta from its leading
(N+1) x (N+1) block, the rank and condition number from that block's
singular values (rank counts those above max(T, N+1) * eps * sigma_max), and
the residual and one-step errors from || R [theta^T; -I] ||.

fit_trajectories lifts states divided by the basis scale: per channel, the
power of two nearest to the training part's peak |v| or |f_tr|, so the
one-step errors return to physical units by one exact multiply. Every
trajectory of a fit must share one sample period to 2e-9 relative.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .basis import LiftedBasis, pow2_scale
from .model import KoopmanModel, _check_same_sample_period, _check_sample_period

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


class RankDeficientDataError(ValueError):
    """The stacked data matrix is rank deficient and no ridge was requested."""


@dataclass(frozen=True)
class FitConfig:
    """Settings for an offline fit.

    scaling selects the pre-scale applied before lifting: "pow2" divides each
    channel by the power of two nearest to its training peak (exact to
    invert), "none" lifts raw physical units.
    """

    ridge: float = 0.0
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)
    max_degree: int = 3
    scaling: str = "pow2"

    def __post_init__(self):
        # the ridge also arrives from model provenance, which is free-form JSON
        if not (isinstance(self.ridge, (int, float)) and not isinstance(self.ridge, bool)
                and math.isfinite(self.ridge) and self.ridge >= 0.0):
            raise ValueError(f"ridge must be a number >= 0, got {self.ridge!r}")
        if len(self.split) != 3 or any(not (f > 0) for f in self.split):
            raise ValueError(f"split needs three positive fractions, got {self.split}")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {self.split}")
        if not (isinstance(self.max_degree, int) and self.max_degree >= 1):
            raise ValueError(f"max_degree must be an integer >= 1, got {self.max_degree!r}")
        if self.scaling not in ("pow2", "none"):
            raise ValueError(f"scaling must be 'pow2' or 'none', got {self.scaling!r}")


@dataclass
class DataMatrices:
    """Upper triangular factor R of the stacked pairs [Psi | u | Psi+] and their count T.

    Starts empty; `add` folds in a block of pairs, so R^T R always equals
    M^T M for the (T, 2N+1) matrix M of every row added so far.
    """

    basis: LiftedBasis
    sample_period: float
    R: np.ndarray = field(init=False, repr=False)
    T: int = field(init=False, default=0)

    def __post_init__(self):
        _check_sample_period(self.sample_period)
        m = 2 * self.basis.lifted_dim + 1
        self.R = np.zeros((m, m))

    def add(self, X, X_plus, U) -> None:
        """Fold k pairs into R: X and X_plus are (k, N) lifted states and their
        successors, one pair per row, and U holds the k advisory speeds."""
        N = self.basis.lifted_dim
        X = np.asarray(X, dtype=float)
        X_plus = np.asarray(X_plus, dtype=float)
        U = np.asarray(U, dtype=float)
        if X.ndim != 2 or X.shape[1] != N:
            raise ValueError(f"X must be (k, {N}), got {X.shape}")
        if X_plus.shape != X.shape:
            raise ValueError(f"X_plus shape {X_plus.shape} must match X {X.shape}")
        k = X.shape[0]
        if U.shape != (k,):
            raise ValueError(f"U must be ({k},), got {U.shape}")
        for name, block in (("X", X), ("X_plus", X_plus), ("U", U)):
            if not np.all(np.isfinite(block)):
                raise ValueError(f"{name} contains non-finite values")
        m = len(self.R)
        for lo in range(0, k, _FOLD_ROWS):
            hi = min(lo + _FOLD_ROWS, k)
            rows = np.empty((m + hi - lo, m))
            rows[:m] = self.R
            rows[m:, :N] = X[lo:hi]
            rows[m:, N] = U[lo:hi]
            rows[m:, N + 1:] = X_plus[lo:hi]
            self.R = np.linalg.qr(rows, mode="r")
        self.T += k


def build_matrices(trajectories, basis: LiftedBasis) -> DataMatrices:
    """Lift trajectories and fold their transition pairs into one R factor.

    Every trajectory of k samples contributes k - 1 transition pairs. Each
    trajectory is lifted in blocks of _FOLD_ROWS pairs, pairs lo..hi - 1
    lifted from samples lo..hi, and each block is one fold of R: the same
    rows and the same folds as lifting the whole trajectory, so R is bit
    for bit the same, while no more than one block's lifted pairs exist.
    """
    trajectories = list(trajectories)
    if not trajectories:
        raise ValueError("need at least one trajectory")
    period = trajectories[0].sample_period
    for i, traj in enumerate(trajectories):
        _check_same_sample_period(f"trajectory {i}", traj.sample_period, "trajectory 0", period)
    matrices = DataMatrices(basis=basis, sample_period=period)
    for traj in trajectories:
        pairs = len(traj) - 1
        for lo in range(0, pairs, _FOLD_ROWS):
            hi = min(lo + _FOLD_ROWS, pairs)
            Z = basis.lift_many(np.column_stack((traj.v[lo:hi + 1], traj.f_tr[lo:hi + 1])))
            matrices.add(Z[:-1], Z[1:], traj.v_ref[lo:hi])
    return matrices


def split_dataset(trajectories, split=(0.8, 0.1, 0.1)):
    """Contiguous train/validation/test split of the cascaded sample stream.

    Trajectories are concatenated in order and cut at floor(f * total)
    sample boundaries; a trajectory that spans a boundary is divided, and the
    transition pair across the cut is dropped implicitly. Each resulting part
    must contain at least 2 samples.
    """
    trajectories = list(trajectories)
    if not trajectories:
        raise ValueError("need at least one trajectory")
    if len(split) != 3 or any(not (f > 0) for f in split):
        raise ValueError(f"split needs three positive fractions, got {split}")
    if abs(sum(split) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {split}")
    total = sum(len(t) for t in trajectories)
    b1 = int(math.floor(split[0] * total))
    b2 = int(math.floor((split[0] + split[1]) * total))
    parts: tuple[list, list, list] = ([], [], [])
    names = ("train", "validation", "test")
    bounds = (0, b1, b2, total)
    offset = 0
    for traj in trajectories:
        n = len(traj)
        for part_idx in range(3):
            lo = max(bounds[part_idx] - offset, 0)
            hi = min(bounds[part_idx + 1] - offset, n)
            if hi - lo <= 0:
                continue
            if hi - lo < 2:
                raise ValueError(
                    f"{names[part_idx]} part would receive a {hi - lo}-sample fragment; "
                    "dataset is too small for this split"
                )
            if lo == 0 and hi == n:
                parts[part_idx].append(traj)
            else:
                parts[part_idx].append(traj.slice_samples(lo, hi))
        offset += n
    for name, part in zip(names, parts):
        if not part:
            raise ValueError(f"{name} part is empty; dataset is too small for this split")
    return parts


def _errors(R: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """R [theta^T; -I]: its column norms are those of the prediction errors."""
    p = theta.shape[1]
    return R[:, :p] @ theta.T - R[:, p:]


def fit(matrices: DataMatrices, config: FitConfig) -> KoopmanModel:
    """Solve for [A B] from the R factor of the stacked pairs.

    With ridge = 0 the problem must be full rank; a rank-deficient stack
    raises RankDeficientDataError suggesting a ridge. A ridge folds the rows
    sqrt(ridge) [I 0] into a copy of R. The fit residual and the condition
    number of the (ridged) regressor go into the model provenance.
    """
    N = matrices.basis.lifted_dim
    p = N + 1
    T = matrices.T
    if T < p and config.ridge == 0.0:
        raise ValueError(
            f"{T} transition pairs cannot determine {p} columns; "
            "add data or use ridge > 0"
        )
    R = matrices.R
    if config.ridge > 0.0:
        prior = math.sqrt(config.ridge) * np.eye(p, len(R))
        R_solve = np.linalg.qr(np.vstack([R, prior]), mode="r")
    else:
        R_solve = R
    R11, R12 = R_solve[:p, :p], R_solve[:p, p:]
    svals = np.linalg.svd(R11, compute_uv=False)
    rank = int(np.sum(svals > max(T, p) * np.finfo(float).eps * svals[0]))
    if config.ridge == 0.0 and rank < p:
        raise RankDeficientDataError(
            f"stacked data matrix has rank {rank} < {p}; the regression is "
            "degenerate (insufficient excitation). Use ridge > 0 or richer data."
        )
    theta = np.linalg.solve(R11, R12).T
    residual = float(np.linalg.norm(_errors(R, theta)))
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else float("inf")
    provenance = {
        "fitted_by": "edmd.fit",
        "pairs": T,
        "ridge": config.ridge,
        "residual_fro": residual,
        "condition_number": cond,
        "basis": f"monomials of degree 1..{matrices.basis.max_degree}",
        "scaled": matrices.basis.scale is not None,
    }
    return KoopmanModel.from_stacked(matrices.basis, theta, matrices.sample_period, provenance)


def _one_step_rmse(model: KoopmanModel, matrices: DataMatrices) -> tuple[float, float]:
    # the identity columns of the lifted error, in physical units
    err = _errors(matrices.R, model.stacked())[:, :2]
    rms = np.sqrt(np.sum(err**2, axis=0) / matrices.T) * (matrices.basis.scale or (1.0, 1.0))
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
    scaler: dict | None
    one_step_rmse_v_mps: dict
    one_step_rmse_f_n: dict

    def to_dict(self) -> dict:
        return asdict(self)


def fit_trajectories(trajectories, config: FitConfig) -> tuple[KoopmanModel, FitReport]:
    """Split, lift, and fit a set of recorded trajectories.

    The pre-scale (if any) is computed from the training part only: per
    channel, the power of two nearest to its peak magnitude. The report
    carries one-step prediction errors in physical units for all three parts.
    """
    train, val, test = split_dataset(trajectories, config.split)
    scale = None
    if config.scaling == "pow2":
        scale = (pow2_scale(max(np.max(np.abs(traj.v)) for traj in train), "v"),
                 pow2_scale(max(np.max(np.abs(traj.f_tr)) for traj in train), "f_tr"))
    basis = LiftedBasis(max_degree=config.max_degree, scale=scale)
    mats = {name: build_matrices(part, basis)
            for name, part in (("train", train), ("validation", val), ("test", test))}
    model = fit(mats["train"], config)
    rmse_v, rmse_f = {}, {}
    for name, mm in mats.items():
        rv, rf = _one_step_rmse(model, mm)
        rmse_v[name] = rv
        rmse_f[name] = rf
    report = FitReport(
        split_samples={name: sum(len(t) for t in part)
                       for name, part in (("train", train), ("validation", val), ("test", test))},
        split_pairs={name: mm.T for name, mm in mats.items()},
        residual_fro=model.provenance["residual_fro"],
        condition_number=model.provenance["condition_number"],
        ridge=config.ridge,
        max_degree=config.max_degree,
        scaling=config.scaling,
        scaler=basis.to_dict()["scaler"],
        one_step_rmse_v_mps=rmse_v,
        one_step_rmse_f_n=rmse_f,
    )
    return model, report
