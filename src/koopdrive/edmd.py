"""Offline least-squares identification of the lifted dynamics.

Transition pairs are assembled trajectory by trajectory, so a pair never
straddles the boundary between two recordings. With X holding lifted states,
X_plus their successors, and U the advisory speeds (one row), the stacked
block [A B] solves

    min || X_plus - [A B] [X; U] ||_F

optionally with a ridge penalty ridge * ||[A B]||_F^2. The solver is an
SVD-backed least squares with singular values below
max(T, N+1) * eps * sigma_max treated as zero.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .basis import LiftedBasis, StateScaler
from .model import KoopmanModel

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


class RankDeficientDataError(ValueError):
    """The stacked data matrix is rank deficient and no ridge was requested."""


@dataclass(frozen=True)
class FitConfig:
    """Settings for an offline fit.

    scaling selects the pre-scaler applied before lifting: "pow2" rounds the
    per-channel data magnitude to the nearest power of two (exact to invert),
    "none" lifts raw physical units.
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
    """Column-aligned regression data: X, X_plus (N x T) and U (1 x T)."""

    X: np.ndarray
    X_plus: np.ndarray
    U: np.ndarray
    basis: LiftedBasis
    sample_period: float

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.X_plus = np.asarray(self.X_plus, dtype=float)
        self.U = np.asarray(self.U, dtype=float)
        N = self.basis.lifted_dim
        if self.X.ndim != 2 or self.X.shape[0] != N:
            raise ValueError(f"X must be ({N}, T), got {self.X.shape}")
        if self.X_plus.shape != self.X.shape:
            raise ValueError(f"X_plus shape {self.X_plus.shape} must match X {self.X.shape}")
        if self.U.shape != (1, self.X.shape[1]):
            raise ValueError(f"U must be (1, {self.X.shape[1]}), got {self.U.shape}")
        for name in ("X", "X_plus", "U"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite values")
        if not self.sample_period > 0:
            raise ValueError(f"sample_period must be positive, got {self.sample_period}")

    @property
    def T(self) -> int:
        return self.X.shape[1]


def build_matrices(trajectories, basis: LiftedBasis) -> DataMatrices:
    """Lift trajectories into regression matrices.

    Columns are ordered trajectory by trajectory and time step by time step;
    every trajectory of k samples contributes k - 1 transition pairs.
    """
    trajectories = list(trajectories)
    if not trajectories:
        raise ValueError("need at least one trajectory")
    period = trajectories[0].sample_period
    for i, traj in enumerate(trajectories):
        if abs(traj.sample_period - period) > 1e-12 * period:
            raise ValueError(
                f"trajectory {i} has sample_period {traj.sample_period}, expected {period}"
            )
    X_blocks, Xp_blocks, U_blocks = [], [], []
    for traj in trajectories:
        Z = basis.lift_many(traj.states())
        X_blocks.append(Z[:-1])
        Xp_blocks.append(Z[1:])
        U_blocks.append(traj.v_ref[:-1])
    X = np.vstack(X_blocks).T
    X_plus = np.vstack(Xp_blocks).T
    U = np.concatenate(U_blocks)[None, :]
    return DataMatrices(X=X, X_plus=X_plus, U=U, basis=basis, sample_period=period)


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


def fit(matrices: DataMatrices, config: FitConfig) -> KoopmanModel:
    """Solve for [A B] from assembled data matrices.

    With ridge = 0 the problem must be full rank; a rank-deficient stack
    raises RankDeficientDataError suggesting a ridge. The fit residual and
    the condition number of the regressor go into the model provenance.
    """
    N = matrices.basis.lifted_dim
    p = N + 1
    T = matrices.T
    if T < p and config.ridge == 0.0:
        raise ValueError(
            f"{T} transition pairs cannot determine {p} columns; "
            "add data or use ridge > 0"
        )
    G = np.vstack([matrices.X, matrices.U]).T  # (T, p)
    Y = matrices.X_plus.T  # (T, N)
    rcond = max(T, p) * np.finfo(float).eps
    if config.ridge > 0.0:
        G_solve = np.vstack([G, math.sqrt(config.ridge) * np.eye(p)])
        Y_solve = np.vstack([Y, np.zeros((p, N))])
    else:
        G_solve, Y_solve = G, Y
    sol, _, rank, svals = np.linalg.lstsq(G_solve, Y_solve, rcond=rcond)
    if config.ridge == 0.0 and rank < p:
        raise RankDeficientDataError(
            f"stacked data matrix has rank {rank} < {p}; the regression is "
            "degenerate (insufficient excitation). Use ridge > 0 or richer data."
        )
    theta = sol.T
    residual = float(np.linalg.norm(Y - G @ sol))
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else float("inf")
    provenance = {
        "fitted_by": "edmd.fit",
        "pairs": T,
        "ridge": config.ridge,
        "residual_fro": residual,
        "condition_number": cond,
        "basis": f"monomials of degree 1..{matrices.basis.max_degree}",
        "scaled": matrices.basis.scaler is not None,
    }
    return KoopmanModel.from_stacked(matrices.basis, theta, matrices.sample_period, provenance)


def _one_step_rmse(model: KoopmanModel, matrices: DataMatrices) -> tuple[float, float]:
    pred = model.stacked() @ np.vstack([matrices.X, matrices.U])
    pred_phys = matrices.basis.project_many(pred.T)
    true_phys = matrices.basis.project_many(matrices.X_plus.T)
    err = pred_phys - true_phys
    rms = np.sqrt(np.mean(err**2, axis=0))
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

    The scaler (if any) is computed from the training part only. The report
    carries one-step prediction errors in physical units for all three parts.
    """
    train, val, test = split_dataset(trajectories, config.split)
    if config.scaling == "pow2":
        peak = np.zeros(2)
        for traj in train:
            peak = np.maximum(peak, np.max(np.abs(traj.states()), axis=0))
        scaler = StateScaler.pow2_from_data(peak[None, :])
    else:
        scaler = None
    basis = LiftedBasis(max_degree=config.max_degree, scaler=scaler)
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
        scaler=scaler.to_dict() if scaler is not None else None,
        one_step_rmse_v_mps=rmse_v,
        one_step_rmse_f_n=rmse_f,
    )
    return model, report
