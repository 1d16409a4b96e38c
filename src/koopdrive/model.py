"""Lifted linear driver-response model: prediction, rollout, persistence.

A model is the triple (A, B, basis) together with the sample period. One
prediction step advances the lifted vector z by A @ z + B @ u, where u is the
advisory speed, the one exogenous input, so B is a single column. The
physical state (v, f_tr) is read out of the first two entries of z (the
identity observables), so the readout matrix is [I 0] by construction and
is not stored.

A rollout lifts the initial state once and solves the linear recurrence
z[k + 1] = A z[k] + B u[k] over one preallocated (L + 1) x N array by a
doubling (Hillis-Steele) scan: ceil(log2(L + 1)) passes, each one matrix
product of the array with a power A^s, s = 1, 2, 4, ..., where a step loop
makes L small products. The powers come from squaring, and squaring a
non-normal A (an RLS snapshot can have a 2-norm near 100 at spectral radius
near 1) rounds far worse than stepping does: against a long-double step
loop, the plain scan of the worst snapshot of the shipped distracted-driver
replay was off by 7e-8 of the largest state over 2000 steps, the float loop
by 7e-11. So the residual of the recurrence, one more product, is scanned
with the same powers and added back, one step of iterative refinement,
which brings the scan back to 1.3e-10 there. The tests keep the step loop
as the reference and hold the scan to 1e-12 of each channel's largest value
on random models and to 1e-9 on every snapshot of that replay. A rollout
reports the first step whose state is not finite; where a power overflows
before the state does, that is the power's step (see KoopmanModel.rollout).
Its forecast Trajectory is not validated again: the inputs, the initial
state and every state are checked finite on the way and the time column is
an arange of the sample period.
Trajectory.slice_samples copies a slice of an already validated trajectory
and does not validate it again either; both build their result through
_trusted_trajectory. KoopmanModel.from_stacked checks the stacked block
[A B] once and does not check the copies of A and B again.

Model files are JSON documents carrying the basis metadata, the matrices at
full decimal precision, and free-form provenance left by the fitting code.
A reload builds the model through its constructor, so a file passes the same
checks as a model made in memory, and reproduces the matrices bit for bit.

The number rule and the time grid are one rule each, kept here. _is_number
accepts a real (or integral) value with a finite float that is not a bool,
and _check_fields holds the int, float, tuple[float, ...] and X | None
fields of a config dataclass to it. _check_sample_period accepts a positive
period that is a number, _check_spacing holds every step of a time column to
2e-9 relative of the period, and _samples turns a duration in seconds into a
count of sample periods, raising ValueError when the duration is no number
or that count is not finite. Each caller rounds the count its own way.

Every table and JSON file of the package is written by the two writers here,
_write_csv_table and _write_json, or, for trajectories, by the row template
of Trajectory.write_csv. A float cell is the repr of its value, the shortest
string that reads back to the same float, and a file appears atomically
(temp file plus rename).
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .basis import LiftedBasis

SCHEMA_VERSION = 1
_MODEL_KIND = "lifted_linear_driver_model"

TRAJECTORY_CSV_HEADER = "t_s,v_mps,f_tr_n,v_ref_mps"

__all__ = [
    "Trajectory",
    "KoopmanModel",
    "ModelFileError",
    "RolloutDivergenceError",
    "SCHEMA_VERSION",
    "TRAJECTORY_CSV_HEADER",
]


class ModelFileError(ValueError):
    """A model file is missing, malformed, or inconsistent."""


class RolloutDivergenceError(ArithmeticError):
    """A rollout produced a non-finite value; carries the failing step index."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"rollout diverged at step {step}: non-finite value")


@dataclass
class Trajectory:
    """Uniformly sampled record of (time, speed, traction force, advisory)."""

    sample_period: float
    t: np.ndarray
    v: np.ndarray
    f_tr: np.ndarray
    v_ref: np.ndarray

    def __post_init__(self):
        _check_sample_period(self.sample_period)
        for name in ("t", "v", "f_tr", "v_ref"):
            arr = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, arr)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one dimensional")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
        n = len(self.t)
        if n < 2:
            raise ValueError(f"a trajectory needs at least 2 samples, got {n}")
        for name in ("v", "f_tr", "v_ref"):
            if len(getattr(self, name)) != n:
                raise ValueError("all trajectory columns must have the same length")
        _check_spacing("time", self.t, self.sample_period)

    def __len__(self) -> int:
        return len(self.t)

    def states(self) -> np.ndarray:
        """(k, 2) array of (v, f_tr) rows."""
        return np.column_stack([self.v, self.f_tr])

    def slice_samples(self, start: int, stop: int) -> "Trajectory":
        """Copy of samples start to stop - 1, not validated again.

        A contiguous slice of a validated trajectory inherits its finiteness
        and spacing, so only the slice bounds and its length are checked.
        """
        if not 0 <= start < stop <= len(self):
            raise ValueError(f"bad sample slice [{start}, {stop}) for length {len(self)}")
        if stop - start < 2:
            raise ValueError(f"a trajectory needs at least 2 samples, got {stop - start}")
        return _trusted_trajectory(self.sample_period, self.t[start:stop].copy(),
                                   self.v[start:stop].copy(), self.f_tr[start:stop].copy(),
                                   self.v_ref[start:stop].copy())

    def segment_indices(self, t_start: float, t_end: float) -> tuple[int, int]:
        """First and last index of the samples with t in [t_start, t_end].

        Raises ValueError unless t_start < t_end, the segment lies inside the
        trajectory and it covers at least 2 samples.
        """
        if not t_start < t_end:
            raise ValueError(f"segment must satisfy t_start < t_end, got [{t_start}, {t_end}]")
        span = f"segment [{t_start}, {t_end}]"
        i0 = int(math.ceil(_samples(f"{span} start", t_start - self.t[0],
                                    self.sample_period) - 1e-9))
        i1 = int(math.floor(_samples(f"{span} end", t_end - self.t[0],
                                     self.sample_period) + 1e-9))
        if i0 < 0 or i1 > len(self) - 1:
            raise ValueError(
                f"{span} extends beyond the trajectory [{self.t[0]}, {self.t[-1]}]"
            )
        if i1 - i0 < 1:
            raise ValueError(f"{span} covers fewer than 2 samples")
        return i0, i1

    def window(self, t_start: float, t_end: float) -> "Trajectory":
        """Sub-trajectory of samples with t in [t_start, t_end]."""
        i0, i1 = self.segment_indices(t_start, t_end)
        return self.slice_samples(i0, i1 + 1)

    def write_csv(self, path: str, template: str | None = None) -> None:
        """Write the CSV, each cell the repr of its float.

        The rows are filled from template, _row_template(t, v_ref): the
        formatted t and v_ref cells with %r slots for v and f_tr. A writer of
        several trajectories may pass one made from columns with exactly the
        same bytes as this one's t and v_ref; it is not checked against them.
        """
        if template is None:
            template = _row_template(self.t, self.v_ref)
        values = np.column_stack((self.v, self.f_tr)).ravel().tolist()
        _atomic_write_text(path, TRAJECTORY_CSV_HEADER + "\n" + template % tuple(values))

    @classmethod
    def read_csv(cls, path: str) -> "Trajectory":
        """Read a trajectory CSV; each column is its own contiguous array.

        No column is a view into the (n, 4) parse buffer, so that buffer is
        freed on return and a caller may drop or share single columns.
        """
        data = _read_csv_table(path, TRAJECTORY_CSV_HEADER, 4, "trajectory")
        t, v, f_tr, v_ref = (data[:, j].copy() for j in range(4))
        period = float(np.median(np.diff(t)))
        return cls(sample_period=period, t=t, v=v, f_tr=f_tr, v_ref=v_ref)


def _row_template(t: np.ndarray, v_ref: np.ndarray) -> str:
    """The trajectory CSV rows of columns t and v_ref, each cell the repr of
    its float, with %r slots for v and f_tr."""
    # repr (%r) is the shortest string that round-trips a float exactly
    return "".join([f"{a!r},%r,%r,{r!r}\n" for a, r in zip(t.tolist(), v_ref.tolist())])


def _trusted_trajectory(sample_period: float, t: np.ndarray, v: np.ndarray, f_tr: np.ndarray,
                        v_ref: np.ndarray) -> Trajectory:
    """A Trajectory of columns the caller has already checked, built without
    running the constructor's checks again."""
    out = object.__new__(Trajectory)
    out.sample_period = sample_period
    out.t = t
    out.v = v
    out.f_tr = f_tr
    out.v_ref = v_ref
    return out


def _read_csv_table(path: str, header: str, columns: int, kind: str) -> np.ndarray:
    """At least 2 rows of `columns` numbers from a CSV file headed by `header`."""
    with open(path, "r", encoding="utf-8") as fh:
        found = fh.readline().strip()
        if found != header:
            raise ValueError(f"{path}: expected header '{header}', found '{found}'")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed {kind} row: {exc}") from None
    if data.shape[0] < 2 or data.shape[1] != columns:
        raise ValueError(f"{path}: expected at least 2 rows of {columns} columns, got {data.shape}")
    return data


def _atomic_write_text(path: str, text: str) -> None:
    # 0o666 less the umask, as open(path, "w") would give; mkstemp's 0o600
    # would survive the rename
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp_{os.urandom(8).hex()}.part")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv_table(path: str, header: str, rows) -> None:
    """Write a CSV table whose cells are the %s of tolist() values.

    %s of a Python float is its repr; pass a bool column as ints.
    """
    row = ",".join(["%s"] * (header.count(",") + 1))
    _atomic_write_text(path, "\n".join([header] + [row % tuple(r) for r in rows]) + "\n")


def _write_json(path: str, payload) -> None:
    # a float64 is a float and writes as its repr, an array as its tolist()
    _atomic_write_text(path, json.dumps(payload, indent=2, default=lambda o: o.tolist()) + "\n")


def _is_number(value, kind=numbers.Real) -> bool:
    """value is an instance of kind, not a bool (an int to isinstance), and has
    a finite float; an integer too large for a float has none."""
    if isinstance(value, bool) or not isinstance(value, kind):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_fields(obj) -> None:
    """Raise ValueError naming the first int field of obj that holds no
    integer, or float field that holds no number, or tuple[float, ...] field
    that holds no tuple of numbers; an X | None field may also hold None.
    Annotations are strings under `from __future__ import annotations`."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        kind = f.type.removesuffix(" | None")
        if value is None and kind != f.type:
            continue
        if kind == "int" and not _is_number(value, numbers.Integral):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if (kind == "float" and not _is_number(value)
                or kind == "tuple[float, ...]"
                and not (isinstance(value, tuple) and all(map(_is_number, value)))):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


def _check_sample_period(period) -> None:
    if not (_is_number(period) and period > 0):
        raise ValueError(f"sample_period must be a positive finite number, got {period!r}")


def _check_spacing(what: str, t: np.ndarray, period: float) -> None:
    """Raise ValueError naming the worst sample unless every step of t is
    within 2e-9 relative of period, which for a finite t and period > 0 is
    np.allclose(np.diff(t), period, rtol=1e-9, atol=1e-9 * period)."""
    dt = np.diff(t)
    off = np.abs(dt - period)
    if not np.all(off <= 2e-9 * period):
        worst = int(np.argmax(off))
        raise ValueError(f"{what} spacing must equal sample_period={period}; "
                         f"sample {worst} has spacing {dt[worst]}")


def _samples(what: str, seconds, period: float) -> float:
    """seconds in sample periods, unrounded: each caller rounds the count its
    own way. For a valid period, a non-finite count means seconds is no
    finite number or the division overflowed; either raises ValueError."""
    steps = float(seconds) / float(period) if _is_number(seconds) else math.inf
    if not math.isfinite(steps):
        raise ValueError(f"{what} of {seconds} s over sample_period={period} s "
                         f"is not a finite number of samples")
    return steps


def _check_same_sample_period(what: str, period: float, reference: str, expected: float) -> None:
    """Raise ValueError naming both periods unless period equals expected to
    2e-9 relative, the rule between training trajectories and between a
    model and the data it is evaluated on or updated with.

    It is the spacing tolerance a Trajectory accepts: a period read as the
    median spacing of t = arange(n) * T is off by up to a few ulps of t,
    3.6e-12 relative for T = 0.025 s past t = 1024 s."""
    if abs(period - expected) > 2e-9 * expected:
        raise ValueError(f"{what} has sample_period {period}, but {reference} has {expected}")


def _doubling_scan(W: np.ndarray, powers) -> None:
    """Run the recurrence W[k] += A W[k - 1], k = 1, 2, ..., in place, given
    the transposed powers (s, (A^s)^T) for s = 1, 2, 4, ... up to at least
    len(W) - 1.

    A Hillis-Steele scan: after the pass at stride s, row k holds the sum over
    j < 2s of A^j times the row written j rows above it. The powers are kept
    as contiguous transposes, which BLAS multiplies faster than A^s.T views.
    """
    for s, At in powers:
        W[s:] += W[:-s].dot(At)


@dataclass
class KoopmanModel:
    """Linear recursion in lifted coordinates driven by the advisory speed."""

    basis: LiftedBasis
    A: np.ndarray
    B: np.ndarray
    sample_period: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        N = self.basis.lifted_dim
        if self.A.shape != (N, N):
            raise ValueError(f"A must be ({N}, {N}) for this basis, got {self.A.shape}")
        if self.B.shape != (N, 1):
            raise ValueError(f"B must be ({N}, 1) for this basis, got {self.B.shape}")
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.B))):
            raise ValueError("model matrices must be finite")
        _check_sample_period(self.sample_period)

    @property
    def lifted_dim(self) -> int:
        return self.basis.lifted_dim

    @classmethod
    def from_stacked(cls, basis: LiftedBasis, theta: np.ndarray, sample_period: float,
                     provenance: dict | None = None) -> "KoopmanModel":
        """Build a model from the stacked parameter block [A B].

        A and B are copied out of theta once, so the model never shares
        memory with theta, and the constructor's checks run once on theta
        rather than again on the copies.
        """
        theta = np.asarray(theta, dtype=float)
        N = basis.lifted_dim
        if theta.shape != (N, N + 1):
            raise ValueError(f"stacked block must be ({N}, {N + 1}), got {theta.shape}")
        if not np.isfinite(theta).all():
            raise ValueError("model matrices must be finite")
        _check_sample_period(sample_period)
        model = object.__new__(cls)
        model.basis = basis
        model.A = theta[:, :N].copy()
        model.B = theta[:, N:].copy()
        model.sample_period = sample_period
        model.provenance = provenance or {}
        return model

    def stacked(self) -> np.ndarray:
        return np.hstack([self.A, self.B])

    def rollout(self, x0, inputs) -> Trajectory:
        """Simulate the model forward from a physical initial state.

        inputs is the advisory speed series, one value per step; the returned
        trajectory has len(inputs) + 1 samples. The state is lifted once,
        propagated linearly by a doubling scan, and read back out of the
        identity block. The scan needs ceil(log2(L + 1)) passes over the L
        steps, each one matrix product, where a step loop makes L; it sums
        the same terms in another order, and one refinement pass keeps it
        within the tested bounds of the loop (see the module docstring):
        1e-12 of a channel's largest value on random models of spectral
        radius 0.9-1.02, 1e-9 on the shipped replay's snapshots. One pass
        does not reach the loop's accuracy for a strongly non-normal A: on
        a synthetic A with 2-norm about 7, the 2000-step scan was 3.1e-9 of
        a channel's largest value off a long-double loop, the float loop
        1.5e-11. The inputs are checked first, then x0, once, by
        basis.lift.

        Raises RolloutDivergenceError naming the first step whose lifted
        state is not finite. That is the step a per-step loop stops at,
        with one exception: the scan multiplies by the powers A^p for
        p = 1, 2, 4, ... <= L, so a power that overflows while the state
        stays in a subspace that does not grow (A = diag(1e3, 0.5, ...)
        from v = 0) is reported at step p, where the loop stays finite.
        """
        u = np.asarray(inputs, dtype=float)
        if u.ndim != 1 or len(u) == 0:
            raise ValueError("inputs must be a nonempty 1-D array of advisory speeds")
        if not np.isfinite(u).all():
            raise ValueError("inputs must be finite")

        x0 = np.asarray(x0, dtype=float)
        L = len(u)
        states = np.empty((L + 1, 2))

        # overflow is the divergence signal itself, reported with the step
        # index below rather than as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            # Z[k + 1] = A Z[k] + B u[k], the input term written first
            Z = np.empty((L + 1, self.lifted_dim))
            Z[0] = self.basis.lift(x0)  # the one check of x0: shape (2,), finite
            # np.outer's products; a k = 1 matrix product would turn -0.0 into +0.0
            G = u[:, None] * self.B[:, 0]
            Z[1:] = G
            At = self.A.T.copy()
            powers = [(1, At)]  # (s, (A^s)^T) for the strides s <= L, by squaring
            while 2 * powers[-1][0] <= L:
                s, Pt = powers[-1]
                powers.append((2 * s, Pt.dot(Pt)))
            _doubling_scan(Z, powers)
            # squaring a non-normal A rounds worse than L steps do; the
            # residual of each step, scanned the same way, is the correction
            # (one step of iterative refinement)
            R = Z[:-1].dot(At)
            R += G
            R -= Z[1:]
            _doubling_scan(R, powers)
            Z[1:] += R
            if not np.isfinite(Z[1:]).all():
                # the first non-finite row is the step reported
                diverged = ~np.isfinite(Z[1:]).all(axis=1)
                raise RolloutDivergenceError(step=int(np.argmax(diverged)) + 1)
            states[0] = x0
            states[1:] = self.basis.project_many(Z[1:])

        # u, x0 and every state are finite and t is uniform by construction,
        # so the constructor's checks would find nothing
        v_ref = np.empty(L + 1)
        v_ref[:L] = u
        v_ref[L] = u[-1]  # advisory held through the end
        return _trusted_trajectory(self.sample_period, np.arange(L + 1) * self.sample_period,
                                   states[:, 0], states[:, 1], v_ref)

    def save(self, path: str) -> None:
        _write_json(path, {
            "kind": _MODEL_KIND,
            "schema_version": SCHEMA_VERSION,
            "basis": self.basis.to_dict(),
            "sample_period": self.sample_period,
            "input_dim": 1,
            "A": self.A,
            "B": self.B,
            "provenance": self.provenance,
        })

    @classmethod
    def load(cls, path: str) -> "KoopmanModel":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFileError(f"{path}: not valid JSON: {exc}") from None
        if not isinstance(payload, dict) or payload.get("kind") != _MODEL_KIND:
            raise ModelFileError(f"{path}: not a model file (missing kind tag)")
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ModelFileError(
                f"{path}: unsupported schema_version {version!r}, expected {SCHEMA_VERSION}"
            )
        input_dim = payload.get("input_dim")
        if input_dim != 1:
            raise ModelFileError(f"{path}: input_dim must be 1 (the advisory speed), "
                                 f"got {input_dim!r}")
        try:
            basis = LiftedBasis.from_dict(payload["basis"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFileError(f"{path}: invalid basis metadata: {exc}") from None
        provenance = payload.get("provenance") or {}
        if not isinstance(provenance, dict):
            raise ModelFileError(f"{path}: provenance must be an object")
        try:
            return cls(basis=basis, A=payload.get("A"), B=payload.get("B"),
                       sample_period=payload.get("sample_period"), provenance=provenance)
        except (TypeError, ValueError) as exc:
            raise ModelFileError(f"{path}: {exc}") from None
