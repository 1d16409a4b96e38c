"""Lifted linear driver-response model: prediction, rollout, persistence.

A model is the basis, the parameter block theta = [A B] and the sample
period. One prediction step advances the lifted vector z by A @ z + B @ u,
where u is the advisory speed, the one exogenous input, so B is a single
column and theta is N x (N + 1). Every model, fitted, adapted or loaded, is
built by the KoopmanModel constructor, which copies theta and checks its
shape, its finiteness and the sample period once; A and B are views of it.
The physical state (v, f_tr) is read out of the first two entries of z (the
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
Trajectory.slice_samples hands out a slice of an already validated
trajectory as views of its columns, copying nothing, and does not validate
it again either; both build their result through _trusted_trajectory, the
one slicing rule that Trajectory.window and every span of pairs go
through.
_pair_blocks is the one pair-block rule: pairs lo..hi - 1 read samples
lo..hi, so it cuts pairs start..stop - 1 into blocks of a given size, only
the last one shorter, and yields each block's bounds with the span
slice_samples(lo, hi + 1). Every fold block, tick, scored window and split
part is cut here: edmd.build_matrices takes its fold blocks from it,
rls.stream_ticks its ticks, evaluate.evaluate_horizons its scored windows,
the whole blocks of one horizon's steps each, and their starts, and
edmd.split_dataset each recording's share of a part as one block of the
pairs wholly inside the part's cut; evaluate cuts a window when it scores
it, or reads its start, and drops it after. So no other module cuts a span
of pairs, and no module but this one calls slice_samples (a lint holds it).
_pairs is the one pair rule: it lifts a span once, through the one lift
kernel basis.lift_many, and returns Z = [psi | u] and psi, so pair i is
(Z[i], psi[i + 1]), regressor and target. edmd.build_matrices takes each
fold block's pairs from it and rls.update_tick each tick's.
_window_errors scores a window's span by the same rule: it rolls out from
its first state through the pairs' inputs and returns the speed and force
errors against the pairs' targets, so evaluate only chooses the windows
and pools their errors. None of edmd, rls and evaluate reads a v_ref
column or calls a lift itself, evaluate reads no t, v or f_tr column
either, and lints hold all three.

Model files are JSON documents carrying the basis block, A and B at full
decimal precision, and free-form provenance left by the fitting code. The
format is decided here alone: KoopmanModel.save writes the basis block,
{"state_dim": 2, "max_degree": d, "monomials": [...], "scaler": {"scale":
[...], "offset": [0.0, 0.0]}}, whose monomials follow from d, and
KoopmanModel.load checks it in one place: a state_dim, max_degree or
monomial exponent that is no integer, a state_dim other than 2, a missing or
null scaler, another offset, another monomial list (its length first,
against the count basis._monomial_count gives, so a huge degree is refused
before its basis is built), or a scale that is not two positive finite
powers of two, is rejected. _scaler builds the scaler object, which the fit
report copies. A reload checks A's and B's shapes, stacks them and builds
the model through its constructor, so a file passes the same checks as a
model made in memory, and reproduces the matrices bit for bit.

The number rule, the time grid and the numerical-error rule are one rule
each, kept here. _is_number accepts a real (or integral) value with a finite
float that is not a bool, and _check_fields holds the int, float,
tuple[float, ...] and X | None fields of a config dataclass to it.
_check_sample_period accepts a positive period that is a number,
_check_spacing holds every step of a time column (or of a route's node
positions) to 2e-9 relative of the period, and _samples turns a duration in
seconds into a count of sample periods, raising ValueError when the
duration is no number or that count is not finite. Each caller rounds the
count its own way.

Under the numerical-error rule a numerical step gives numpy's default-mode
values and verdict whatever error handling the caller set (a warnings
filter, or np.errstate / np.seterr with "raise" among its actions), and the
checks after the step (finiteness, a rank rule) decide. A block step runs
under np.errstate(all="ignore"): the rollout's scan, edmd.build_matrices'
pairs, and the window errors (_window_errors run under evaluate's errstate)
with their RMSE. _pairs and the RLS tick keep a fast path that enters no
np.errstate; each of their handlers catches RuntimeWarning and
FloatingPointError and calls its own function again under
np.errstate(all="ignore"). A lint in the tests holds every
np.errstate call and every such handler to this form.

Every table and JSON file of the package is written by the two writers here,
_write_csv_table and _write_json, or, for trajectories, by the row template
of Trajectory.write_csv. A float cell is the repr of its value, the shortest
string that reads back to the same float, and a file appears atomically
(temp file plus rename). The row template holds the t and v_ref cells of a
trajectory; _row_template keeps the last one it made, keyed on the exact
bytes of both columns, so a roster on one time grid following one advisory
formats them once per process, and a -0.0 never reuses a "0.0".
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .basis import LiftedBasis, _monomial_count

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
        """Samples start to stop - 1 as views of this trajectory's columns,
        not validated again.

        A contiguous slice of a validated trajectory inherits its finiteness
        and spacing, so only the slice bounds and its length are checked.
        Nothing is copied: a slice of a read-only column (a roster column
        that cli._read_trajectories shares) is read-only, and a write
        through a slice of a writable column reaches this trajectory.
        Nothing in the package writes a trajectory's columns after
        construction.
        """
        if not 0 <= start < stop <= len(self):
            raise ValueError(f"bad sample slice [{start}, {stop}) for length {len(self)}")
        if stop - start < 2:
            raise ValueError(f"a trajectory needs at least 2 samples, got {stop - start}")
        part = slice(start, stop)
        return _trusted_trajectory(self.sample_period, self.t[part], self.v[part],
                                   self.f_tr[part], self.v_ref[part])

    def segment_indices(self, t_start: float, t_end: float) -> tuple[int, int]:
        """First and last index of the samples with t in [t_start, t_end].

        The bounds are found in the t column itself, with a millionth of a
        period to spare, so the rounding of a period read from t (the median
        spacing of arange(n) * 0.025 can be 5.7e-14 relative short) does not
        move them by a sample. Raises ValueError
        unless t_start < t_end, both bounds are a finite number of sample
        periods from the first sample, the segment lies inside the
        trajectory and it covers at least 2 samples.
        """
        if not t_start < t_end:
            raise ValueError(f"segment must satisfy t_start < t_end, got [{t_start}, {t_end}]")
        span = f"segment [{t_start}, {t_end}]"
        for name, bound in (("start", t_start), ("end", t_end)):
            _samples(f"{span} {name}", bound - self.t[0], self.sample_period)
        slack = 1e-6 * self.sample_period
        if t_start < self.t[0] - slack or t_end > self.t[-1] + slack:
            raise ValueError(
                f"{span} extends beyond the trajectory [{self.t[0]}, {self.t[-1]}]"
            )
        i0 = int(np.searchsorted(self.t, t_start - slack))
        i1 = int(np.searchsorted(self.t, t_end + slack, side="right")) - 1
        if i1 - i0 < 1:
            raise ValueError(f"{span} covers fewer than 2 samples")
        return i0, i1

    def window(self, t_start: float, t_end: float) -> "Trajectory":
        """Sub-trajectory of samples with t in [t_start, t_end], as views
        (see slice_samples)."""
        i0, i1 = self.segment_indices(t_start, t_end)
        return self.slice_samples(i0, i1 + 1)

    def write_csv(self, path: str) -> None:
        """Write the CSV, each cell the repr of its float, the rows filled
        from the row template of this trajectory's t and v_ref bytes."""
        template = _row_template(self.t.tobytes(), self.v_ref.tobytes())
        values = np.column_stack((self.v, self.f_tr)).ravel().tolist()
        _atomic_write_text(path, TRAJECTORY_CSV_HEADER + "\n" + template % tuple(values))

    @classmethod
    def read_csv(cls, path: str) -> "Trajectory":
        """Read a trajectory CSV; each column is its own contiguous array.

        No column is a view into the (n, 4) parse buffer, so that buffer is
        freed on return and a caller may drop or share single columns. A
        ValueError, also one from the constructor's checks, names path.
        """
        data = _read_csv_table(path, TRAJECTORY_CSV_HEADER, 4, "trajectory")
        t, v, f_tr, v_ref = (data[:, j].copy() for j in range(4))
        period = float(np.median(np.diff(t)))
        try:
            return cls(sample_period=period, t=t, v=v, f_tr=f_tr, v_ref=v_ref)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


@functools.lru_cache(maxsize=1)
def _row_template(t: bytes, v_ref: bytes) -> str:
    """The trajectory CSV rows of the float64 columns with bytes t and v_ref,
    each cell the repr of its float, with %r slots for v and f_tr."""
    # repr (%r) is the shortest string that round-trips a float exactly
    return "".join([f"{a!r},%r,%r,{r!r}\n" for a, r in zip(np.frombuffer(t).tolist(),
                                                           np.frombuffer(v_ref).tolist())])


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
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # named by path, not by the temp file
            raise type(exc)(exc.errno, exc.strerror, path) from None
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
        raise ValueError(f"{what} spacing must equal {period}; "
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


def _pair_blocks(traj: Trajectory, start: int, stop: int, size: int):
    """Pairs start..stop - 1 of traj in blocks of size pairs, only the last
    one shorter: yields (lo, hi, span) per block, span the samples lo..hi
    that pairs lo..hi - 1 read, as views (see Trajectory.slice_samples).

    The one place that turns a range of pairs into a span of samples: every
    fold block, tick, scored window and split part comes here. Raises
    ValueError before the first block unless 0 <= start <= stop < len(traj)
    and size >= 1.
    """
    if not 0 <= start <= stop < len(traj):
        raise ValueError(f"bad sample range [{start}, {stop}] for length {len(traj)}")
    if size < 1:
        raise ValueError(f"a block needs at least 1 pair, got size {size!r}")
    for lo in range(start, stop, size):
        hi = min(lo + size, stop)
        yield lo, hi, traj.slice_samples(lo, hi + 1)


def _pairs(basis: LiftedBasis, traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """The lifted transition pairs of traj: Z = [psi | u], one row per
    sample, and psi, so pair i is (Z[i], psi[i + 1]), its regressor and its
    target. The last row of Z is no pair's regressor.

    The one place that lifts a trajectory: every fit block and every tick
    comes here. A lift that overflows or underflows gives numpy's default
    values in every error mode, for the caller's checks to judge.
    """
    try:
        psi = basis.lift_many(traj.v, traj.f_tr)
    except (RuntimeWarning, FloatingPointError):
        with np.errstate(all="ignore"):
            return _pairs(basis, traj)
    return np.concatenate((psi, traj.v_ref[:, None]), axis=1), psi


def _window_errors(model: KoopmanModel, window: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Speed and force errors of model's forecast over the pairs of window, a
    span _pair_blocks cut: the rollout starts at the window's first state,
    is driven by the pairs' inputs and is compared with the pairs' targets,
    the states one sample on. The seeded first state is a measurement and
    has no error.
    """
    pred = model.rollout((window.v[0], window.f_tr[0]), window.v_ref[:-1])
    return pred.v[1:] - window.v[1:], pred.f_tr[1:] - window.f_tr[1:]


def _check_same_sample_period(what: str, period: float, reference: str, expected: float) -> None:
    """Raise ValueError naming both periods unless period equals expected to
    2e-9 relative, the rule between training trajectories and between a
    model and the data it is evaluated on or updated with.

    It is the spacing tolerance a Trajectory accepts: a period read as the
    median spacing of t = arange(n) * T is off by up to a few ulps of t,
    3.6e-12 relative for T = 0.025 s past t = 1024 s."""
    if abs(period - expected) > 2e-9 * expected:
        raise ValueError(f"{what} has sample_period {period}, but {reference} has {expected}")


def _scaler(basis: LiftedBasis) -> dict:
    """The model file's scaler object: the basis scale and a zero offset."""
    return {"scale": list(basis.scale), "offset": [0.0, 0.0]}


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
    """Linear recursion in lifted coordinates driven by the advisory speed:
    theta = [A B], a copy of the array passed in, with A and B views of it."""

    basis: LiftedBasis
    theta: np.ndarray
    sample_period: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        # what save writes, load must read back: an integer degree (a bool
        # lifts as one but is saved as true) and a provenance object
        if not _is_number(self.basis.max_degree, int):
            raise ValueError(f"basis max_degree must be an integer, got "
                             f"{self.basis.max_degree!r}")
        if not isinstance(self.provenance, dict):
            raise ValueError(f"provenance must be an object (a dict), got {self.provenance!r}")
        self.theta = np.array(self.theta, dtype=float)
        N = self.basis.lifted_dim
        if self.theta.shape != (N, N + 1):
            raise ValueError(f"theta must be ({N}, {N + 1}) for this basis, "
                             f"got {self.theta.shape}")
        if not np.isfinite(self.theta).all():
            raise ValueError("model matrices must be finite")
        _check_sample_period(self.sample_period)

    @property
    def A(self) -> np.ndarray:
        return self.theta[:, :self.basis.lifted_dim]

    @property
    def B(self) -> np.ndarray:
        return self.theta[:, self.basis.lifted_dim:]

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
        The scan is a block step of the module's numerical-error rule: an
        underflow gives numpy's default values and an overflow this error,
        whatever the caller's error handling.
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
        # index below rather than as a numpy warning or error
        with np.errstate(all="ignore"):
            # Z[k + 1] = A Z[k] + B u[k], the input term written first
            Z = np.empty((L + 1, self.basis.lifted_dim))
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
            "basis": {"state_dim": 2, "max_degree": self.basis.max_degree,
                      "monomials": [list(e) for e in self.basis.monomials],
                      "scaler": _scaler(self.basis)},
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
            doc = payload["basis"]
            for key in ("state_dim", "max_degree"):
                if not _is_number(doc[key], int):
                    raise ValueError(f"{key} must be an integer, got {doc[key]!r}")
            if doc["state_dim"] != 2:
                raise ValueError(f"state_dim must be 2, got {doc['state_dim']!r}")
            scaler = doc["scaler"]
            if not isinstance(scaler, dict):
                raise ValueError(f"scaler must be an object, got {scaler!r}")
            # floats only, as written: a JSON true or "0" is no number here
            offset = scaler["offset"]
            if not (len(offset) == 2 and all(isinstance(o, float) and o == 0.0 for o in offset)):
                raise ValueError(f"scaler offset must be [0.0, 0.0], got {offset!r}")
            degree, monomials = doc["max_degree"], doc["monomials"]
            # the count first, so a huge degree is refused before its basis is built
            count = _monomial_count(degree)
            if len(monomials) != count:
                raise ValueError(f"degree {degree} has {count} monomials, got {len(monomials)}")
            basis = LiftedBasis(max_degree=degree, scale=tuple(scaler["scale"]))
            canonical = [list(e) for e in basis.monomials]
            # 1.0 == 1 and True == 1, so equal lists may still hold no integers
            if monomials != canonical or not all(_is_number(e, int) for m in monomials for e in m):
                raise ValueError(f"monomials must be the integers {canonical} for degree {degree}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFileError(f"{path}: invalid basis metadata: {exc}") from None
        try:
            N = basis.lifted_dim
            blocks = []
            for key, shape in (("A", (N, N)), ("B", (N, 1))):
                # numpy reads a JSON true as 1.0 and a string "0.5" as 0.5
                rows = payload.get(key)
                bad = [x for row in rows if isinstance(row, list) for x in row
                       if not _is_number(x)] if isinstance(rows, list) else []
                if bad:
                    raise ValueError(f"{key} entries must be finite numbers, got {bad[0]!r}")
                blocks.append(np.asarray(rows, dtype=float))
                if blocks[-1].shape != shape:
                    raise ValueError(f"{key} must be {shape} for this basis, "
                                     f"got {blocks[-1].shape}")
            return cls(basis=basis, theta=np.hstack(blocks),
                       sample_period=payload.get("sample_period"),
                       provenance=payload.get("provenance", {}))
        except (TypeError, ValueError) as exc:
            raise ModelFileError(f"{path}: {exc}") from None
