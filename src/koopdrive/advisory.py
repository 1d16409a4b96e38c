"""Advisory speed generation over a fixed route.

The generator solves a distance-indexed optimal control problem on a
(velocity, battery state of charge) grid by backward induction. The route is
divided into steps of fixed length; crossing one step from node speed v1 to
node speed v2 implies a constant acceleration a = (v2^2 - v1^2) / (2 ds) and
a step time dt = ds / vbar with vbar = (v1 + v2) / 2. Each step is charged

    cost = (gamma * m_eqf / m_norm + (1 - gamma)) * dt

so gamma = 0 buys pure travel time and gamma = 1 pure (equivalent) fuel.

Hard constraints: per-node speed limits, mandatory stops (pinned to the
lowest grid speed so step times stay finite; dwell time at a stop is not
modeled), acceleration bounds, state-of-charge bounds along the way, and a
strict terminal state-of-charge floor. Infeasible routes raise
RouteInfeasibleError naming the first blocking node.

The powertrain surrogate has two modes. Battery-only propulsion draws the
wheel power through a fixed drive efficiency and recovers braking power with
a regeneration efficiency; its equivalent fuel rate is the battery power
times an equivalence factor. Engine-assisted mode covers most of the battery
draw with an affine (idle plus proportional) fuel map; engine drag also cuts
the regeneration capture. Both state-of-charge rates are independent of the
state of charge itself, so value functions are flat along that axis away
from feasibility boundaries.

Interpolation of the value function is linear along the state-of-charge axis
only; velocity transitions land exactly on grid nodes. The backward pass
interpolates only the edges inside the acceleration bounds, since every
other edge is priced at the sentinel whatever its value. Those edges, their
stage costs and the interpolation geometry (cell indices, weights, the
below-grid mask) depend only on a step's admissible speeds and grade, so the
backward pass computes them once per run of consecutive steps with the same
configuration and each step only gathers, interpolates and minimizes the
next node's values; the forward pass and the initial-state cost use the same
two interpolation halves. Infeasible cells hold a large sentinel instead of
inf so the interpolation stays well defined. A query inside a cell with one
infeasible corner takes the feasible corner's value, so feasibility along
the state-of-charge axis is resolved to grid-cell resolution, which errs on
the permissive side near constraint boundaries; a query below the grid, or
inside a cell with two infeasible corners, is infeasible. The forward pass
enforces the terminal floor on the continuous state of charge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .model import _check_sample_period, _read_csv_table, _samples, _write_csv_table

BIG = 1e30  # infeasibility sentinel; np.inf would break linear interpolation
_BIG_CUT = 1e29

ROUTE_CSV_HEADER = "position_m,v_min_mps,v_max_mps,stop,grade"

__all__ = [
    "PowertrainParams",
    "RouteSpec",
    "EcoDpConfig",
    "AdvisoryProfile",
    "RouteInfeasibleError",
    "surrogate_powertrain",
    "edge_quantities",
    "solve_eco_dp",
    "resample_to_time",
    "ROUTE_CSV_HEADER",
]


class RouteInfeasibleError(ValueError):
    """No admissible path exists; carries the first blocking node."""

    def __init__(self, node_index: int, position: float, detail: str):
        self.node_index = node_index
        self.position = position
        super().__init__(
            f"route infeasible at node {node_index} ({position:.1f} m): {detail}"
        )


@dataclass(frozen=True)
class PowertrainParams:
    """Two-mode plug-in hybrid surrogate, sized to a minivan-class vehicle.

    The engine fuel slope must not be below the battery equivalence factor;
    together with the positive idle rate this makes engine-assisted running
    strictly costlier than battery-only running at every operating point,
    while draining the battery strictly less.
    """

    mass: float = 2200.0
    a0: float = 160.0
    a1: float = 2.5
    a2: float = 0.45
    eta_drive: float = 0.85
    eta_regen: float = 0.60
    battery_capacity_j: float = 5.76e7
    equiv_factor_kg_per_j: float = 6.35e-8
    engine_idle_kg_per_s: float = 1.5e-4
    engine_kg_per_j: float = 7.3e-8
    engine_battery_share: float = 0.3
    engine_power_max_w: float = 9.0e4
    gravity: float = 9.81

    def __post_init__(self):
        # a NaN fails none of the comparisons below, and an infinity makes the
        # planner's costs NaN or infinite
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.mass <= 0 or self.battery_capacity_j <= 0:
            raise ValueError("mass and battery capacity must be positive")
        if not (0 < self.eta_drive <= 1 and 0 <= self.eta_regen <= 1):
            raise ValueError("efficiencies must lie in (0, 1]")
        if not (0 < self.engine_battery_share < 1):
            raise ValueError("engine_battery_share must lie strictly inside (0, 1)")
        if self.engine_idle_kg_per_s <= 0:
            raise ValueError("engine idle fuel rate must be positive")
        if self.engine_kg_per_j < self.equiv_factor_kg_per_j:
            raise ValueError(
                "engine fuel slope below the battery equivalence factor would make "
                "engine-assisted running cheaper than battery-only running"
            )

    @property
    def max_engine_fuel_rate(self) -> float:
        return self.engine_idle_kg_per_s + self.engine_kg_per_j * self.engine_power_max_w


@dataclass(frozen=True)
class RouteSpec:
    """Route as uniformly spaced nodes with limits, stops, and grades.

    Arrays have one entry per node (n_steps + 1 in total); grade[j] is the
    slope of the segment that starts at node j, the last entry being unused.
    """

    step_m: float
    v_min: np.ndarray
    v_max: np.ndarray
    stop: np.ndarray
    grade: np.ndarray

    def __post_init__(self):
        if not self.step_m > 0:
            raise ValueError(f"step_m must be positive, got {self.step_m}")
        object.__setattr__(self, "v_min", np.asarray(self.v_min, dtype=float))
        object.__setattr__(self, "v_max", np.asarray(self.v_max, dtype=float))
        object.__setattr__(self, "stop", np.asarray(self.stop, dtype=bool))
        object.__setattr__(self, "grade", np.asarray(self.grade, dtype=float))
        n = len(self.v_min)
        if n < 2:
            raise ValueError("a route needs at least two nodes")
        for name in ("v_max", "stop", "grade"):
            if len(getattr(self, name)) != n:
                raise ValueError("route arrays must all have the same length")
        if not (np.all(np.isfinite(self.v_min)) and np.all(np.isfinite(self.v_max))
                and np.all(np.isfinite(self.grade))):
            raise ValueError("route arrays must be finite")
        if np.any(self.v_min < 0) or np.any(self.v_max <= self.v_min):
            raise ValueError("need 0 <= v_min < v_max at every node")

    @property
    def n_steps(self) -> int:
        return len(self.v_min) - 1

    @property
    def total_length(self) -> float:
        return self.n_steps * self.step_m

    @property
    def positions(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.step_m

    @classmethod
    def read_csv(cls, path: str) -> "RouteSpec":
        data = _read_csv_table(path, ROUTE_CSV_HEADER, 5, "route")
        bad = np.flatnonzero((data[:, 3] != 0.0) & (data[:, 3] != 1.0))
        if len(bad):
            row = int(bad[0])
            raise ValueError(f"{path}: stop must be 0 or 1, got {float(data[row, 3])!r} in "
                             f"data row {row + 1} (position_m {float(data[row, 0])!r})")
        pos = data[:, 0]
        steps = np.diff(pos)
        step = float(steps[0]) if len(steps) else 0.0
        if step <= 0 or not np.allclose(steps, step, rtol=1e-9, atol=1e-9):
            raise ValueError(f"{path}: node positions must be uniformly spaced")
        return cls(step_m=step, v_min=data[:, 1], v_max=data[:, 2],
                   stop=data[:, 3] != 0.0, grade=data[:, 4])


@dataclass(frozen=True)
class EcoDpConfig:
    """Grid resolution, bounds, and weighting for the advisory solver.

    m_dot_norm of None defaults to the surrogate's maximum engine fuel rate,
    which keeps the fuel term in the stage cost dimensionless and order one.
    """

    gamma: float = 0.5
    v_levels: int = 28
    soc_levels: int = 21
    a_min: float = -2.0
    a_max: float = 1.5
    soc_min: float = 0.20
    soc_max: float = 0.90
    soc_initial: float = 0.40
    soc_terminal_floor: float = 0.26
    speed_floor: float = 0.6
    m_dot_norm: float | None = None
    powertrain: PowertrainParams = field(default_factory=PowertrainParams)

    def __post_init__(self):
        # an infinite acceleration bound or fuel scale would silently drop a
        # constraint or the fuel term
        for name in ("gamma", "a_min", "a_max", "soc_min", "soc_max", "soc_initial",
                     "soc_terminal_floor", "speed_floor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        for name in ("v_levels", "soc_levels"):
            levels = getattr(self, name)
            if not (isinstance(levels, int) and not isinstance(levels, bool) and levels >= 2):
                raise ValueError(f"{name} must be an integer >= 2, got {levels!r}")
        if not self.a_min < 0 < self.a_max:
            raise ValueError("acceleration bounds must straddle zero")
        if not 0.0 <= self.soc_min < self.soc_max <= 1.0:
            raise ValueError("state-of-charge bounds must satisfy 0 <= min < max <= 1")
        if not self.soc_min <= self.soc_initial <= self.soc_max:
            raise ValueError("initial state of charge must lie within the bounds")
        if not self.soc_min <= self.soc_terminal_floor < self.soc_max:
            raise ValueError("terminal floor must lie within the bounds")
        if not self.speed_floor > 0:
            raise ValueError("speed_floor must be positive to keep step times finite")
        if self.m_dot_norm is not None and not (math.isfinite(self.m_dot_norm)
                                                and self.m_dot_norm > 0):
            raise ValueError(f"m_dot_norm must be positive and finite when given, "
                             f"got {self.m_dot_norm}")

    @property
    def resolved_m_dot_norm(self) -> float:
        if self.m_dot_norm is not None:
            return self.m_dot_norm
        return self.powertrain.max_engine_fuel_rate


def surrogate_powertrain(v, a, engine_on, grade, params: PowertrainParams):
    """Equivalent fuel rate (kg/s) and SoC slope (1/m) at an operating point.

    Accepts scalars or broadcastable arrays. Speeds must be strictly
    positive; the advisory grid guarantees that by construction.
    """
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    engine_on = np.asarray(engine_on, dtype=bool)
    grade = np.asarray(grade, dtype=float)
    if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
        raise ValueError("speed must be strictly positive and finite")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(grade))):
        raise ValueError("acceleration and grade must be finite")

    road = params.a0 + params.a1 * v + params.a2 * v * v
    p_wheel = (params.mass * a + road + params.mass * params.gravity * grade) * v
    p_batt_ev = np.where(p_wheel >= 0.0, p_wheel / params.eta_drive,
                         p_wheel * params.eta_regen)
    share = np.where(engine_on, params.engine_battery_share, 1.0)
    p_batt = share * p_batt_ev
    p_engine = np.where(engine_on,
                        (1.0 - params.engine_battery_share) * np.maximum(p_batt_ev, 0.0),
                        0.0)
    m_eqf = params.equiv_factor_kg_per_j * p_batt + np.where(
        engine_on, params.engine_idle_kg_per_s + params.engine_kg_per_j * p_engine, 0.0
    )
    dsoc_ds = -p_batt / params.battery_capacity_j / v
    return m_eqf, dsoc_ds


def edge_quantities(v1, v2, engine_on, grade, step_m: float, config: EcoDpConfig):
    """Everything a transition between adjacent nodes costs and does.

    Returns (feasible, accel, dt, stage_cost, dsoc); feasible reflects the
    acceleration bounds only. Broadcasts over array inputs, and is shared by
    the backward pass, the forward pass, and any exhaustive checker so that
    all of them price a transition identically.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    accel = (v2 * v2 - v1 * v1) / (2.0 * step_m)
    vbar = 0.5 * (v1 + v2)
    dt = step_m / vbar
    m_eqf, dsoc_ds = surrogate_powertrain(vbar, accel, engine_on, grade, config.powertrain)
    stage = (config.gamma * m_eqf / config.resolved_m_dot_norm + (1.0 - config.gamma)) * dt
    dsoc = dsoc_ds * step_m
    feasible = (accel >= config.a_min) & (accel <= config.a_max)
    return feasible, accel, dt, stage, dsoc


@dataclass
class AdvisoryProfile:
    """Solved advisory: per-node speeds plus energy bookkeeping.

    total_cost is the backward value at the initial state; cumulative_cost is
    the forward accumulation along the chosen path (equal up to floating
    point association).
    """

    step_m: float
    positions: np.ndarray
    v_ref: np.ndarray
    soc: np.ndarray
    cumulative_cost: np.ndarray
    engine_on: np.ndarray
    node_times: np.ndarray
    stop: np.ndarray
    total_cost: float

    @property
    def duration(self) -> float:
        return float(self.node_times[-1])

    def to_csv(self, path: str) -> None:
        """One row per node; engine_on belongs to the step leaving a node, so
        the last node's cell is 0."""
        engine = np.append(np.asarray(self.engine_on, dtype=int), 0)
        _write_csv_table(path, "position_m,t_s,v_ref_mps,soc,cumulative_cost,engine_on,stop", zip(
            self.positions.tolist(), self.node_times.tolist(), self.v_ref.tolist(),
            self.soc.tolist(), self.cumulative_cost.tolist(), engine.tolist(),
            np.asarray(self.stop, dtype=int).tolist()))


def _admissible_speeds(route: RouteSpec, vgrid: np.ndarray) -> list[np.ndarray]:
    adm = []
    for j in range(route.n_steps + 1):
        if route.stop[j]:
            # a stop overrides the speed window and pins the node to the
            # grid floor, the crawl speed standing in for a full stop
            adm.append(np.array([0]))
            continue
        idx = np.where((vgrid >= route.v_min[j] - 1e-9) & (vgrid <= route.v_max[j] + 1e-9))[0]
        if len(idx) == 0:
            raise RouteInfeasibleError(
                j, j * route.step_m,
                f"no grid speed inside limits [{route.v_min[j]}, {route.v_max[j]}]"
            )
        adm.append(idx)
    return adm


def _interp_geometry(queries: np.ndarray, socgrid: np.ndarray,
                     rows: np.ndarray) -> tuple:
    """The value-independent half of the SoC interpolation.

    queries has shape (n, q), and row i of it reads value row rows[i] of a
    (levels, soc_levels) table. Returns the flat indices of the lower and
    upper cell corners in that table, the weights, and the mask of queries
    below the grid.
    """
    ns = len(socgrid)
    # charging past full is not a dead end, the surplus just is not stored,
    # so queries above the top of the grid clamp to the top value; draining
    # below the bottom is a hard infeasibility
    queries = np.minimum(queries, socgrid[-1])
    idx = np.clip(np.searchsorted(socgrid, queries, side="right") - 1, 0, ns - 2)
    lo = socgrid[idx]
    hi = socgrid[idx + 1]
    w = (queries - lo) / (hi - lo)
    flat = rows[:, None] * ns + idx
    return flat, flat + 1, w, queries < socgrid[0] - 1e-12


def _interp_values(table: np.ndarray, geometry: tuple) -> np.ndarray:
    """Linear interpolation of a (levels, soc_levels) value table at a geometry.

    The table holds BIG or values below _BIG_CUT, and so does the result.
    Queries below the grid come back as BIG, a cell with one sentinel corner
    takes the other corner's value, and equal neighbors short-circuit to the
    shared value, so flat regions interpolate exactly and a cell with two
    sentinel corners gives BIG.
    """
    flat0, flat1, w, below = geometry
    v0 = table.take(flat0)
    v1 = table.take(flat1)
    bad0 = v0 >= _BIG_CUT
    bad1 = v1 >= _BIG_CUT
    # inside a cell with one infeasible corner the value extends constant
    # from the feasible side: feasibility along the SoC axis is resolved at
    # grid-cell resolution, and the forward pass re-checks the exact bounds
    out = np.where(v0 == v1, v0, v0 + w * (v1 - v0))
    out = np.where(bad0 & ~bad1, v1, out)
    out = np.where(bad1 & ~bad0, v0, out)
    return np.where(below, BIG, out)


def _price_edges(v1, v2, engine, grade, ds, config, socgrid, i2):
    """The edges inside the acceleration bounds of one step and engine mode:
    their (r, c) cells, stage costs and the interpolation geometry of the
    SoC they land on in the value table of the next node."""
    feasible, _, _, stage, dsoc = edge_quantities(v1, v2, engine, grade, ds, config)
    r, c = np.nonzero(feasible)
    geometry = _interp_geometry(socgrid[None, :] + dsoc[r, c][:, None], socgrid, i2[c])
    return r, c, stage[r, c][:, None], geometry


def _value_function(route: RouteSpec, config: EcoDpConfig, vgrid: np.ndarray,
                    socgrid: np.ndarray, adm: list[np.ndarray]) -> np.ndarray:
    """Backward induction: (n_steps + 1, v_levels, soc_levels) cost-to-go."""
    ds = route.step_m
    S = route.n_steps
    ns = len(socgrid)
    # terminal value: zero wherever the node limits and the strict SoC floor hold
    V = np.full((S + 1, len(vgrid), ns), BIG)
    ok_soc = socgrid > config.soc_terminal_floor
    V[S][np.ix_(adm[S], np.where(ok_soc)[0])] = 0.0

    # a step's edges, stage costs and interpolation geometry depend only on
    # its admissible speeds and grade, so a step whose configuration equals
    # the step before's reuses that pricing; only one configuration is held
    # at a time, and the key holds the exact bytes, so -0.0 and 0.0 differ
    key = priced = None
    for j in range(S - 1, -1, -1):
        i1 = adm[j]
        i2 = adm[j + 1]
        step_key = (i1.tobytes(), i2.tobytes(), route.grade[j].tobytes())
        if step_key != key:
            key = step_key
            priced = [_price_edges(vgrid[i1][:, None], vgrid[i2][None, :], engine,
                                   route.grade[j], ds, config, socgrid, i2)
                      for engine in (0, 1)]
        best = np.full((len(i1), ns), BIG)
        for r, c, stage_rc, geometry in priced:
            # vals is exactly BIG or below the cut, and BIG plus a stage cost
            # below about 7e13 rounds back to BIG, so the sums need no second
            # cut; edges outside the acceleration bounds keep the sentinel
            total = np.full((len(i1), len(i2), ns), BIG)
            total[r, c] = stage_rc + _interp_values(V[j + 1], geometry)
            best = np.minimum(best, total.min(axis=1))
        V[j][i1] = best
    return V


def solve_eco_dp(route: RouteSpec, config: EcoDpConfig) -> AdvisoryProfile:
    """Backward induction plus greedy forward reconstruction.

    Ties in the forward pass break toward the smaller acceleration magnitude
    and then toward keeping the engine off.
    """
    ds = route.step_m
    S = route.n_steps
    vgrid = np.linspace(config.speed_floor, float(np.max(route.v_max)), config.v_levels)
    socgrid = np.linspace(config.soc_min, config.soc_max, config.soc_levels)
    adm = _admissible_speeds(route, vgrid)
    V = _value_function(route, config, vgrid, socgrid, adm)

    start_iv = int(adm[0][0])
    soc0 = config.soc_initial
    total_cost = float(_interp_values(
        V[0], _interp_geometry(np.array([[soc0]]), socgrid, np.array([start_iv])))[0, 0])
    if total_cost >= _BIG_CUT:
        _raise_first_blocking(route, config, V, adm, vgrid)

    # forward reconstruction with continuous SoC
    v_ref = np.empty(S + 1)
    soc = np.empty(S + 1)
    cum = np.zeros(S + 1)
    engine_on = np.zeros(S, dtype=int)
    node_times = np.zeros(S + 1)
    iv = start_iv
    v_ref[0] = vgrid[iv]
    soc[0] = soc0
    for j in range(S):
        i2 = adm[j + 1]
        chosen = None
        for engine in (0, 1):
            feasible, accel, dt, stage, dsoc = edge_quantities(
                vgrid[iv], vgrid[i2], engine, route.grade[j], ds, config
            )
            soc_new = np.minimum(soc[j] + dsoc, socgrid[-1])
            vals = _interp_values(
                V[j + 1], _interp_geometry(soc_new[:, None], socgrid, i2))[:, 0]
            for c, iv2 in enumerate(i2):
                if not feasible[c] or vals[c] >= _BIG_CUT:
                    continue
                # the grid resolves the terminal floor to cell resolution;
                # the last step enforces it on the continuous trajectory
                if j == S - 1 and soc_new[c] <= config.soc_terminal_floor:
                    continue
                key = (stage[c] + vals[c], abs(accel[c]), engine)
                if chosen is None or key < chosen[0]:
                    chosen = (key, int(iv2), engine, float(stage[c]),
                              float(soc_new[c]), float(dt[c]))
        if chosen is None:
            _raise_first_blocking(route, config, V, adm, vgrid)
        _, iv, eng, stage_c, soc_c, dt_c = chosen
        engine_on[j] = eng
        v_ref[j + 1] = vgrid[iv]
        soc[j + 1] = soc_c
        cum[j + 1] = cum[j] + stage_c
        node_times[j + 1] = node_times[j] + dt_c

    return AdvisoryProfile(
        step_m=ds,
        positions=route.positions,
        v_ref=v_ref,
        soc=soc,
        cumulative_cost=cum,
        engine_on=engine_on,
        node_times=node_times,
        stop=route.stop.copy(),
        total_cost=total_cost,
    )


def _raise_first_blocking(route: RouteSpec, config: EcoDpConfig, V, adm, vgrid):
    """Walk forward to find the first node no admissible path can reach."""
    reachable = {int(adm[0][0])}
    for j in range(route.n_steps):
        nxt = set()
        for iv in reachable:
            feasible, _, _, _, _ = edge_quantities(
                vgrid[iv], vgrid[adm[j + 1]], 0, route.grade[j], route.step_m, config
            )
            for c, iv2 in enumerate(adm[j + 1]):
                if feasible[c] and np.any(V[j + 1][int(iv2)] < _BIG_CUT):
                    nxt.add(int(iv2))
        if not nxt:
            raise RouteInfeasibleError(
                j + 1, (j + 1) * route.step_m,
                "no speed at this node is reachable under the acceleration bounds "
                "while keeping the remaining route feasible"
            )
        reachable = nxt
    raise RouteInfeasibleError(
        0, 0.0,
        "the initial state admits no feasible path (check state-of-charge "
        "bounds against the terminal floor)"
    )


def resample_to_time(profile: AdvisoryProfile, sample_period: float):
    """Uniform time view of a distance-indexed profile.

    Node times accumulate dt = ds / vbar per step; speeds are then linearly
    interpolated onto a uniform grid of the given period. The grid covers
    [0, duration) so the sample count times the period matches the total
    duration to within one period. Raises ValueError on a non-positive step
    speed, since such a step has no finite crossing time (stops are pinned to
    a positive grid speed and contribute no dwell).
    """
    _check_sample_period(sample_period)
    vbar = 0.5 * (profile.v_ref[:-1] + profile.v_ref[1:])
    bad = np.where(vbar <= 0.0)[0]
    if len(bad):
        j = int(bad[0])
        flagged = bool(profile.stop[j] or profile.stop[j + 1])
        raise ValueError(
            f"step {j} has non-positive mean speed {vbar[j]}"
            + (" (stop nodes must sit at a positive grid speed)" if flagged else
               " and is not at an annotated stop")
        )
    duration = float(profile.node_times[-1])
    n = int(math.floor(_samples("profile duration", duration, sample_period) + 1e-9))
    if n < 1:
        raise ValueError("profile is shorter than one sample period")
    t = np.arange(n) * sample_period
    v = np.interp(t, profile.node_times, profile.v_ref)
    return t, v
