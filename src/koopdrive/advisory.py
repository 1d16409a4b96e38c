"""Advisory speed generation over a fixed route.

The generator solves a distance-indexed optimal control problem on a
(velocity, battery state of charge) grid by backward induction. The route is
divided into steps of fixed length; crossing one step from node speed v1 to
node speed v2 implies a constant acceleration a = (v2^2 - v1^2) / (2 ds) and
a step time dt = ds / vbar with vbar = (v1 + v2) / 2. Each step is charged

    cost = (gamma * m_eqf / m_norm + (1 - gamma)) * dt

so gamma = 0 buys pure travel time and gamma = 1 pure (equivalent) fuel.
m_norm, the powertrain's largest engine fuel rate, keeps the fuel term
dimensionless and order one.

Hard constraints: per-node speed limits, mandatory stops (pinned to the
lowest grid speed so step times stay finite; dwell time at a stop is not
modeled), acceleration bounds, state-of-charge bounds along the way, and a
strict terminal state-of-charge floor. Infeasible routes raise
RouteInfeasibleError naming the first blocking node, or the initial state of
charge and the least one from which a path ends above the floor.

The wheel power is priced from the vehicle the drivers are simulated in,
driversim.VehicleParams (its mass and quadratic road load), plus gravity on
the grade. The hybrid drivetrain that delivers it, PowertrainParams, has two
modes. Battery-only propulsion draws the wheel power through a fixed drive
efficiency and recovers braking power with a regeneration efficiency; its
equivalent fuel rate is the battery power times an equivalence factor.
Engine-assisted mode covers most of the battery draw with an affine (idle
plus proportional) fuel map; engine drag also cuts the regeneration capture.
Both state-of-charge rates are independent of the state of charge itself, so
value functions are flat along that axis away from feasibility boundaries.

Interpolation of the value function is linear along the state-of-charge axis
only; velocity transitions land exactly on grid nodes. Every pass reads one
edge table per step: a step's edges (acceleration feasibility, acceleration,
time, stage cost and SoC change, with the engine mode as a leading axis)
depend only on its admissible speeds and grade, so _edge_tables prices each
distinct configuration once and steps sharing it share the table. The
backward pass interpolates only the edges inside the acceleration bounds,
since every other edge is priced at the sentinel whatever its value, and
builds their interpolation geometry (cell indices, weights, the below-grid
mask) once per run of consecutive steps sharing a table; each step only
gathers, interpolates and minimizes the next node's values. The forward pass
reads the current speed's row of the table and takes the edge of least
(cost + value, |acceleration|), remaining ties going to the engine off and
then to the lower speed; the walk that names the first blocking node reads
the table's feasibility masks.

State-of-charge feasibility is decided in one place, _backward's b. Since
the rates do not depend on the state of charge, the one backward pass over
the edge tables gives, beside the value function, the boundary line (Elbert,
Ebbesen & Guzzella 2013, IEEE TCST 21(3)): per node and admissible speed, b,
the least float state of charge from which the forward pass's own float
operations reach the end above the floor. The strict floor is b =
nextafter(floor, inf) at the last node, and no b lies below soc_min - 1e-12,
the slack that _interp_geometry's below-grid mask and the tests' exhaustive
enumeration share. solve_eco_dp refuses an initial state of charge below b
at node 0, naming both; the forward pass keeps only the edges that land at
or above the next node's b, so it never dead-ends; and the walk follows the
speeds whose b a full battery meets. The value grid only prices: infeasible
cells hold a large sentinel instead of inf so the interpolation stays well
defined, a query inside a cell with one infeasible corner, always the lower
(see _interp_values), takes the upper corner's value, and a query below the
grid, or inside a cell with two infeasible corners, is infeasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .driversim import VehicleParams
from .model import (
    _check_fields,
    _check_sample_period,
    _check_spacing,
    _is_number,
    _read_csv_table,
    _samples,
    _write_csv_table,
)

BIG = 1e30  # infeasibility sentinel; np.inf would break linear interpolation
_BIG_CUT = 1e29
GRAVITY = 9.81  # m/s^2

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


class RouteInfeasibleError(ArithmeticError):
    """No admissible path exists; carries the first blocking node. An
    ArithmeticError, like every numerical refusal of the package, so the
    command line exits 4 on it."""

    def __init__(self, node_index: int, position: float, detail: str):
        self.node_index = node_index
        self.position = position
        super().__init__(
            f"route infeasible at node {node_index} ({position:.1f} m): {detail}"
        )


@dataclass(frozen=True)
class PowertrainParams:
    """Two-mode plug-in hybrid drivetrain, sized to a minivan-class vehicle.

    The drivetrain only: the mass and road load it moves are the configured
    vehicle's (driversim.VehicleParams). The engine fuel slope must not be
    below the battery equivalence factor; together with the positive idle
    rate this makes engine-assisted running strictly costlier than
    battery-only running at every operating point, while draining the
    battery strictly less.
    """

    eta_drive: float = 0.85
    eta_regen: float = 0.60
    battery_capacity_j: float = 5.76e7
    equiv_factor_kg_per_j: float = 6.35e-8
    engine_idle_kg_per_s: float = 1.5e-4
    engine_kg_per_j: float = 7.3e-8
    engine_battery_share: float = 0.3
    engine_power_max_w: float = 9.0e4

    def __post_init__(self):
        # a NaN fails none of the comparisons below, and an infinity makes the
        # planner's costs NaN or infinite
        _check_fields(self)
        if not self.battery_capacity_j > 0:
            raise ValueError("battery capacity must be positive")
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
        if not (_is_number(self.step_m) and self.step_m > 0):
            raise ValueError(f"step_m must be positive and finite, got {self.step_m}")
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
        """Read a route CSV. A ValueError, also one from the constructor's
        checks, names path."""
        data = _read_csv_table(path, ROUTE_CSV_HEADER, 5, "route")
        bad = np.flatnonzero((data[:, 3] != 0.0) & (data[:, 3] != 1.0))
        if len(bad):
            row = int(bad[0])
            raise ValueError(f"{path}: stop must be 0 or 1, got {float(data[row, 3])!r} in "
                             f"data row {row + 1} (position_m {float(data[row, 0])!r})")
        pos = data[:, 0]
        # node j sits at j * step_m, so a route that starts elsewhere would
        # shift every position written for it by its start
        if pos[0] != 0.0:
            raise ValueError(f"{path}: node positions must start at 0.0 m, "
                             f"got {float(pos[0])!r} m")
        step = float(pos[1] - pos[0])
        if not (math.isfinite(step) and step > 0):
            raise ValueError(f"{path}: node positions must rise by a positive finite step, "
                             f"got {step!r} between the first two")
        _check_spacing(f"{path}: node position", pos, step)
        try:
            return cls(step_m=step, v_min=data[:, 1], v_max=data[:, 2],
                       stop=data[:, 3] != 0.0, grade=data[:, 4])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class EcoDpConfig:
    """Grid resolution, bounds, and weighting for the advisory solver."""

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
    powertrain: PowertrainParams = field(default_factory=PowertrainParams)

    def __post_init__(self):
        # an infinite acceleration bound would silently drop a constraint
        _check_fields(self)
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        for name in ("v_levels", "soc_levels"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be an integer >= 2, got {getattr(self, name)!r}")
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


def surrogate_powertrain(v, a, engine_on, grade, vehicle: VehicleParams, params: PowertrainParams):
    """Equivalent fuel rate (kg/s) and SoC slope (1/m) at an operating point.

    The wheel power is the vehicle's: its mass times the acceleration, its
    road load a0 + a1 v + a2 v^2 and its weight on the grade, at speed v;
    params is the drivetrain that delivers it. Accepts scalars or
    broadcastable arrays. Speeds must be strictly positive; the advisory
    grid guarantees that by construction.
    """
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    engine_on = np.asarray(engine_on, dtype=bool)
    grade = np.asarray(grade, dtype=float)
    if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
        raise ValueError("speed must be strictly positive and finite")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(grade))):
        raise ValueError("acceleration and grade must be finite")

    road = vehicle.a0 + vehicle.a1 * v + vehicle.a2 * v * v
    p_wheel = (vehicle.mass * a + road + vehicle.mass * GRAVITY * grade) * v
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


def edge_quantities(v1, v2, engine_on, grade, step_m: float, vehicle: VehicleParams,
                    config: EcoDpConfig):
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
    m_eqf, dsoc_ds = surrogate_powertrain(vbar, accel, engine_on, grade, vehicle, config.powertrain)
    m_norm = config.powertrain.max_engine_fuel_rate
    stage = (config.gamma * m_eqf / m_norm + (1.0 - config.gamma)) * dt
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
    Queries below the grid come back as BIG, a cell whose lower corner alone
    is a sentinel takes the upper corner's value (_backward's b decides
    feasibility exactly), and two sentinel corners give BIG.

    An upper corner alone is never a sentinel: each row of a value table is
    upward closed in SoC (a feasible cell makes every higher SoC feasible).
    By induction from the end: the terminal rows are feasible where SoC >
    soc_terminal_floor; an edge's query min(s + dsoc, top), its cell's upper
    corner and the complement of the below-grid mask all rise with the SoC s
    it leaves from, so each edge is feasible on an upward closed set of s,
    and the minimum over edges on their union, which is upward closed too.
    """
    flat0, flat1, w, below = geometry
    v0 = table.take(flat0)
    v1 = table.take(flat1)
    out = np.where((v0 >= _BIG_CUT) & (v1 < _BIG_CUT), v1, v0 + w * (v1 - v0))
    return np.where(below, BIG, out)


def _edge_tables(route: RouteSpec, vehicle: VehicleParams, config: EcoDpConfig,
                 vgrid: np.ndarray, adm: list[np.ndarray]) -> list[tuple]:
    """Per step, (feasible, accel, dt, stage, dsoc) of every edge, each of
    shape (2, len(adm[j]), len(adm[j + 1])) with the engine mode first.

    A step's edges depend only on its admissible speeds and grade, so one
    edge_quantities call prices each distinct configuration and the steps
    sharing it share one table object; the key holds the exact bytes, so
    -0.0 and 0.0 differ.
    """
    engine = np.array([0, 1])[:, None, None]
    priced = {}
    tables = []
    for j in range(route.n_steps):
        key = (adm[j].tobytes(), adm[j + 1].tobytes(), route.grade[j].tobytes())
        if key not in priced:
            priced[key] = tuple(np.broadcast_arrays(*edge_quantities(
                vgrid[adm[j]][None, :, None], vgrid[adm[j + 1]][None, None, :], engine,
                route.grade[j], route.step_m, vehicle, config)))
        tables.append(priced[key])
    return tables


def _backward(config: EcoDpConfig, vgrid: np.ndarray, socgrid: np.ndarray,
              adm: list[np.ndarray], tables: list[tuple]) -> tuple:
    """Backward induction over the steps: (V, b).

    V is the (n_steps + 1, v_levels, soc_levels) cost-to-go. b holds, per
    node, b_j over adm[j]: the least float SoC from which the forward pass's
    own float operations reach the end above the terminal floor.

    b_S is the float just above the floor. b_j(v) is the least float s whose
    float s + dsoc is at least b_{j+1}(v'), over the acceleration-feasible
    edges to a speed v' with b_{j+1}(v') <= soc_max, but no less than
    soc_min - 1e-12, the bound of _interp_geometry's below-grid mask; inf
    where no edge qualifies. The clamp of s + dsoc at soc_max does not matter,
    since min(x, soc_max) >= b exactly when x >= b for b <= soc_max. No rate
    depends on the SoC, so states at or above b_j(v) reach the end above the
    floor and states below it do not. Neither V nor b reads the other.
    """
    S = len(tables)
    ns = len(socgrid)
    # terminal value: zero wherever the node limits and the strict SoC floor hold
    V = np.full((S + 1, len(vgrid), ns), BIG)
    ok_soc = socgrid > config.soc_terminal_floor
    V[S][np.ix_(adm[S], np.where(ok_soc)[0])] = 0.0
    b = [None] * S + [np.full(len(adm[S]), np.nextafter(config.soc_terminal_floor, np.inf))]

    # the edges inside the acceleration bounds, their stage costs, the
    # interpolation geometry of the SoC they land on and the edges' least
    # drain are built once for each run of steps sharing a table
    table = None
    for j in range(S - 1, -1, -1):
        if tables[j] is not table:
            table = tables[j]
            feasible, _, _, stage, dsoc = table
            e, r, c = np.nonzero(feasible)
            stage_erc = stage[e, r, c][:, None]
            geometry = _interp_geometry(socgrid[None, :] + dsoc[e, r, c][:, None],
                                        socgrid, adm[j + 1][c])
            # float addition is monotone, so the least start falls as dsoc
            # rises and only the engine mode draining less matters; -inf
            # marks the edges outside the acceleration bounds
            dsoc_max = dsoc.max(axis=0)
            dsoc_ok = np.where(feasible[0], dsoc_max, -np.inf)
        # vals is exactly BIG or below the cut, and BIG plus a stage cost
        # below about 7e13 rounds back to BIG, so the sums need no second
        # cut; edges outside the acceleration bounds keep the sentinel
        total = np.full(stage.shape + (ns,), BIG)
        total[e, r, c] = stage_erc + _interp_values(V[j + 1], geometry)
        V[j][adm[j]] = total.min(axis=(0, 2))

        target = np.where(b[j + 1] <= config.soc_max, b[j + 1], np.inf)
        # target - dsoc_ok rounds, so step each edge's start up until its
        # s + dsoc_max >= target holds; inf stays inf
        s = target - dsoc_ok
        while (low := s + dsoc_max < target).any():
            s = np.where(low, np.nextafter(s, np.inf), s)
        # then step each node's least start down while some edge still holds
        least = s.min(axis=1)
        down = np.nextafter(least, -np.inf)
        while (lower := (down[:, None] + dsoc_ok >= target).any(axis=1)).any():
            least = np.where(lower, down, least)
            down = np.nextafter(least, -np.inf)
        b[j] = np.maximum(least, config.soc_min - 1e-12)
    return V, b


def solve_eco_dp(route: RouteSpec, vehicle: VehicleParams,
                 config: EcoDpConfig) -> AdvisoryProfile:
    """Backward induction plus greedy forward reconstruction, pricing the
    route for the given vehicle.

    Ties in the forward pass break toward the smaller acceleration magnitude,
    then toward keeping the engine off, then toward the lower speed. The
    speed grid runs from config.speed_floor up to the route's top speed
    limit, so a floor at or above that limit raises ValueError.
    """
    S = route.n_steps
    v_top = float(np.max(route.v_max))
    if not config.speed_floor < v_top:
        raise ValueError(f"speed_floor {config.speed_floor} m/s must lie below the route's "
                         f"top speed limit {v_top} m/s")
    vgrid = np.linspace(config.speed_floor, v_top, config.v_levels)
    socgrid = np.linspace(config.soc_min, config.soc_max, config.soc_levels)
    adm = _admissible_speeds(route, vgrid)
    tables = _edge_tables(route, vehicle, config, vgrid, adm)
    V, b = _backward(config, vgrid, socgrid, adm, tables)

    soc0 = config.soc_initial
    if soc0 < b[0][0]:
        _raise_first_blocking(route, config, b, adm, tables)
    total_cost = float(_interp_values(
        V[0], _interp_geometry(np.array([[soc0]]), socgrid, adm[0][:1]))[0, 0])

    # forward reconstruction with continuous SoC; c is the current speed's
    # row in the step's table
    v_ref = np.empty(S + 1)
    soc = np.empty(S + 1)
    cum = np.zeros(S + 1)
    engine_on = np.zeros(S, dtype=int)
    node_times = np.zeros(S + 1)
    c = 0
    v_ref[0] = vgrid[adm[0][0]]
    soc[0] = soc0
    for j in range(S):
        i2 = adm[j + 1]
        feasible, accel, dt, stage, dsoc = (q[:, c] for q in tables[j])
        soc_new = np.minimum(soc[j] + dsoc, socgrid[-1])
        vals = _interp_values(V[j + 1], _interp_geometry(
            soc_new.reshape(-1, 1), socgrid, np.tile(i2, 2))).reshape(soc_new.shape)
        # the least (cost + value, |accel|) among the edges that keep a path
        # ending above the floor, of which soc[j] >= b[j] leaves at least
        # one; they are in engine-major order, so the stable sort breaks the
        # remaining ties toward keeping the engine off, then the lower speed
        cost = np.where(feasible & (soc_new >= b[j + 1]), stage + vals, np.inf)
        e, c = divmod(int(np.lexsort((np.abs(accel).ravel(), cost.ravel()))[0]), len(i2))
        engine_on[j] = e
        v_ref[j + 1] = vgrid[i2[c]]
        soc[j + 1] = soc_new[e, c]
        cum[j + 1] = cum[j] + stage[e, c]
        node_times[j + 1] = node_times[j] + dt[e, c]

    return AdvisoryProfile(
        positions=route.positions,
        v_ref=v_ref,
        soc=soc,
        cumulative_cost=cum,
        engine_on=engine_on,
        node_times=node_times,
        stop=route.stop.copy(),
        total_cost=total_cost,
    )


def _raise_first_blocking(route: RouteSpec, config: EcoDpConfig, b, adm, tables):
    """Walk forward to find the first node whose reachable speeds all need
    more than a full battery (b > soc_max, inf where the acceleration bounds
    block every path), else refuse the initial state of charge against b_0."""
    reachable = np.arange(len(adm[0])) == 0
    for j, (feasible, *_) in enumerate(tables):
        # feasible is the acceleration bound, the same for both engine modes
        reachable = feasible[0][reachable].any(axis=0) & (b[j + 1] <= config.soc_max)
        if not reachable.any():
            raise RouteInfeasibleError(
                j + 1, (j + 1) * route.step_m,
                "no speed at this node is reachable under the acceleration bounds "
                "while keeping the remaining route feasible"
            )
    raise RouteInfeasibleError(0, 0.0, f"initial state of charge {float(config.soc_initial)!r} is "
                               f"below {float(b[0][0])!r}, the least from which a path ends above "
                               f"the terminal floor {float(config.soc_terminal_floor)!r}")


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
