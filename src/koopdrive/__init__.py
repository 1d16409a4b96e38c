"""Lifted linear modeling of driver response to speed advisories.

The package covers the full loop: generating an energy-aware advisory speed
profile for a route, synthesizing driver trajectories that follow it with
human quirks (reaction delay, noise, lapses of attention), identifying a
linear predictor in a polynomial observable space, adapting that predictor
online from streaming data, and scoring predictions over multiple horizons.
"""

from .advisory import (
    AdvisoryProfile,
    EcoDpConfig,
    PowertrainParams,
    RouteInfeasibleError,
    RouteSpec,
    resample_to_time,
    solve_eco_dp,
    surrogate_powertrain,
)
from .basis import LiftedBasis
from .driversim import (
    DistractionWindow,
    DriverParams,
    VehicleParams,
    simulate_driver,
)
from .edmd import (
    DataMatrices,
    FitConfig,
    FitReport,
    RankDeficientDataError,
    build_matrices,
    fit,
    fit_trajectories,
    split_dataset,
)
from .evaluate import (
    BenchReport,
    HorizonReport,
    bench_update,
    evaluate_horizons,
)
from .model import (
    KoopmanModel,
    ModelFileError,
    RolloutDivergenceError,
    Trajectory,
)
from .rls import OnlineSettings, RlsState, init_rls, rls_update, snapshot_model, update_tick

__version__ = "0.1.0"
