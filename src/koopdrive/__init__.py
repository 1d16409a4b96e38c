"""Lifted linear modeling of driver response to speed advisories.

The package covers the full loop: generating an energy-aware advisory speed
profile for a route, synthesizing driver trajectories that follow it with
human quirks (reaction delay, noise, lapses of attention), identifying a
linear predictor in a polynomial observable space, adapting that predictor
online from streaming data, and scoring predictions over multiple horizons.

The modules are the API: import the module you use, and its __all__ lists
its public names. The package itself imports no module.
"""

__version__ = "0.1.0"
