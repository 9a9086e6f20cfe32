"""Built-in demonstration models for the CLI's worked examples.

The claims model is a toy: a portfolio of exposures whose losses react
exponentially to risk-factor moves, evaluated on a fixed seeded scenario
set with an empirical tail quantile.  It illustrates attribution of a
quantile movement; it is not a calibrated risk model.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Point, finite_number, seeded_rng
from .expr import NativeFunction

VAR_LEVEL = 0.995
MIN_SCENARIOS = 1000  # below this the empirical tail quantile is too unstable


def empirical_var(losses: np.ndarray, level: float = VAR_LEVEL) -> float:
    """Lower empirical quantile: the ceil(level * n)-th smallest loss."""
    n = len(losses)
    k = math.ceil(level * n)
    return float(np.sort(losses)[k - 1])


def claims_movement(portfolio_size: int, n_factors: int, n_scenarios: int, seed: int,
                    loading: float | None = None) -> tuple[NativeFunction, float]:
    """Seeded toy portfolio: claims = sum_k exposure_k *
    exp(sum_i loading_ki * x_i) * Z_k over a fixed scenario set Z.

    Returns the change of the empirical 99.5% quantile of the claims given
    risk-factor moves x from its zero-move value (the baseline), which
    therefore vanishes at the origin, and the baseline.  A fixed ``loading``,
    a finite int or float, makes the model symmetric in the factors.
    """
    if portfolio_size < 1 or n_factors < 1:
        raise ValueError("portfolio size and factor count must be positive")
    if n_scenarios < MIN_SCENARIOS:
        raise ValueError(f"need at least {MIN_SCENARIOS} scenarios for a stable quantile, "
                         f"got {n_scenarios}")
    if loading is not None:
        loading = finite_number("loading", loading)
    rng = seeded_rng(seed, 0xB11D)
    exposures = rng.uniform(0.5, 1.5, size=portfolio_size)
    if loading is None:
        loadings = rng.normal(0.0, 0.3, size=(portfolio_size, n_factors))
    else:
        exposures = np.ones(portfolio_size)
        loadings = np.full((portfolio_size, n_factors), loading)
    scenarios = seeded_rng(seed, 0xC1A1).lognormal(mean=0.0, sigma=1.0,
                                                   size=(n_scenarios, portfolio_size))

    def value_at_risk(x: Point) -> float:
        factor = exposures * np.exp(loadings @ np.asarray(x, dtype=float))
        return empirical_var(scenarios @ factor)

    baseline = value_at_risk((0.0,) * n_factors)
    return NativeFunction(lambda x: value_at_risk(x) - baseline, n_factors,
                          label="var-movement"), baseline
