"""Built-in demonstration models for the CLI's worked examples.

The claims model is a toy: a portfolio of exposures whose losses react
exponentially to risk-factor moves, evaluated on a fixed seeded scenario
set with an empirical tail quantile.  It illustrates attribution of a
quantile movement; it is not a calibrated risk model.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Point, as_point, seeded_rng
from .expr import NativeFunction

VAR_LEVEL = 0.995
MIN_SCENARIOS = 1000  # below this the empirical tail quantile is too unstable


def empirical_var(losses: np.ndarray, level: float = VAR_LEVEL) -> float:
    """Lower empirical quantile: the ceil(level * n)-th smallest loss."""
    n = len(losses)
    k = math.ceil(level * n)
    return float(np.sort(losses)[k - 1])


class ClaimsModel:
    """Toy insurance portfolio: claims = sum_k exposure_k *
    exp(sum_i loading_ki * x_i) * Z_k over a fixed scenario set Z.

    ``value_at_risk(x)`` is the empirical 99.5% quantile of the claims
    given risk-factor moves x; ``movement_function()`` wraps the quantile
    change from the zero-move baseline, which therefore vanishes at the
    origin.
    """

    def __init__(self, exposures: np.ndarray, loadings: np.ndarray,
                 n_scenarios: int, seed: int) -> None:
        exposures = np.asarray(exposures, dtype=float)
        loadings = np.asarray(loadings, dtype=float)
        if loadings.ndim != 2 or loadings.shape[0] != exposures.shape[0]:
            raise ValueError("loadings must be (portfolio size) x (risk factors)")
        if n_scenarios < MIN_SCENARIOS:
            raise ValueError(
                f"need at least {MIN_SCENARIOS} scenarios for a stable quantile, "
                f"got {n_scenarios}"
            )
        self.exposures = exposures
        self.loadings = loadings
        self.d = loadings.shape[1]
        rng = seeded_rng(seed, 0xC1A1)
        self.scenarios = rng.lognormal(mean=0.0, sigma=1.0,
                                       size=(n_scenarios, exposures.shape[0]))
        self.baseline = self.value_at_risk((0.0,) * self.d)

    def claims(self, x: Point) -> np.ndarray:
        factor = self.exposures * np.exp(self.loadings @ np.asarray(x, dtype=float))
        return self.scenarios @ factor

    def value_at_risk(self, x: Point) -> float:
        return empirical_var(self.claims(as_point(x, self.d)))

    def movement_function(self) -> NativeFunction:
        return NativeFunction(
            lambda x: self.value_at_risk(x) - self.baseline,
            self.d, label="var-movement",
        )


def build_claims_model(portfolio_size: int, n_factors: int, n_scenarios: int,
                       seed: int, loading: float | None = None) -> ClaimsModel:
    """Seeded toy portfolio.  A fixed ``loading`` makes every position react
    identically to every factor, so the model is symmetric in the factors."""
    if portfolio_size < 1 or n_factors < 1:
        raise ValueError("portfolio size and factor count must be positive")
    rng = seeded_rng(seed, 0xB11D)
    exposures = rng.uniform(0.5, 1.5, size=portfolio_size)
    if loading is None:
        loadings = rng.normal(0.0, 0.3, size=(portfolio_size, n_factors))
    else:
        exposures = np.ones(portfolio_size)
        loadings = np.full((portfolio_size, n_factors), float(loading))
    return ClaimsModel(exposures, loadings, n_scenarios, seed)
