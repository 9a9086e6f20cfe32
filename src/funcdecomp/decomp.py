"""Decomposition principles: sequential (one fixed activation order), its
average over all orders, the equivalent subset-weighted form, the extension
to functions that do not vanish at the origin, and the per-point Shapley
construction.

All methods evaluate the target function only on the projected family
{p_I(x)}, through one ``evaluate_masks`` call per point: the d+1 masks of
one activation order, or the full table of 2^d masks combined by one
weighted-marginals kernel.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import game as game_mod
from .core import (
    EXACT_PERMUTATION_CAP,
    EXACT_SUBSET_CAP,
    ORIGIN_TOLERANCE,
    DimensionMismatchError,
    NonzeroOriginError,
    Permutation,
    Point,
    as_point,
    identity_permutation,
    inverse_permutation,
    permutation_average_marginals,
    ranks_from_permutation,
    validate_dimension,
)
from .expr import FunctionHandle


@dataclass(frozen=True)
class DecompositionResult:
    """Per-coordinate contributions at one point.

    ``total`` is the function value at the point; the contributions sum to
    it (up to the fixed-cost handling of the chosen method).
    """

    x: Point
    contributions: tuple[float, ...]
    total: float
    method: str

    @property
    def residual(self) -> float:
        return abs(self.total - math.fsum(self.contributions))


def _validated(fn: FunctionHandle, x: Sequence[float], cap: int | None) -> Point:
    point = as_point(x, fn.d)
    validate_dimension(fn.d, cap)
    return point


def _table(fn: FunctionHandle, point: Point) -> np.ndarray:
    """F on all 2^d projections of the point, indexed by mask."""
    return fn.evaluate_masks(point, np.arange(1 << fn.d))


def _origin_value(fn: FunctionHandle, point: Point) -> float:
    return float(fn.evaluate_masks(point, [0])[0])


def _require_zero_origin(fn: FunctionHandle, point: Point, method: str) -> float:
    """F(0), checked before any other projection is evaluated."""
    v0 = _origin_value(fn, point)
    if abs(v0) > ORIGIN_TOLERANCE:
        raise NonzeroOriginError(
            f"{method} needs F to vanish at the origin, got {v0!r}; "
            "use delta_star, which splits the origin value evenly"
        )
    return v0


def sequential(fn: FunctionHandle, x: Sequence[float],
               perm: Permutation | None = None) -> DecompositionResult:
    """Telescoping attribution along one activation order.

    ``perm`` assigns each coordinate its activation rank (0-based internal
    form; identity if omitted): coordinates switch from 0 to their actual
    value one at a time in rank order, and each coordinate is credited
    with the change it causes.  Exactly d+1 function evaluations.
    """
    d = fn.d
    if perm is None:
        perm = identity_permutation(d)
    if len(perm) != d:
        raise DimensionMismatchError(f"permutation length {len(perm)} != d {d}")
    point = _validated(fn, x, cap=None)  # d+1 evaluations, no cap needed
    prev = _require_zero_origin(fn, point, "sequential")
    order = inverse_permutation(perm)  # coordinate activated at each step
    chain = list(itertools.accumulate((1 << coord for coord in order), operator.or_))
    values = fn.evaluate_masks(point, chain).tolist()
    contributions = [0.0] * d
    for coord, cur in zip(order, values):
        contributions[coord] = cur - prev
        prev = cur
    return DecompositionResult(
        point, tuple(contributions), values[-1],
        method=f"sequential{ranks_from_permutation(perm)}",
    )


def as_permutation(fn: FunctionHandle, x: Sequence[float]) -> DecompositionResult:
    """Averaged sequential contributions: the exact mean of `sequential`
    over all d! activation orders, via full enumeration."""
    point = _validated(fn, x, EXACT_PERMUTATION_CAP)
    _require_zero_origin(fn, point, "as_permutation")
    table = _table(fn, point)
    marginals = permutation_average_marginals(table, fn.d)
    return DecompositionResult(
        point, tuple(marginals.tolist()), float(table[-1]), method="as_permutation",
    )


def as_subset(fn: FunctionHandle, x: Sequence[float]) -> DecompositionResult:
    """Averaged sequential contributions in closed subset form: each
    coordinate sums its weighted switch-on differences F(p_I x) - F(p_{I-i} x)
    over the subsets containing it.  Equal to `as_permutation` without
    enumerating orderings (2^d instead of d! terms)."""
    point = _validated(fn, x, EXACT_SUBSET_CAP)
    _require_zero_origin(fn, point, "as_subset")
    table = _table(fn, point)
    contributions = game_mod.weighted_marginals(table, fn.d)
    return DecompositionResult(
        point, tuple(contributions.tolist()), float(table[-1]), method="as_subset",
    )


def delta_star(fn: FunctionHandle, x: Sequence[float]) -> DecompositionResult:
    """Subset-form attribution extended to functions with F(0) != 0: the
    origin value is split evenly across the d coordinates and the rest is
    attributed like `as_subset`.  Restricted to functions vanishing at the
    origin this coincides with the averaged sequential decomposition."""
    point = _validated(fn, x, EXACT_SUBSET_CAP)
    table = _table(fn, point)
    contributions = table[0] / fn.d + game_mod.weighted_marginals(table, fn.d)
    return DecompositionResult(
        point, tuple(contributions.tolist()), float(table[-1]), method="delta_star",
    )


def pointwise_shapley(fn: FunctionHandle, x: Sequence[float]) -> DecompositionResult:
    """Per-point game construction: restrict F to the binary activation
    pattern of x (coalition S -> F(p_S x)), read that as a game, and
    allocate with the classical Shapley value."""
    point = _validated(fn, x, EXACT_SUBSET_CAP)
    induced = game_mod.induced_game(fn, point)
    allocation = game_mod.shapley(induced)
    return DecompositionResult(
        point, allocation.shares, induced.grand_value, method="pointwise_shapley",
    )
