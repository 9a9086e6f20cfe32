"""Decomposition principles: sequential (one fixed activation order), its
average over all orders, the equivalent subset-weighted form, the extension
to functions that do not vanish at the origin, and the per-point Shapley
construction.

Every method decomposes n points into an (n, d) array of contributions
and an (n,) array of totals; ``delta_star_many`` and the like give one
result per point, and the one-point functions are their one-point case.
F is evaluated only on the projected family {p_I(x)}: F(0) once where the
method checks it, then one ``evaluate_table`` call per group of points
over the masks of one activation order or all 2^d masks, each group's
table combined by one weighted-marginals kernel call.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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


Arrays = tuple[np.ndarray, np.ndarray]  # contributions (n, d) and totals (n,)


def _checked(fn: FunctionHandle, points: Iterable[Sequence[float]],
             cap: int | None) -> Sequence:
    """The points as a list (an array stays one), once the first point and
    then the dimension cap are validated: the order a one-point call raises
    in.  Later points are validated as ``evaluate_table`` reaches them."""
    points = points if isinstance(points, np.ndarray) else list(points)
    if len(points):
        as_point(points[0], fn.d)
    validate_dimension(fn.d, cap)
    return points


def _origin_value(fn: FunctionHandle, points: Sequence) -> float:
    """F(0), which is the same for every point; 0.0 when there are none."""
    return float(fn.evaluate_masks(points[0], [0])[0]) if len(points) else 0.0


def _require_zero_origin(fn: FunctionHandle, points: Sequence, method: str) -> float:
    """F(0), checked before any other projection is evaluated."""
    v0 = _origin_value(fn, points)
    if abs(v0) > ORIGIN_TOLERANCE:
        raise NonzeroOriginError(
            f"{method} needs F to vanish at the origin, got {v0!r}; "
            "use delta_star, which splits the origin value evenly"
        )
    return v0


def _decompose(fn: FunctionHandle, points: Sequence,
               combine: Callable[[np.ndarray], np.ndarray],
               masks: Sequence[int] | None = None) -> Arrays:
    """One row per point: the contributions ``combine`` makes of the
    point's row of the table of F at ``project(x, m)`` over ``masks``
    (all 2^d masks if None), and the row's last value as the total.

    The table is evaluated through ``evaluate_table`` in groups of points
    whose table holds at most ``2^EXACT_SUBSET_CAP`` values, so memory
    stays bounded whatever the number of points, and the first failing
    point and mask raises first.  ``combine`` maps a group's table to one
    row of contributions per point.
    """
    n_masks = 1 << fn.d if masks is None else len(masks)
    group = max(1, (1 << EXACT_SUBSET_CAP) // n_masks)
    contributions, totals = np.empty((len(points), fn.d)), np.empty(len(points))
    for start in range(0, len(points), group):
        # the array of all masks is built per group, so it is freed before
        # the kernel runs
        table = fn.evaluate_table(points[start:start + group],
                                  np.arange(n_masks) if masks is None else masks)
        contributions[start:start + len(table)] = combine(table)
        totals[start:start + len(table)] = table[:, -1]
        del table  # before the next group's table is built
    return contributions, totals


def _results(points: Sequence, arrays: Arrays, method: str) -> list[DecompositionResult]:
    """The arrays of a method as one result per point, at valid ``points``."""
    contributions, totals = arrays
    return [DecompositionResult(tuple(map(float, x)), tuple(c), total, method)
            for x, c, total in zip(points, contributions.tolist(), totals.tolist())]


def sequential_arrays(fn: FunctionHandle, points: Iterable[Sequence[float]],
                      perm: Permutation | None = None) -> Arrays:
    """`sequential` at each of the points: F(0) once, then d evaluations
    per point."""
    d = fn.d
    if perm is None:
        perm = identity_permutation(d)
    if len(perm) != d:
        raise DimensionMismatchError(f"permutation length {len(perm)} != d {d}")
    points = _checked(fn, points, cap=None)  # d evaluations per point: no cap needed
    v0 = _require_zero_origin(fn, points, "sequential")
    order = list(inverse_permutation(perm))  # coordinate activated at each step
    chain = list(itertools.accumulate((1 << coord for coord in order), operator.or_))

    def steps(table: np.ndarray) -> np.ndarray:
        contributions = np.empty_like(table)
        contributions[:, order] = np.diff(table, axis=1, prepend=v0)
        return contributions

    return _decompose(fn, points, steps, chain)


def sequential_many(fn: FunctionHandle, points: Iterable[Sequence[float]],
                    perm: Permutation | None = None) -> list[DecompositionResult]:
    """`sequential_arrays` as one result per point."""
    points = list(points)
    arrays = sequential_arrays(fn, points, perm)
    ranks = ranks_from_permutation(identity_permutation(fn.d) if perm is None else perm)
    return _results(points, arrays, f"sequential{ranks}")


def sequential(fn: FunctionHandle, x: Sequence[float],
               perm: Permutation | None = None) -> DecompositionResult:
    """Telescoping attribution along one activation order.

    ``perm`` assigns each coordinate its activation rank (0-based internal
    form; identity if omitted): coordinates switch from 0 to their actual
    value one at a time in rank order, and each coordinate is credited
    with the change it causes.  Exactly d+1 function evaluations.
    """
    return sequential_many(fn, [x], perm)[0]


def as_permutation_many(fn: FunctionHandle,
                        points: Iterable[Sequence[float]]) -> list[DecompositionResult]:
    """`as_permutation` at each of the points."""
    points = _checked(fn, points, EXACT_PERMUTATION_CAP)
    _require_zero_origin(fn, points, "as_permutation")

    def enumerate_orders(table: np.ndarray) -> np.ndarray:
        return np.array([permutation_average_marginals(row, fn.d) for row in table])

    return _results(points, _decompose(fn, points, enumerate_orders), "as_permutation")


def as_permutation(fn: FunctionHandle, x: Sequence[float]) -> DecompositionResult:
    """Averaged sequential contributions: the exact mean of `sequential`
    over all d! activation orders, via full enumeration."""
    return as_permutation_many(fn, [x])[0]


def as_subset_arrays(fn: FunctionHandle, points: Iterable[Sequence[float]]) -> Arrays:
    """`as_subset` at each of the points, one kernel call per group."""
    points = _checked(fn, points, EXACT_SUBSET_CAP)
    _require_zero_origin(fn, points, "as_subset")
    return _decompose(fn, points, lambda table: game_mod.weighted_marginals(table, fn.d))


def as_subset_many(fn: FunctionHandle,
                   points: Iterable[Sequence[float]]) -> list[DecompositionResult]:
    """`as_subset_arrays` as one result per point."""
    points = list(points)
    return _results(points, as_subset_arrays(fn, points), "as_subset")


def as_subset(fn: FunctionHandle, x: Sequence[float]) -> DecompositionResult:
    """Averaged sequential contributions in closed subset form: each
    coordinate sums its weighted switch-on differences F(p_I x) - F(p_{I-i} x)
    over the subsets containing it.  Equal to `as_permutation` without
    enumerating orderings (2^d instead of d! terms)."""
    return as_subset_many(fn, [x])[0]


def delta_star_arrays(fn: FunctionHandle, points: Iterable[Sequence[float]]) -> Arrays:
    """`delta_star` at each of the points, one kernel call per group."""
    points = _checked(fn, points, EXACT_SUBSET_CAP)

    def split(table: np.ndarray) -> np.ndarray:
        return table[:, :1] / fn.d + game_mod.weighted_marginals(table, fn.d)

    return _decompose(fn, points, split)


def delta_star_many(fn: FunctionHandle,
                    points: Iterable[Sequence[float]]) -> list[DecompositionResult]:
    """`delta_star_arrays` as one result per point."""
    points = list(points)
    return _results(points, delta_star_arrays(fn, points), "delta_star")


def delta_star(fn: FunctionHandle, x: Sequence[float]) -> DecompositionResult:
    """Subset-form attribution extended to functions with F(0) != 0: the
    origin value is split evenly across the d coordinates and the rest is
    attributed like `as_subset`.  Restricted to functions vanishing at the
    origin this coincides with the averaged sequential decomposition."""
    return delta_star_many(fn, [x])[0]


def pointwise_shapley_many(fn: FunctionHandle,
                           points: Iterable[Sequence[float]]) -> list[DecompositionResult]:
    """`pointwise_shapley` at each of the points, one kernel call per group."""
    points = _checked(fn, points, EXACT_SUBSET_CAP)
    game_mod.check_empty_coalition(_origin_value(fn, points))

    def allocate(table: np.ndarray) -> np.ndarray:
        # each row as the game induced at its point: the checked origin
        # value counts as exactly 0, as in game.induced_game
        table[:, 0] = 0.0
        return game_mod.weighted_marginals(table, fn.d)

    return _results(points, _decompose(fn, points, allocate), "pointwise_shapley")


def pointwise_shapley(fn: FunctionHandle, x: Sequence[float]) -> DecompositionResult:
    """Per-point game construction: restrict F to the binary activation
    pattern of x (coalition S -> F(p_S x)), read that as a game, and
    allocate with the classical Shapley value."""
    return pointwise_shapley_many(fn, [x])[0]
