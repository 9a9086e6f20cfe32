"""Decomposition principles: sequential (one fixed activation order), its
average over all orders, the equivalent subset-weighted form, the extension
to functions that do not vanish at the origin, and the per-point Shapley
construction.

Every method has one multi-point form, ``delta_star_arrays`` and the
like, which decomposes n points into a `Decomposition`: an (n, d) array of
contributions, an (n,) array of totals and the method's label.  The
one-point functions (``delta_star`` ...) are its n = 1 case.
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
from typing import Callable, Iterable, NamedTuple, Sequence

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
    validate_permutation,
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


class Decomposition(NamedTuple):
    """A method's contributions (n, d) and totals (n,) at n points."""

    contributions: np.ndarray
    totals: np.ndarray
    method: str


def _one_point(arrays: Callable[..., Decomposition], fn: FunctionHandle,
               x: Sequence[float], *args) -> DecompositionResult:
    """The ``arrays`` form of a method at the one point ``x``."""
    result = arrays(fn, [x], *args)
    return DecompositionResult(tuple(map(float, x)), tuple(result.contributions[0].tolist()),
                               float(result.totals[0]), result.method)


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
    return float(fn.evaluate_table(points[:1], [0])[0, 0]) if len(points) else 0.0


def _require_zero_origin(fn: FunctionHandle, points: Sequence, method: str) -> float:
    """F(0), checked before any other projection is evaluated."""
    v0 = _origin_value(fn, points)
    if abs(v0) > ORIGIN_TOLERANCE:
        raise NonzeroOriginError(
            f"{method} needs F to vanish at the origin, got {v0!r}; "
            "use delta_star, which splits the origin value evenly"
        )
    return v0


def _decompose(fn: FunctionHandle, points: Sequence, method: str,
               combine: Callable[[np.ndarray], np.ndarray],
               masks: Sequence[int] | None = None) -> Decomposition:
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
    return Decomposition(contributions, totals, method)


def sequential_arrays(fn: FunctionHandle, points: Iterable[Sequence[float]],
                      perm: Permutation | None = None) -> Decomposition:
    """`sequential` at each of the points: F(0) once, then d evaluations
    per point."""
    d = fn.d
    perm = identity_permutation(d) if perm is None else perm
    if len(perm) != d:
        raise DimensionMismatchError(f"permutation length {len(perm)} != d {d}")
    validate_permutation(perm)
    points = _checked(fn, points, cap=None)  # d evaluations per point: no cap needed
    v0 = _require_zero_origin(fn, points, "sequential")
    order = list(inverse_permutation(perm))  # coordinate activated at each step
    chain = list(itertools.accumulate((1 << coord for coord in order), operator.or_))

    def steps(table: np.ndarray) -> np.ndarray:
        contributions = np.empty_like(table)
        contributions[:, order] = np.diff(table, axis=1, prepend=v0)
        return contributions

    return _decompose(fn, points, f"sequential{ranks_from_permutation(perm)}", steps, chain)


def sequential(fn: FunctionHandle, x: Sequence[float],
               perm: Permutation | None = None) -> DecompositionResult:
    """Telescoping attribution along one activation order.

    ``perm`` assigns each coordinate its activation rank (0-based internal
    form; identity if omitted): coordinates switch from 0 to their actual
    value one at a time in rank order, and each coordinate is credited
    with the change it causes.  Exactly d+1 function evaluations.
    """
    return _one_point(sequential_arrays, fn, x, perm)


def as_permutation_arrays(fn: FunctionHandle, points: Iterable[Sequence[float]]) -> Decomposition:
    """`as_permutation` at each of the points."""
    points = _checked(fn, points, EXACT_PERMUTATION_CAP)
    _require_zero_origin(fn, points, "as_permutation")

    def enumerate_orders(table: np.ndarray) -> np.ndarray:
        return np.array([permutation_average_marginals(row, fn.d) for row in table])

    return _decompose(fn, points, "as_permutation", enumerate_orders)


def as_permutation(fn: FunctionHandle, x: Sequence[float]) -> DecompositionResult:
    """Averaged sequential contributions: the exact mean of `sequential`
    over all d! activation orders, via full enumeration."""
    return _one_point(as_permutation_arrays, fn, x)


def as_subset_arrays(fn: FunctionHandle, points: Iterable[Sequence[float]]) -> Decomposition:
    """`as_subset` at each of the points, one kernel call per group."""
    points = _checked(fn, points, EXACT_SUBSET_CAP)
    _require_zero_origin(fn, points, "as_subset")
    return _decompose(fn, points, "as_subset",
                      lambda table: game_mod.weighted_marginals(table, fn.d))


def as_subset(fn: FunctionHandle, x: Sequence[float]) -> DecompositionResult:
    """Averaged sequential contributions in closed subset form: each
    coordinate sums its weighted switch-on differences F(p_I x) - F(p_{I-i} x)
    over the subsets containing it.  Equal to `as_permutation` without
    enumerating orderings (2^d instead of d! terms)."""
    return _one_point(as_subset_arrays, fn, x)


def delta_star_arrays(fn: FunctionHandle, points: Iterable[Sequence[float]]) -> Decomposition:
    """`delta_star` at each of the points, one kernel call per group."""
    points = _checked(fn, points, EXACT_SUBSET_CAP)

    def split(table: np.ndarray) -> np.ndarray:
        return table[:, :1] / fn.d + game_mod.weighted_marginals(table, fn.d)

    return _decompose(fn, points, "delta_star", split)


def delta_star(fn: FunctionHandle, x: Sequence[float]) -> DecompositionResult:
    """Subset-form attribution extended to functions with F(0) != 0: the
    origin value is split evenly across the d coordinates and the rest is
    attributed like `as_subset`.  Restricted to functions vanishing at the
    origin this coincides with the averaged sequential decomposition."""
    return _one_point(delta_star_arrays, fn, x)


def pointwise_shapley_arrays(fn: FunctionHandle,
                             points: Iterable[Sequence[float]]) -> Decomposition:
    """`pointwise_shapley` at each of the points, one kernel call per group."""
    points = _checked(fn, points, EXACT_SUBSET_CAP)
    game_mod.check_empty_coalition(_origin_value(fn, points))

    def allocate(table: np.ndarray) -> np.ndarray:
        # each row as the game induced at its point: the checked origin
        # value counts as exactly 0, as in game.induced_game
        table[:, 0] = 0.0
        return game_mod.weighted_marginals(table, fn.d)

    return _decompose(fn, points, "pointwise_shapley", allocate)


def pointwise_shapley(fn: FunctionHandle, x: Sequence[float]) -> DecompositionResult:
    """Per-point game construction: restrict F to the binary activation
    pattern of x (coalition S -> F(p_S x)), read that as a game, and
    allocate with the classical Shapley value."""
    return _one_point(pointwise_shapley_arrays, fn, x)
