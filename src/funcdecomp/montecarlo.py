"""Unbiased sampling estimator of the averaged sequential decomposition for
dimensions where enumerating all d! activation orders is infeasible.

Activation orders are drawn uniformly from counter-based random streams:
the orders of sample chunk ``c`` of a run with seed ``s`` always come from the
stream ``core.seeded_rng(s, c)``, so the estimate is reproducible bit for bit.
Chunks only key the streams: F is evaluated once at every distinct prefix
mask of all the drawn orders, in ascending order, by one ``evaluate_table``
call, so a failing estimate raises the error of the least failing mask.
Everything runs in one thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    MASK_DIMENSION_CAP,
    ORIGIN_TOLERANCE,
    NonzeroOriginError,
    Point,
    as_point,
    seeded_rng,
    validate_dimension,
)
from .expr import FunctionHandle

_CHUNK = 256  # samples per random stream; fixed, part of the reproducibility contract


@dataclass(frozen=True)
class EstimatorReport:
    """Sampling estimate of the averaged sequential contributions.

    Every sampled order telescopes exactly to the function value, so the
    estimates do too; the standard errors are per coordinate (sample
    standard deviation over the drawn orders divided by sqrt(n)).
    """

    estimate: tuple[float, ...]
    standard_error: tuple[float, ...]
    n_samples: int
    seed: int

    @property
    def total(self) -> float:
        return math.fsum(self.estimate)


def _sample(fn: FunctionHandle, point: Point, base: float, n: int,
            seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over ``n`` sampled orders of the per-step
    changes of F, starting from ``base`` at the origin.

    F is evaluated once at each distinct prefix mask, in ascending order and
    in one call, so the first error is the one at the least failing mask.
    """
    d = fn.d
    if d == 1:
        # Only one activation order exists: the estimate is exact.
        return fn.evaluate_table([point], [1])[0] - base, np.zeros(1)
    perms = np.vstack([seeded_rng(seed, c).permuted(
        np.tile(np.arange(d), (min(_CHUNK, n - start), 1)), axis=1)
        for c, start in enumerate(range(0, n, _CHUNK))])
    masks, where = np.unique(np.bitwise_or.accumulate(np.left_shift(1, perms), axis=1),
                             return_inverse=True)
    # The inverse's shape varies across NumPy versions.
    where = where.reshape(perms.shape)
    values = fn.evaluate_table([point], masks)[0]
    samples = np.empty((n, d))
    np.put_along_axis(samples, perms, np.diff(values[where], axis=1, prepend=base), axis=1)
    return samples.mean(axis=0), samples.std(axis=0, ddof=1) / math.sqrt(n)


def _estimate(fn: FunctionHandle, x: Sequence[float], n: int, seed: int,
              split_origin: bool) -> EstimatorReport:
    """The body of both estimators: `estimate_delta_star` if ``split_origin``,
    else `estimate_as`."""
    point = as_point(x, fn.d)
    validate_dimension(fn.d, MASK_DIMENSION_CAP)
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"the sample count n must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"need at least 2 samples for a standard error, got {n}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"the seed must be an integer, got {seed!r}")
    base = float(fn.evaluate_table([point], [0])[0, 0])
    if not split_origin and abs(base) > ORIGIN_TOLERANCE:
        raise NonzeroOriginError(
            f"estimate_as needs F to vanish at the origin, got {base!r}; "
            "use estimate_delta_star, which splits F(0) evenly"
        )
    seed = int(seed)
    estimate, se = _sample(fn, point, base, n, seed)
    if split_origin:
        estimate = estimate + base / fn.d
    return EstimatorReport(tuple(estimate.tolist()), tuple(se.tolist()), int(n), seed)


def estimate_as(fn: FunctionHandle, x: Sequence[float], n: int, seed: int) -> EstimatorReport:
    """Estimate the averaged sequential contributions from ``n`` uniformly
    sampled activation orders.

    Requires the function to vanish at the origin, an integer ``n >= 2``
    (a single sample has no variance estimate), an integer seed and
    ``d <= MASK_DIMENSION_CAP``.
    Fixed ``(fn, x, n, seed)`` gives a bitwise-identical report.
    """
    return _estimate(fn, x, n, seed, split_origin=False)


def estimate_delta_star(fn: FunctionHandle, x: Sequence[float], n: int,
                        seed: int) -> EstimatorReport:
    """Sampled counterpart of `delta_star`: F(0) is split evenly across the
    d coordinates, and the change from F(0) to F(x) is attributed like
    `estimate_as`.  The standard errors are those of that second part.

    Same requirements as `estimate_as`, except that F need not vanish at
    the origin.
    """
    return _estimate(fn, x, n, seed, split_origin=True)
