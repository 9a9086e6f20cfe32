"""Unbiased sampling estimator of the averaged sequential decomposition for
dimensions where enumerating all d! activation orders is infeasible.

Activation orders are drawn uniformly from counter-based random streams:
sample chunk ``c`` of a run with seed ``s`` always uses the stream
``core.seeded_rng(s, c)``, so the estimate is reproducible bit for bit.  Chunks
run one after another in one thread; ``workers`` is accepted for
compatibility and changes neither the result nor the speed.
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


def _chunk_contributions(fn: FunctionHandle, x: Point, base: float,
                         memo: dict[int, float], seed: int, chunk_index: int,
                         size: int) -> np.ndarray:
    """Per-sample contribution matrix (size x d) for one chunk.

    Prefix masks not yet in ``memo`` are evaluated in one ``evaluate_masks``
    call (ascending, as ``np.unique`` returns them) and added to it.
    """
    d = fn.d
    rng = seeded_rng(seed, chunk_index)
    perms = rng.permuted(np.tile(np.arange(d), (size, 1)), axis=1)
    prefix = np.bitwise_or.accumulate(np.left_shift(1, perms), axis=1)
    masks, where = np.unique(prefix, return_inverse=True)
    masks = masks.tolist()
    fresh = [m for m in masks if m not in memo]
    memo.update(zip(fresh, fn.evaluate_masks(x, fresh).tolist()))
    at_step = np.array([memo[m] for m in masks])[where.reshape(prefix.shape)]
    before = np.concatenate([np.full((size, 1), base), at_step[:, :-1]], axis=1)
    out = np.empty((size, d))
    np.put_along_axis(out, perms, at_step - before, axis=1)
    return out


def _sample(fn: FunctionHandle, point: Point, base: float, n: int,
            seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over ``n`` sampled orders of the per-step
    changes of F, starting from ``base`` at the origin."""
    d = fn.d
    if d == 1:
        # Only one activation order exists: the estimate is exact.
        return np.array([fn(point) - base]), np.zeros(1)
    memo: dict[int, float] = {}
    sizes = [_CHUNK] * (n // _CHUNK)
    if n % _CHUNK:
        sizes.append(n % _CHUNK)
    samples = np.vstack([_chunk_contributions(fn, point, base, memo, seed, c, size)
                         for c, size in enumerate(sizes)])
    return samples.mean(axis=0), samples.std(axis=0, ddof=1) / math.sqrt(n)


def _validate(fn: FunctionHandle, x: Sequence[float], n: int, workers: int) -> Point:
    point = as_point(x, fn.d)
    validate_dimension(fn.d, MASK_DIMENSION_CAP)
    if n < 2:
        raise ValueError(f"need at least 2 samples for a standard error, got {n}")
    if workers < 1:
        raise ValueError(f"need at least 1 worker, got {workers}")
    return point


def _report(estimate: np.ndarray, se: np.ndarray, n: int, seed: int) -> EstimatorReport:
    return EstimatorReport(tuple(estimate.tolist()), tuple(se.tolist()), n, seed)


def estimate_as(fn: FunctionHandle, x: Sequence[float], n: int, seed: int,
                workers: int = 1) -> EstimatorReport:
    """Estimate the averaged sequential contributions from ``n`` uniformly
    sampled activation orders.

    Requires the function to vanish at the origin, ``n >= 2`` (a single
    sample has no variance estimate) and ``d <= MASK_DIMENSION_CAP``.
    Fixed ``(fn, x, n, seed)`` gives a bitwise-identical report for any
    ``workers`` count.
    """
    point = _validate(fn, x, n, workers)
    base = fn((0.0,) * fn.d)
    if abs(base) > ORIGIN_TOLERANCE:
        raise NonzeroOriginError(
            f"estimate_as needs F to vanish at the origin, got {base!r}; "
            "use estimate_delta_star, which splits F(0) evenly"
        )
    seed = int(seed)
    estimate, se = _sample(fn, point, base, n, seed)
    return _report(estimate, se, n, seed)


def estimate_delta_star(fn: FunctionHandle, x: Sequence[float], n: int, seed: int,
                        workers: int = 1) -> EstimatorReport:
    """Sampled counterpart of `delta_star`: F(0) is split evenly across the
    d coordinates, and the change from F(0) to F(x) is attributed like
    `estimate_as`.  The standard errors are those of that second part.

    Same requirements as `estimate_as`, except that F need not vanish at
    the origin.
    """
    point = _validate(fn, x, n, workers)
    base = fn((0.0,) * fn.d)
    seed = int(seed)
    estimate, se = _sample(fn, point, base, n, seed)
    return _report(estimate + base / fn.d, se, n, seed)
