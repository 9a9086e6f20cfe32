"""Shared domain primitives: points, index subsets, permutations.

Conventions used throughout the package:

* Points are plain tuples of finite floats.
* Subsets of coordinates are integer bitmasks; bit ``i`` (0-based) stands
  for the user-facing coordinate ``i + 1``.
* Permutations are tuples ``perm`` with ``perm[i]`` the 0-based image of
  position ``i``.  All user-facing I/O is 1-based; the conversion happens
  in this module and nowhere else.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

Point = tuple[float, ...]
Permutation = tuple[int, ...]

# Exact methods enumerate 2^d subsets or d! orderings; these caps keep the
# worst case tractable (~10^6 subset evaluations, ~3.6*10^6 orderings).
EXACT_SUBSET_CAP = 20
EXACT_PERMUTATION_CAP = 10
# Order sampling carries subsets as int64 bitmasks, which hold coordinates
# 1..63 (bit 63 is the sign bit).
MASK_DIMENSION_CAP = 63

# How far from zero the origin value may be for methods and games that
# require F(0) = 0: values read off a float-valued model cannot be held to
# exact equality.
ORIGIN_TOLERANCE = 1e-12


class DimensionMismatchError(ValueError):
    """Operands declare incompatible dimensions."""


class NonFiniteCoordinateError(ValueError):
    """A coordinate is NaN or infinite; rejected at the API boundary."""


class NonzeroOriginError(ValueError):
    """A value required to vanish at the origin does not."""


def validate_dimension(d: int, cap: int | None = None) -> int:
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise DimensionMismatchError(f"dimension must be a positive integer, got {d!r}")
    if cap is not None and d > cap:
        raise DimensionMismatchError(f"dimension {d} exceeds the cap {cap} of this method")
    return d


def seeded_rng(seed: int, salt: int) -> np.random.Generator:
    """Counter-based generator keyed by ``(seed mod 2**64, salt)``: a fixed
    key gives the same stream on every platform, and any integer seed,
    negative ones included, names a stream."""
    key = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, salt], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def as_point(coords: Iterable[float], d: int | None = None) -> Point:
    """Validate and freeze a coordinate sequence into a point tuple.

    Rejects NaN/infinity eagerly: the telescoping sums downstream would
    silently propagate them.
    """
    point = tuple(float(c) for c in coords)
    if len(point) < 1:
        raise DimensionMismatchError("a point needs at least one coordinate")
    if d is not None and len(point) != d:
        raise DimensionMismatchError(f"expected {d} coordinates, got {len(point)}")
    for i, c in enumerate(point):
        if not math.isfinite(c):
            raise NonFiniteCoordinateError(f"coordinate {i + 1} is not finite: {c!r}")
    return point


def _check_same_dimension(x: Sequence[float], y: Sequence[float]) -> None:
    if len(x) != len(y):
        raise DimensionMismatchError(f"dimension mismatch: {len(x)} vs {len(y)}")


# ---------------------------------------------------------------------------
# Subsets as bitmasks


def full_mask(d: int) -> int:
    return (1 << validate_dimension(d)) - 1


def validate_mask(mask: int, d: int) -> int:
    if mask < 0 or mask >> d:
        raise DimensionMismatchError(f"mask {mask:#x} has bits beyond dimension {d}")
    return mask


def validate_masks(masks: Iterable[int], d: int) -> np.ndarray:
    """Freeze a sequence of subset masks into a 1-D array, rejecting any
    mask with bits beyond dimension ``d``.  The array is int64 up to
    ``MASK_DIMENSION_CAP`` and holds Python ints above it."""
    if not isinstance(masks, np.ndarray):
        masks = list(masks)
    try:
        arr = np.asarray(masks, dtype=np.int64 if d <= MASK_DIMENSION_CAP else object)
    except OverflowError:  # a mask too wide for int64 is reported below
        arr = np.asarray(masks, dtype=object)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"masks must form a 1-D sequence, got shape {arr.shape}")
    bad = (arr < 0) | (arr >> d != 0)
    if bad.any():
        validate_mask(int(arr[bad.argmax()]), d)
    return arr


def mask_from_indices(indices: Iterable[int], d: int) -> int:
    """Build a bitmask from 1-based coordinate indices."""
    mask = 0
    for i in indices:
        if not 1 <= i <= d:
            raise DimensionMismatchError(f"index {i} outside 1..{d}")
        mask |= 1 << (i - 1)
    return mask


def indices_from_mask(mask: int) -> tuple[int, ...]:
    """1-based coordinate indices of the set bits, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def project(x: Sequence[float], mask: int) -> Point:
    """Zero out every coordinate whose index is not in the subset."""
    validate_mask(mask, len(x))
    return tuple(c if mask >> i & 1 else 0.0 for i, c in enumerate(x))


# ---------------------------------------------------------------------------
# Permutations


def permutation_from_ranks(ranks: Iterable[int]) -> Permutation:
    """Convert a user-facing 1-based permutation tuple to internal 0-based form."""
    perm = tuple(int(r) - 1 for r in ranks)
    validate_permutation(perm)
    return perm


def ranks_from_permutation(perm: Permutation) -> tuple[int, ...]:
    return tuple(p + 1 for p in perm)


def validate_permutation(perm: Sequence[int]) -> None:
    d = len(perm)
    if sorted(perm) != list(range(d)):
        raise DimensionMismatchError(f"not a permutation of 0..{d - 1}: {perm!r}")


def identity_permutation(d: int) -> Permutation:
    return tuple(range(validate_dimension(d)))


def inverse_permutation(perm: Permutation) -> Permutation:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def permute(x: Sequence[float], perm: Permutation) -> Point:
    """Reindex a vector: coordinate i of the result is x[perm[i]]."""
    _check_same_dimension(x, perm)
    return tuple(x[p] for p in perm)


def permute_mask(mask: int, perm: Permutation) -> int:
    """Image of a subset under the permutation: bit perm[i] set iff bit i was.
    Works on an int and elementwise on an integer array of masks."""
    out = 0
    for i, p in enumerate(perm):
        out |= (mask >> i & 1) << p
    return out


# ---------------------------------------------------------------------------
# Exact enumeration over all orderings

_PERM_CHUNK = 40320  # rows per chunk; bounds memory for d up to the cap


def permutation_average_marginals(values: Sequence[float], d: int) -> np.ndarray:
    """Average marginal contribution of each coordinate over all d! orderings.

    ``values`` is a dense table indexed by subset bitmask: ``values[m]`` is
    the payoff once exactly the coordinates in ``m`` are active.  For each
    ordering, coordinate ``j`` is credited with the change in value at the
    step that activates ``j``; the result averages those credits.

    Enumerates every ordering (no sampling); chunked so the working set
    stays small.  Accumulation order is fixed, so the result is
    reproducible bit for bit.
    """
    validate_dimension(d, EXACT_PERMUTATION_CAP)
    vals = np.asarray(values, dtype=float)
    if vals.shape != (1 << d,):
        raise DimensionMismatchError(f"need a table of {1 << d} values, got {vals.shape}")
    base = vals[0]
    totals = np.zeros(d)
    perms_iter = itertools.permutations(range(d))
    while True:
        chunk = list(itertools.islice(perms_iter, _PERM_CHUNK))
        if not chunk:
            break
        perms = np.asarray(chunk, dtype=np.int64)
        prefix = np.bitwise_or.accumulate(np.left_shift(1, perms), axis=1)
        at_step = vals[prefix]
        before = np.concatenate([np.full((len(chunk), 1), base), at_step[:, :-1]], axis=1)
        diffs = at_step - before
        totals += np.bincount(perms.ravel(), weights=diffs.ravel(), minlength=d)
    return totals / math.factorial(d)
