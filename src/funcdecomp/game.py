"""Coalition games, the classical Shapley allocation, and the bridge
between set-functions and functions on binary points."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import (
    EXACT_PERMUTATION_CAP,
    EXACT_SUBSET_CAP,
    ORIGIN_TOLERANCE,
    DimensionMismatchError,
    NonzeroOriginError,
    Permutation,
    indices_from_mask,
    mask_from_indices,
    permutation_average_marginals,
    permute_mask,
    validate_dimension,
)
from .expr import FunctionHandle


class GameFormatError(ValueError):
    """A game table is incomplete or malformed."""


@dataclass(frozen=True, eq=False)
class Game:
    """Total payoff table over all coalitions of ``d`` players.

    ``values`` is a read-only float64 array indexed by coalition bitmask:
    ``values[m]`` is the payoff of the coalition encoded by ``m``.  Any
    sequence of ``2^d`` numbers is accepted; the game keeps its own copy.
    The empty coalition must be worth exactly zero.
    """

    d: int
    values: np.ndarray

    def __post_init__(self) -> None:
        validate_dimension(self.d, EXACT_SUBSET_CAP)
        values = np.array(self.values, dtype=float)
        if values.shape != (1 << self.d,):
            raise GameFormatError(
                f"table must cover all {1 << self.d} coalitions, got {values.size}"
            )
        if values[0] != 0.0:
            raise NonzeroOriginError(
                f"empty coalition must be worth exactly 0, got {float(values[0])!r}"
            )
        bad = ~np.isfinite(values)
        if bad.any():
            m = int(bad.argmax())
            raise GameFormatError(f"non-finite payoff {float(values[m])!r} for coalition {m:#b}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Game):
            return NotImplemented
        return self.d == other.d and np.array_equal(self.values, other.values)

    @property
    def grand_value(self) -> float:
        return float(self.values[-1])


@dataclass(frozen=True)
class Allocation:
    """Per-player shares of a game's grand-coalition payoff."""

    shares: tuple[float, ...]

    @property
    def total(self) -> float:
        return math.fsum(self.shares)

    def efficiency_gap(self, game: Game) -> float:
        return abs(self.total - game.grand_value)


@lru_cache(maxsize=None)
def shapley_weight(d: int, size: int) -> float:
    """Weight (size-1)!(d-size)!/d! for a coalition of the given size.

    Exact integer factorials, one float division at the end; no per-term
    rounding accumulates.
    """
    if not 1 <= size <= d:
        raise DimensionMismatchError(f"coalition size {size} outside 1..{d}")
    return math.factorial(size - 1) * math.factorial(d - size) / math.factorial(d)


@lru_cache(maxsize=None)
def _size_weights(d: int, weight: Callable[[int, int], float]) -> np.ndarray:
    """Weight per coalition size 0..d (size 0 never contributes; read-only)."""
    out = np.array([0.0] + [weight(d, size) for size in range(1, d + 1)])
    out.flags.writeable = False
    return out


def weighted_marginals(values: Sequence[float], d: int,
                       weight: Callable[[int, int], float] = shapley_weight) -> np.ndarray:
    """Per coordinate ``i``, the sum over coalitions ``S`` containing ``i``
    of ``weight(d, |S|) * (values[S] - values[S \\ {i}])``.

    ``values`` is a dense table indexed by subset bitmask.  With the default
    weight this is the Shapley value of the table read as a game.  Each
    difference is taken before it is weighted, so a coordinate that never
    changes the value gets exactly 0.
    """
    vals = np.asarray(values, dtype=float)
    if vals.shape != (1 << d,):
        raise DimensionMismatchError(f"need a table of {1 << d} values, got {vals.shape}")
    # Coalition sizes are recomputed per call: a cached 2^d array outlives
    # the call and keeps the allocator from returning freed memory.
    sizes = np.zeros(1 << d, dtype=np.uint8)
    for i in range(d):
        sizes.reshape(-1, 2, 1 << i)[:, 1] += 1
    w = _size_weights(d, weight)[sizes]
    out = np.empty(d)
    for i in range(d):
        pairs = vals.reshape(-1, 2, 1 << i)
        diff = pairs[:, 1] - pairs[:, 0]
        diff *= w.reshape(-1, 2, 1 << i)[:, 1]
        out[i] = diff.sum()
    return out


def shapley(game: Game) -> Allocation:
    """Classical Shapley allocation of the grand-coalition payoff.

    Sums weighted marginal contributions v(S) - v(S \\ {i}) over the
    coalitions containing each player (the remaining terms vanish).
    """
    return Allocation(tuple(weighted_marginals(game.values, game.d).tolist()))


def shapley_permutation_oracle(game: Game) -> Allocation:
    """Independent route to the same allocation: enumerate all d! joining
    orders and average each player's marginal contribution."""
    validate_dimension(game.d, EXACT_PERMUTATION_CAP)
    marginals = permutation_average_marginals(game.values, game.d)
    return Allocation(tuple(float(v) for v in marginals))


def check_empty_coalition(value: float) -> None:
    """Reject a computed empty-coalition value farther than ORIGIN_TOLERANCE
    from zero."""
    if abs(value) > ORIGIN_TOLERANCE:
        raise NonzeroOriginError(
            f"function is {float(value)!r} at the origin; a game needs value 0 there"
        )


def game_from_table(d: int, values: Sequence[float]) -> Game:
    """Read a dense table of computed values, indexed by coalition mask, as
    a game.  The empty-coalition entry must vanish within ORIGIN_TOLERANCE;
    the game stores it as exactly zero."""
    values = np.asarray(values, dtype=float)
    check_empty_coalition(values[0])
    return Game(d, np.concatenate(([0.0], values[1:])))


def induced_game(fn: FunctionHandle, x: Sequence[float]) -> Game:
    """The game S -> F(p_S x) of a function at a point.

    The dimension cap is checked before any evaluation, and F(0) is
    evaluated and checked (see `game_from_table`) before any other point.
    """
    d = validate_dimension(fn.d, EXACT_SUBSET_CAP)
    check_empty_coalition(fn.evaluate_masks(x, [0])[0])
    return game_from_table(d, fn.evaluate_masks(x, np.arange(1 << d)))


def game_from_binary_function(fn: FunctionHandle) -> Game:
    """Tabulate a function on binary points into a game: the coalition
    encoded by mask ``m`` is valued at the function's output on the
    indicator vector of ``m`` (the game induced at the all-ones point)."""
    return induced_game(fn, (1.0,) * fn.d)


def permute_game(game: Game, perm: Permutation) -> Game:
    """The relabeled game (v o pi)(S) := v(pi(S))."""
    if len(perm) != game.d:
        raise DimensionMismatchError(f"permutation length {len(perm)} != d {game.d}")
    return Game(game.d, game.values[permute_mask(np.arange(1 << game.d), perm)])


def add_games(a: Game, b: Game) -> Game:
    if a.d != b.d:
        raise DimensionMismatchError(f"dimension mismatch: {a.d} vs {b.d}")
    return Game(a.d, a.values + b.values)


# ---------------------------------------------------------------------------
# JSON interchange: {"d": int, "values": {"1,3": payoff, ...}} with coalition
# keys as comma-separated 1-based indices ("" for the empty coalition).


def game_from_json(data: Mapping) -> Game:
    if not isinstance(data, Mapping) or "d" not in data or "values" not in data:
        raise GameFormatError('game JSON needs the keys "d" and "values"')
    d = data["d"]
    if not isinstance(d, int) or isinstance(d, bool) or not 1 <= d <= EXACT_SUBSET_CAP:
        raise GameFormatError(f'"d" must be an integer in 1..{EXACT_SUBSET_CAP}, got {d!r}')
    raw = data["values"]
    if not isinstance(raw, Mapping):
        raise GameFormatError('"values" must be an object of coalition: payoff entries')
    values: list[float | None] = [None] * (1 << d)
    for key, payoff in raw.items():
        mask = _parse_coalition_key(key, d)
        if values[mask] is not None:
            raise GameFormatError(f"coalition {key!r} listed twice")
        if not isinstance(payoff, (int, float)) or isinstance(payoff, bool):
            raise GameFormatError(f"payoff for {key!r} is not a number: {payoff!r}")
        values[mask] = float(payoff)
    if values[0] is None:  # missing empty coalition defaults to 0
        values[0] = 0.0
    if values[0] != 0.0:
        raise NonzeroOriginError(f"empty coalition must be worth 0, got {values[0]!r}")
    if None in values:
        missing = [m for m, v in enumerate(values) if v is None]
        names = ", ".join(_coalition_key(m) for m in missing[:5])
        raise GameFormatError(
            f"{len(missing)} coalition(s) missing from the table (e.g. {names})"
        )
    return Game(d, values)


def _coalition_key(mask: int) -> str:
    return ",".join(str(i) for i in indices_from_mask(mask))


def _parse_coalition_key(key: str, d: int) -> int:
    if not isinstance(key, str):
        raise GameFormatError(f"coalition key must be a string, got {key!r}")
    text = key.strip()
    if not text:
        return 0
    try:
        indices = [int(part) for part in text.split(",")]
    except ValueError:
        raise GameFormatError(f"bad coalition key {key!r}") from None
    if len(set(indices)) != len(indices):
        raise GameFormatError(f"repeated index in coalition key {key!r}")
    try:
        return mask_from_indices(indices, d)
    except DimensionMismatchError as exc:
        raise GameFormatError(f"bad coalition key {key!r}: {exc}") from None
