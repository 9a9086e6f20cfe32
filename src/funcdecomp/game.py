"""Coalition games, the classical Shapley allocation, and the bridge
between set-functions and functions on binary points."""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .core import (
    EXACT_PERMUTATION_CAP,
    EXACT_SUBSET_CAP,
    ORIGIN_TOLERANCE,
    DimensionMismatchError,
    NonzeroOriginError,
    indices_from_mask,
    mask_from_indices,
    permutation_average_marginals,
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


def shapley_weight(d: int, size: int) -> float:
    """Weight (size-1)!(d-size)!/d! for a coalition of the given size.

    Exact integer factorials, one float division at the end; no per-term
    rounding accumulates.
    """
    if not 1 <= size <= d:
        raise DimensionMismatchError(f"coalition size {size} outside 1..{d}")
    return math.factorial(size - 1) * math.factorial(d - size) / math.factorial(d)


@lru_cache(maxsize=None)
def _size_weights(d: int) -> np.ndarray:
    """Shapley weight per coalition size 0..d (size 0 never contributes;
    read-only)."""
    out = np.array([0.0] + [shapley_weight(d, size) for size in range(1, d + 1)])
    out.flags.writeable = False
    return out


def weighted_marginals(values: Sequence[float], d: int) -> np.ndarray:
    """Per coordinate ``i``, the sum over coalitions ``S`` containing ``i``
    of ``shapley_weight(d, |S|) * (values[S] - values[S \\ {i}])``.

    ``values`` is a dense table indexed by subset bitmask along its last
    axis, with any number of rows before it: a table of shape
    ``(n, 2^d)`` gives ``(n, d)``, and one of shape ``(2^d,)`` gives
    ``(d,)``.  Row k of the result depends on row k of the table alone and
    equals the result for that row by itself bit for bit.  This is the
    Shapley value of each row read as a game.  Each difference is taken
    before it is weighted, so a coordinate that never changes the value
    gets exactly 0.
    """
    vals = np.asarray(values, dtype=float)
    if vals.shape[-1:] != (1 << d,):
        raise DimensionMismatchError(f"need a table of {1 << d} values, got {vals.shape}")
    rows = vals.reshape(-1, 1 << d)
    n = len(rows)
    half = 1 << (d - 1)
    # Coordinate i pairs (S + {i}, S) in ascending order of c, the mask of
    # S with bit i squeezed out, and weighs the pair by |S| + 1 =
    # popcount(c) + 1: one weight vector serves every coordinate.  The
    # sizes double up, s[2^j:2^(j+1)] = s[:2^j] + 1, as intp: numpy
    # gathers with an intp index about twice as fast as with a uint8 one.
    # Both are rebuilt per call: a cached array outlives the call and
    # keeps the allocator from returning freed memory.
    sizes = np.empty(half, dtype=np.intp)
    sizes[0] = 1
    for j in range(d - 1):
        np.add(sizes[:1 << j], 1, out=sizes[1 << j:2 << j])
    w = _size_weights(d)[sizes]
    del sizes  # before the buffer below: at most two half-tables live at once
    out = np.empty((n, d))
    diff = np.empty((n, half))  # one buffer for every coordinate
    for i in range(d):
        run = 1 << i  # the pairs of coordinate i lie in runs of this length
        pairs = rows.reshape(n, half >> i, 2, run)
        terms = diff.reshape(n, half >> i, run)
        # numpy pays per run: where runs are short and many, take one offset
        # within the runs at a time, a long strided pass each.  Per
        # coordinate this wins from about 300 pairs per offset at run 2 and
        # 900 at run 4; 512 lies between.  Where the table is small one call
        # wins: splitting every run below 8 takes the kernel calls of one
        # axioms-d4 op from 9.4 to 10.6 ms, and one d = 4 row from 43 to
        # 58 us.  At run 1 both sides are the same single pass.
        if run < 8 and n * (half >> i) >= 512:
            for lo in range(run):
                np.subtract(pairs[:, :, 1, lo], pairs[:, :, 0, lo], out=terms[:, :, lo])
        else:
            np.subtract(pairs[:, :, 1], pairs[:, :, 0], out=terms)
        diff *= w
        # each row is summed along its own contiguous axis, in the order a
        # one-row table is summed
        out[:, i] = diff.sum(axis=1)
    return out.reshape(vals.shape[:-1] + (d,))


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


def induced_game(fn: FunctionHandle, x: Sequence[float]) -> Game:
    """The game S -> F(p_S x) of a function at a point.

    The dimension cap is checked before any evaluation, and F(0) before
    any other point (see `check_empty_coalition`); the game stores it as
    exactly zero.  Each of the ``2^d`` points is evaluated once.
    """
    d = validate_dimension(fn.d, EXACT_SUBSET_CAP)
    check_empty_coalition(fn.evaluate_table([x], [0])[0, 0])
    return Game(d, np.concatenate(([0.0], fn.evaluate_table([x], np.arange(1, 1 << d))[0])))


def game_from_binary_function(fn: FunctionHandle) -> Game:
    """Tabulate a function on binary points into a game: the coalition
    encoded by mask ``m`` is valued at the function's output on the
    indicator vector of ``m`` (the game induced at the all-ones point)."""
    return induced_game(fn, (1.0,) * fn.d)


# ---------------------------------------------------------------------------
# JSON interchange: {"d": int, "values": {"1,3": payoff, ...}} with coalition
# keys as comma-separated 1-based indices ("" for the empty coalition).  A
# file `json.dump` writes of a mask-ordered table is read in pieces straight
# into the payoff array, without its whole text or its dict.

_HEAD = re.compile(r'\{"d": ([1-9][0-9]?), "values": \{')  # EXACT_SUBSET_CAP < 100
_HEAD_CHARS = len('{"d": 20, "values": {')  # the head with a two-digit d
_PIECE = 1 << 18  # characters read at a time
_GROUP_BITS = 12  # keys are checked in aligned groups of 2^12 masks


def mask_ordered_game(fh: TextIO) -> Game | None:
    """The game of an open JSON text file in `json.dump`'s default layout
    with the canonical keys in mask order (with or without ``""``); None
    for any other text, never an error.  A game it returns is the one
    ``game_from_json(json.load(fh))`` returns.

    The text is read in pieces of about `_PIECE` characters, each but the
    last ending just before a key's quote, so the memory needed is the
    payoff array plus one piece.  Split on ``"``, a piece alternates keys
    and separators; NULs (not valid in JSON) joined in between separators
    count that each is ``": "``, one item and ``", "``.  A piece's items
    are parsed as one array by `json`'s scanner, and keys of digits and
    commas decode to themselves.  A text that is not UTF-8 reads None, so
    that a read of the whole file names the offset of the bad byte."""
    try:
        values = _read_mask_ordered(fh)
    except UnicodeDecodeError:
        return None
    if values is None or values[0] != 0.0:  # `game_from_json` words the error
        return None
    return Game(values.size.bit_length() - 1, values)


def _read_mask_ordered(fh: TextIO) -> np.ndarray | None:
    text = ""
    while len(text) < _HEAD_CHARS and (piece := fh.read(min(_PIECE, _HEAD_CHARS - len(text)))):
        text += piece
    head = _HEAD.match(text)
    d = int(head[1]) if head else 0
    if not 1 <= d <= EXACT_SUBSET_CAP:
        return None
    values, keys, n = np.empty(1 << d), _KeyCheck(d), 0
    for piece, last in _pieces(fh, text[head.end():]):
        parts = piece.split('"')
        m = len(parts) // 2  # the keys in the piece
        if parts[0] or len(parts) % 2 == 0:
            return None
        separators = "\0".join(parts[2::2])
        if last:
            separators = separators.rstrip(" \t\n\r")
        if not (separators.startswith(": ") and separators.endswith("}}" if last else ", ")
                and separators.count("\0") == separators.count(", \0: ") == m - 1):
            return None
        try:
            payoffs = json.loads("[" + separators[2:-2].replace(", \0: ", ", ") + "]")
        except (ValueError, RecursionError):
            return None
        if n == 0 and parts[1]:  # the empty coalition left out
            values[0], n = 0.0, 1
            keys.feed([""])
        if len(payoffs) != m or n + m > values.size or not keys.feed(parts[1::2]):
            return None
        payoffs = _finite_payoffs(payoffs)
        if payoffs is None:
            return None
        values[n:n + m] = payoffs
        n += m
        del piece, parts, separators  # before the next piece is read
    return values if n == values.size and keys.done() else None


def _pieces(fh: TextIO, text: str) -> Iterator[tuple[str, bool]]:
    """The rest of a file, from the `text` already read on, read `_PIECE`
    characters at a time and cut just before the quote of the last
    ``, "`` read; each piece with whether it is the last."""
    while piece := fh.read(_PIECE):
        seen = max(len(text) - 2, 0)  # finds a ``, "`` across the seam
        text += piece
        cut = text.rfind(', "', seen)
        if cut >= 0:
            piece, text = text[:cut + 2], text[cut + 2:]
            yield piece, False
    yield text, True


def game_from_json(data: Mapping) -> Game:
    """Read a game from its JSON form (see above).

    A key lists distinct indices in 1..d, in any order, with spaces
    around them and leading zeros allowed; a coalition spelled twice, a
    repeated index or a payoff that is not a finite number is a
    `GameFormatError`, and the first bad entry in key order is reported.
    A table whose keys are the canonical ones in mask order (the order
    `Game.values` is indexed in, with or without ``""``) and whose
    payoffs are all ints and floats is read in one pass; any other table
    is read key by key, each distinct index spelling parsed once per
    call.  Key order affects only the speed.
    """
    if not isinstance(data, Mapping) or "d" not in data or "values" not in data:
        raise GameFormatError('game JSON needs the keys "d" and "values"')
    d = data["d"]
    if not isinstance(d, int) or isinstance(d, bool) or not 1 <= d <= EXACT_SUBSET_CAP:
        raise GameFormatError(f'"d" must be an integer in 1..{EXACT_SUBSET_CAP}, got {d!r}')
    raw = data["values"]
    if not isinstance(raw, Mapping):
        raise GameFormatError('"values" must be an object of coalition: payoff entries')
    values = _mask_ordered_payoffs(raw, d)
    if values is None:
        values = _payoffs_by_key(raw, d)
    if values[0] != 0.0:
        raise NonzeroOriginError(f"empty coalition must be worth 0, got {float(values[0])!r}")
    missing = np.flatnonzero(np.isnan(values))
    if missing.size:
        names = ", ".join(_coalition_key(int(m)) for m in missing[:5])
        raise GameFormatError(
            f"{missing.size} coalition(s) missing from the table (e.g. {names})"
        )
    return Game(d, values)


def _mask_ordered_payoffs(raw: Mapping, d: int) -> np.ndarray | None:
    """The payoffs of a table whose keys are the canonical ones in mask
    order (with or without ``""``) and whose payoffs are all finite ints and
    floats; None for any other table, so that `_payoffs_by_key` reads it and
    words its error."""
    keys, left_out = _KeyCheck(d), next(iter(raw), "") != ""
    if left_out:
        keys.feed([""])
    try:
        in_order = len(raw) + left_out == 1 << d and keys.feed(raw) and keys.done()
    except TypeError:  # a key that is not a string
        return None
    payoffs = _finite_payoffs(raw.values()) if in_order else None
    if payoffs is None or not left_out:
        return payoffs
    return np.concatenate(([0.0], payoffs))


def _finite_payoffs(payoffs: Collection) -> np.ndarray | None:
    """The payoffs as floats if they are all finite ints and floats; None
    otherwise."""
    if not {int, float}.issuperset(map(type, payoffs)):
        return None
    try:
        values = np.fromiter(payoffs, float, len(payoffs))
    except OverflowError:  # an integer beyond the float range
        return None
    return values if np.isfinite(values).all() else None


class _KeyCheck:
    """Checks the keys of a d-player table, fed in order, against the
    canonical keys in mask order, one aligned group of ``2^k`` masks at a
    time, k = min(_GROUP_BITS, d).

    The key of mask ``q 2^k + r``, for ``0 < r < 2^k``, is that of ``r``
    followed by the indices of ``q 2^k`` (``",13,17"``), so each group's
    text is built from group 0's; a table in another order stops at its
    first differing group.  Each key is followed by a newline, and the
    canonical text has one newline per key: a key holding a newline shows
    as one key too few, which the caller counts."""

    def __init__(self, d: int) -> None:
        self.k = min(_GROUP_BITS, d)
        self.groups = 1 << (d - self.k)
        base = "\n"
        for i in range(1, self.k + 1):  # base holds masks 0 .. 2^(i-1) - 1
            base += f"{i}\n" + base[1:].replace("\n", f",{i}\n")
        self.base = self.group = base
        self.q, self.text = 0, ""  # the group being checked; its keys fed so far

    def feed(self, keys: Iterable[str]) -> bool:
        """Take more keys; False once a group they complete differs."""
        text = self.text + "\n".join([*keys, ""])
        at = 0
        while self.q < self.groups and len(text) - at >= len(self.group):
            if not text.startswith(self.group, at):
                return False
            at += len(self.group)
            self.q += 1
            high = _coalition_key(self.q << self.k)
            self.group = f"{high}\n" + self.base[1:].replace("\n", f",{high}\n")
        self.text = text[at:]
        return True

    def done(self) -> bool:
        """Whether the keys fed are the canonical ones of every mask."""
        return self.q == self.groups and not self.text


def _payoffs_by_key(raw: Mapping, d: int) -> np.ndarray:
    """The payoffs of a table in any key order and spelling, NaN for a
    missing coalition and 0 for a missing empty one; the first bad entry
    in key order raises its `GameFormatError`."""
    bits = _IndexBits(d)
    values: list[float | None] = [None] * (1 << d)
    for key, payoff in raw.items():
        mask = bits.mask(key)
        if mask is None:
            mask = _parse_coalition_key(key, d)  # an invalid key: raises its error
        if values[mask] is not None:
            raise GameFormatError(f"coalition {key!r} listed twice")
        if not isinstance(payoff, (int, float)) or isinstance(payoff, bool):
            raise GameFormatError(f"payoff for {key!r} is not a number: {payoff!r}")
        try:
            value = float(payoff)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise GameFormatError(f"payoff for {key!r} is not a finite number")
        values[mask] = value
    if values[0] is None:  # missing empty coalition defaults to 0
        values[0] = 0.0
    return np.array(values, dtype=float)  # None, a missing coalition, reads NaN


class _IndexBits(dict):
    """The bit of each index spelling met so far, for one `game_from_json`
    call: ``1 << (i-1)`` for an index ``i`` in 1..d and 0 for any other
    integer; a part that is not an integer raises ValueError."""

    def __init__(self, d: int) -> None:
        super().__init__()
        self.d = d

    def __missing__(self, part: str) -> int:
        i = int(part)
        bit = self[part] = 1 << (i - 1) if 1 <= i <= self.d else 0
        return bit

    def mask(self, key: object) -> int | None:
        """The mask of a valid coalition key; None for any other key.

        Distinct indices in range set one bit each; a repeated index
        carries and one out of range adds 0, so either leaves fewer set
        bits than parts."""
        if not isinstance(key, str):
            return None
        text = key.strip()
        parts = text.split(",") if text else []
        try:
            mask = sum(map(self.__getitem__, parts))
        except ValueError:
            return None
        return mask if mask.bit_count() == len(parts) else None


def _coalition_key(mask: int) -> str:
    return ",".join(str(i) for i in indices_from_mask(mask))


def _parse_coalition_key(key: str, d: int) -> int:
    """The mask of a coalition key, or the `GameFormatError` that names
    what is wrong with it."""
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
