"""The Shapley value's axioms on games (S1-S3) and their counterparts on
functions of binary arguments (T1-T4), checked for any allocator, with a
deliberately wrong allocator as their negative control.

The verdicts are the package's `AxiomVerdict`s, built from lists of
(witness, deviation) pairs by the helpers below.  The negative control
computes its shares by brute force over index-tuple subsets, as `oracles`
does, so it shares no code with the kernel it is run against.
"""

import itertools
import math

import numpy as np

from funcdecomp.axioms import FAIL, PARTIAL, PASS, AxiomVerdict
from funcdecomp.core import (
    DimensionMismatchError,
    inverse_permutation,
    permute,
    permute_mask,
    seeded_rng,
)
from funcdecomp.expr import NativeFunction, compose_permutation
from funcdecomp.game import Allocation, Game, game_from_binary_function, shapley


def _gap(a, b):
    """Largest absolute difference of two equally long vectors."""
    return max(abs(u - v) for u, v in zip(a, b))


def _verdict(axiom, deviations, tol):
    """FAIL with the first three (witness, deviation) pairs above ``tol``,
    else PASS; the worst deviation either way."""
    worst = max((w[1] for w in deviations), default=0.0)
    failing = tuple(w for w in deviations if w[1] > tol)[:3]
    return AxiomVerdict(axiom, FAIL if failing else PASS, worst, tol, failing)


def permute_game(game, perm):
    """The relabeled game (v o pi)(S) := v(pi(S))."""
    if len(perm) != game.d:
        raise DimensionMismatchError(f"permutation length {len(perm)} != d {game.d}")
    return Game(game.d, game.values[permute_mask(np.arange(1 << game.d), perm)])


def add_games(a, b):
    if a.d != b.d:
        raise DimensionMismatchError(f"dimension mismatch: {a.d} vs {b.d}")
    return Game(a.d, a.values + b.values)


def perturbed_shapley(game):
    """Deliberately wrong allocator: the Shapley weight of a coalition S,
    1 / (d C(d-1, |S|-1)), skewed by the factor 1 + 0.1 |S|."""
    d = game.d
    shares = []
    for i in range(d):
        total = 0.0
        for r in range(1, d + 1):
            weight = (1.0 + 0.1 * r) / (d * math.comb(d - 1, r - 1))
            for subset in itertools.combinations(range(d), r):
                if i in subset:
                    mask = sum(1 << j for j in subset)
                    total += weight * (game.values[mask] - game.values[mask ^ (1 << i)])
        shares.append(float(total))
    return Allocation(tuple(shares))


def _binary_mask(y):
    return sum(1 << i for i, c in enumerate(y) if c != 0.0)


def _binary_function(game):
    return NativeFunction(lambda y: game.values[_binary_mask(y)], game.d, label="game")


def _dummy_players(game):
    out = []
    for i in range(game.d):
        pairs = game.values.reshape(-1, 2, 1 << i)  # [:, 0] lacks player i, [:, 1] has it
        if np.array_equal(pairs[:, 1], pairs[:, 0]):
            out.append(i)
    return out


def _carriers(game):
    """All sets N with v(S) = v(S & N) for every S.  Quadratic in the table
    size, so restricted to small dimensions by the caller."""
    masks = np.arange(1 << game.d)
    return [n_mask for n_mask in range(1 << game.d)
            if np.array_equal(game.values[masks & n_mask], game.values)]


def check_shapley_axioms(game, other, perm=None, allocator=shapley, tol=1e-10, seed=0):
    """Check the allocator against the game axioms and, through the binary
    encoding of coalitions, their function-level counterparts."""
    d = game.d
    base = allocator(game).shares
    scale = 1.0 + max(abs(v) for v in base) + float(np.abs(game.values).max())

    if d <= 5:
        perms = [tuple(p) for p in itertools.permutations(range(d))]
    else:
        rng = seeded_rng(seed, 0x51)
        perms = [tuple(int(v) for v in rng.permutation(d)) for _ in range(20)]
    if perm is not None:
        perms.append(perm)

    verdicts = []

    dev_s1 = []
    for p in perms:
        relabeled = allocator(permute_game(game, p)).shares
        dev_s1.append((f"perm={p}", _gap(relabeled, permute(base, p)) / scale))
    verdicts.append(_verdict("S1", dev_s1, tol))

    if d <= 8:
        dev_s2 = []
        for n_mask in _carriers(game):
            inside = math.fsum(base[i] for i in range(d) if n_mask >> i & 1)
            dev_s2.append((f"carrier mask {n_mask:#b}",
                           abs(inside - float(game.values[n_mask])) / scale))
        verdicts.append(_verdict("S2", dev_s2, tol))
    else:
        verdicts.append(AxiomVerdict("S2", PARTIAL, math.nan, tol, (),
                                     "carrier scan skipped above dimension 8"))

    combined = allocator(add_games(game, other)).shares
    other_shares = allocator(other).shares
    summed = [a + b for a, b in zip(base, other_shares)]
    dev_s3 = [("game pair", _gap(combined, summed) / scale)]
    verdicts.append(_verdict("S3", dev_s3, tol))

    # T1-T4: the same allocator driven through functions on binary points.
    fn = _binary_function(game)
    varphi = lambda f: allocator(game_from_binary_function(f)).shares  # noqa: E731
    t_base = varphi(fn)

    dev_t1 = [("ones", abs(math.fsum(t_base) - fn((1.0,) * d)) / scale)]
    verdicts.append(_verdict("T1", dev_t1, tol))

    dev_t2 = []
    for p in perms[: max(1, min(len(perms), 10))]:
        relabeled = varphi(compose_permutation(fn, p))
        gap = _gap(relabeled, permute(t_base, inverse_permutation(p))) / scale
        dev_t2.append((f"perm={p}", gap))
    verdicts.append(_verdict("T2", dev_t2, tol))

    dummies = _dummy_players(game)
    if dummies:
        dev_t3 = [(f"dummy player {i + 1}", abs(t_base[i]) / scale) for i in dummies]
        verdicts.append(_verdict("T3", dev_t3, tol))
    else:
        verdicts.append(AxiomVerdict("T3", PASS, 0.0, tol, (),
                                     "no dummy players; vacuously true"))

    t_combined = varphi(_binary_function(add_games(game, other)))
    t_other = varphi(_binary_function(other))
    t_summed = [a + b for a, b in zip(t_base, t_other)]
    dev_t4 = [("game pair", _gap(t_combined, t_summed) / scale)]
    verdicts.append(_verdict("T4", dev_t4, tol))

    return verdicts
