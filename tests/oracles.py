"""Independent brute-force references the tests check the library against.

These deliberately avoid the library's bitmask/weight machinery: subsets
are index tuples, weights come from math.comb, and the permutation average
iterates activation orders directly.
"""

import itertools
import math


def close(a, b, rel=1e-12, abs_=1e-12):
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def all_close(xs, ys, rel=1e-12, abs_=1e-12):
    return len(xs) == len(ys) and all(close(a, b, rel, abs_) for a, b in zip(xs, ys))


def masked(x, subset):
    return tuple(c if j in subset else 0.0 for j, c in enumerate(x))


def brute_delta_star(fn, x):
    """Direct evaluation of the fixed-split subset-weighted decomposition."""
    d = len(x)
    subsets = [s for r in range(d + 1) for s in itertools.combinations(range(d), r)]
    out = []
    for i in range(d):
        total = fn(masked(x, ())) / d
        for subset in subsets:
            if i not in subset:
                continue
            weight = 1.0 / (d * math.comb(d - 1, len(subset) - 1))
            without = tuple(j for j in subset if j != i)
            total += weight * (fn(masked(x, subset)) - fn(masked(x, without)))
        out.append(total)
    return out


def brute_as(fn, x):
    """Subset-weighted decomposition without the fixed-cost part."""
    base = fn(masked(x, ())) / len(x)
    return [g - base for g in brute_delta_star(fn, x)]


def mean_of_sequential(fn, x):
    """Average the plain telescoping attribution over every activation order."""
    d = len(x)
    acc = [0.0] * d
    for order in itertools.permutations(range(d)):
        active = []
        prev = fn(masked(x, ()))
        for j in order:
            active.append(j)
            cur = fn(masked(x, active))
            acc[j] += cur - prev
            prev = cur
    n = math.factorial(d)
    return [a / n for a in acc]


def brute_shapley(values_by_frozenset, d):
    """Shapley shares from a {frozenset: value} table via joining orders."""
    acc = [0.0] * d
    for order in itertools.permutations(range(d)):
        coalition = frozenset()
        prev = values_by_frozenset[coalition]
        for j in order:
            coalition = coalition | {j}
            cur = values_by_frozenset[coalition]
            acc[j] += cur - prev
            prev = cur
    n = math.factorial(d)
    return [a / n for a in acc]


def harsanyi_dividends(fn, x):
    """Harsanyi dividends of the game T -> fn(masked(x, T)), keyed by
    subsets as sorted index tuples: its Möbius transform, one butterfly
    pass per coordinate, so dividends[T] is the alternating sum of the game
    over the subsets of T."""
    d = len(x)
    dividends = {s: fn(masked(x, s))
                 for r in range(d + 1) for s in itertools.combinations(range(d), r)}
    for i in range(d):
        for subset in dividends:
            if i in subset:
                dividends[subset] -= dividends[tuple(j for j in subset if j != i)]
    return dividends


def dividend_delta_star(fn, x):
    """delta-star from the dividends: the empty set's split evenly over the
    d coordinates, every other one split evenly over its own members."""
    d = len(x)
    dividends = harsanyi_dividends(fn, x)
    return [dividends[()] / d + math.fsum(v / len(s) for s, v in dividends.items() if i in s)
            for i in range(d)]
