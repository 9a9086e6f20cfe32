"""Seeded inputs and reference checks for the funcdecomp benchmark.

Nothing here imports funcdecomp: every reference is computed from the
parameters the generator chose, so a check cannot share a defect with the
code it checks.  A generator takes a ``numpy.random.Generator`` and returns an
``Op``: the argv for ``funcdecomp.cli.main`` plus what the check needs.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

# Support sizes of the eight monomial terms of a generated polynomial.  A
# fixed schedule keeps the expression tree the same size for every seed, so
# the seed changes the inputs but not the amount of work.
TERM_SUPPORT_SIZES = (1, 2, 2, 3, 3, 4, 5, 6)

# Standard error the sampled estimate is scaled to in time_to_se_s.
SE_TARGET = 0.01

# Each generated game is the sum of this many unanimity games.
GAME_TERMS = 64
GAME_MAX_SUPPORT = 6

AXIOMS = tuple(f"A{k}" for k in range(1, 10))


@dataclass
class Op:
    """One call of ``funcdecomp.cli.main``.  In argv, ``{out}`` stands for the
    report path and ``{dir}`` for the directory ``files`` are written to."""

    argv: list[str]
    expected: dict = field(default_factory=dict)
    files: dict[str, str] = field(default_factory=dict)  # file name -> content


# ---------------------------------------------------------------------------
# Sparse polynomials with a closed-form decomposition


@dataclass(frozen=True)
class Polynomial:
    """const + sum_T c_T * prod_{j in T} g_j(x_j), with g_j(0) = 0."""

    d: int
    point: tuple[float, ...]
    const: float
    supports: tuple[tuple[int, ...], ...]
    term_values: tuple[float, ...]  # each term evaluated at ``point``
    text: str

    def contributions(self) -> list[float]:
        """Each term's value splits evenly over its support; the constant
        splits evenly over all d coordinates."""
        out = [self.const / self.d] * self.d
        for support, value in zip(self.supports, self.term_values):
            for j in support:
                out[j] += value / len(support)
        return out

    @property
    def total(self) -> float:
        return self.const + math.fsum(self.term_values)


def sparse_polynomial(rng: np.random.Generator, d: int, disjoint: bool) -> Polynomial:
    """A point and a polynomial of ``len(TERM_SUPPORT_SIZES)`` terms.

    Half the factors are plain powers ``xj^q``, the other half one-sided
    powers ``max(+-xj,0)^q`` with the sign that keeps them active at the
    point (q in 1..3).  Coefficients are set so each term is +-1 at the
    point: with disjoint supports the sampled estimator's standard error then
    depends only on the support sizes, not on the seed.  The constant is
    positive and the term signs are written as ``+``/``-``, so the size of
    the expression tree varies only with the signs of the point.
    """
    n_factors = sum(TERM_SUPPORT_SIZES)
    if disjoint and n_factors > d:
        raise ValueError(f"disjoint supports need d >= {n_factors}")
    point = tuple(float(s * m) for s, m in
                  zip(rng.choice([-1.0, 1.0], size=d), rng.uniform(0.5, 1.5, size=d)))
    const = float(rng.uniform(1.0, 3.0))
    order = [int(j) for j in rng.permutation(d)]
    one_sided = {int(f) for f in rng.choice(n_factors, size=n_factors // 2, replace=False)}
    supports, values, terms = [], [], []
    f = 0
    for k, size in enumerate(TERM_SUPPORT_SIZES):
        if disjoint:
            start = sum(TERM_SUPPORT_SIZES[:k])
            support = tuple(sorted(order[start:start + size]))
        else:
            support = tuple(sorted(int(j) for j in rng.choice(d, size=size, replace=False)))
        factors, product = [], 1.0
        for j in support:
            q = int(rng.integers(1, 4))
            xj = point[j]
            if f in one_sided:
                sign = "" if xj > 0 else "-"
                factors.append(f"max({sign}x{j + 1},0)^{q}")
                product *= abs(xj) ** q
            else:
                factors.append(f"x{j + 1}^{q}")
                product *= xj ** q
            f += 1
        coef = 1.0 / abs(product)
        sign = float(rng.choice([-1.0, 1.0]))
        supports.append(support)
        values.append(sign * coef * product)
        terms.append(f"{'+' if sign > 0 else '-'} {coef!r}*" + "*".join(factors))
    text = f"{const!r} " + " ".join(terms)
    return Polynomial(d, point, const, tuple(supports), tuple(values), text)


def _point_arg(point: tuple[float, ...]) -> str:
    # "--point=" keeps argparse from reading a leading "-" as an option.
    return "--point=" + ",".join(repr(v) for v in point)


def exact_op(rng: np.random.Generator, d: int = 16) -> Op:
    poly = sparse_polynomial(rng, d, disjoint=False)
    argv = ["decompose", "-d", str(d), "-f", poly.text, _point_arg(poly.point),
            "--method", "delta-star", "--format", "json", "-o", "{out}"]
    return Op(argv, {"contributions": poly.contributions(), "total": poly.total})


def sampled_op(rng: np.random.Generator, d: int = 40, samples: int = 2000) -> Op:
    poly = sparse_polynomial(rng, d, disjoint=True)
    seed = int(rng.integers(0, 2**31))
    argv = ["decompose", "-d", str(d), "-f", poly.text, _point_arg(poly.point),
            "--samples", str(samples), "--seed", str(seed), "--workers", "1",
            "--format", "json", "-o", "{out}"]
    return Op(argv, {"contributions": poly.contributions(), "total": poly.total,
                     "samples": samples})


# ---------------------------------------------------------------------------
# Coalition games as sums of unanimity games


@dataclass(frozen=True)
class DividendGame:
    """v(S) = sum of the dividends a_T over the supports T within S."""

    d: int
    supports: tuple[tuple[int, ...], ...]
    dividends: tuple[float, ...]

    def shares(self) -> list[float]:
        """phi_i = sum over T containing i of a_T / |T|."""
        out = [0.0] * self.d
        for support, a in zip(self.supports, self.dividends):
            for j in support:
                out[j] += a / len(support)
        return out

    def values(self) -> np.ndarray:
        masks = np.arange(1 << self.d)
        v = np.zeros(1 << self.d)
        for support, a in zip(self.supports, self.dividends):
            m = sum(1 << j for j in support)
            v[(masks & m) == m] += a
        return v

    def to_json(self) -> str:
        keys = coalition_keys(self.d)
        body = ", ".join(f'"{k}": {float(v)!r}' for k, v in zip(keys, self.values()))
        return f'{{"d": {self.d}, "values": {{{body}}}}}'


@functools.cache
def coalition_keys(d: int) -> tuple[str, ...]:
    """Game-JSON keys for all masks: comma-separated 1-based indices."""
    keys = [""]
    for i in range(d):
        keys += [f"{k},{i + 1}" if k else str(i + 1) for k in keys]
    return tuple(keys)


def dividend_game(rng: np.random.Generator, d: int = 18) -> DividendGame:
    supports, dividends = [], []
    for k in range(GAME_TERMS):
        size = min(1 + k % GAME_MAX_SUPPORT, d)
        supports.append(tuple(sorted(int(j) for j in rng.choice(d, size=size, replace=False))))
        dividends.append(float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)))
    return DividendGame(d, tuple(supports), tuple(dividends))


def game_op(rng: np.random.Generator, d: int = 18) -> Op:
    game = dividend_game(rng, d)
    argv = ["shapley", "{dir}/game.json", "--format", "json", "-o", "{out}"]
    return Op(argv, {"shares": game.shares(), "grand": math.fsum(game.dividends)},
              files={"game.json": game.to_json()})


def axioms_op(rng: np.random.Generator) -> Op:
    seed = int(rng.integers(0, 2**31))
    return Op(["axioms", "--principle", "delta-star", "--seed", str(seed), "-o", "{out}"])


# ---------------------------------------------------------------------------
# Reference checks: each returns None when the report is right, else why not.


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


def check_exact(report: dict, expected: dict) -> str | None:
    got = report["rows"][0]["contributions"]
    want = expected["contributions"]
    if len(got) != len(want):
        return f"{len(got)} contributions, expected {len(want)}"
    scale = max(1.0, max(abs(v) for v in want))
    for i, (g, w) in enumerate(zip(got, want)):
        if not _close(g, w, 1e-9 * scale):
            return f"G{i + 1} = {g!r}, closed form {w!r}"
    return None


def check_sampled(report: dict, expected: dict) -> str | None:
    """Within 5 standard errors of the closed form (plus a 1e-9 relative
    floor), and summing to F(x)."""
    row = report["rows"][0]
    want = expected["contributions"]
    got, se = row["contributions"], row["standard_error"]
    if len(got) != len(want) or len(se) != len(want):
        return f"{len(got)} contributions, expected {len(want)}"
    scale = max(1.0, max(abs(v) for v in want))
    for i, (g, s, w) in enumerate(zip(got, se, want)):
        if not _close(g, w, 5.0 * s + 1e-9 * scale):
            return f"G{i + 1} = {g!r} (SE {s!r}), closed form {w!r}"
    total = expected["total"]
    tol = 1e-9 * max(1.0, abs(total))
    if not _close(math.fsum(got), total, tol) or not _close(row["total"], total, tol):
        return f"contributions sum to {math.fsum(got)!r}, F(x) = {total!r}"
    return None


def check_game(report: dict, expected: dict) -> str | None:
    want = expected["shares"]
    got = report["shares"]
    if len(got) != len(want):
        return f"{len(got)} shares, expected {len(want)}"
    scale = max(1.0, max(abs(v) for v in want))
    for i, (g, w) in enumerate(zip(got, want)):
        if not _close(g, w, 1e-9 * scale):
            return f"phi{i + 1} = {g!r}, dividend sum {w!r}"
    if not _close(report["grand_value"], expected["grand"], 1e-9 * scale):
        return f"grand value {report['grand_value']!r}, expected {expected['grand']!r}"
    return None


def check_axioms(lines: list[dict], expected: dict) -> str | None:
    failed = [r for r in lines if r.get("status") == "fail"]
    if failed:
        return f"{len(failed)} failing verdicts, first {failed[0]['axiom']} on {failed[0]['function']}"
    missing = [a for a in AXIOMS if not any(r.get("axiom") == a for r in lines)]
    if missing:
        return f"no verdict for {', '.join(missing)}"
    return None


def read_report(path: str, jsonl: bool) -> dict | list[dict]:
    with open(path) as fh:
        if jsonl:
            return [json.loads(line) for line in fh if line.strip()]
        return json.load(fh)
