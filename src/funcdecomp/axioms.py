"""Executable verification of the axiom system behind the decomposition
principles, plus seeded generators for the function families the checks
are exercised on.

The axioms A1-A9 act on decompositions of functions of real arguments.
The limit axioms A7/A8 can only be evidenced by finitely many evaluations,
so their verdicts are at most "partial", never "pass".

Index convention for A2: with ``permute(x, p)[i] == x[p[i]]``, relabeling
the arguments of F by p turns the i-th contribution of the relabeled
function into the p^-1(i)-th contribution of the original, evaluated at the
relabeled point.  The checks compare exactly that.
"""

from __future__ import annotations

import math
import operator
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Mapping, Sequence

import numpy as np

from . import decomp
from .core import (
    ORIGIN_TOLERANCE,
    Permutation,
    Point,
    finite_number,
    full_mask,
    inverse_permutation,
    seeded_rng,
    validate_dimension,
    validate_tolerance,
)
from .expr import (
    CoordinateMap,
    ExpressionFunction,
    FunctionHandle,
    OddPowerMap,
    PiecewiseLinearMap,
    ScaleMap,
    compose_coordinate_maps,
    compose_permutation,
    linear_combine,
)

PASS = "pass"
FAIL = "fail"
PARTIAL = "partial"

Witness = tuple[str, float]


@dataclass(frozen=True)
class AxiomVerdict:
    """Outcome of checking one axiom for one parameterization."""

    axiom: str
    status: str
    max_deviation: float
    tolerance: float
    witnesses: tuple[Witness, ...] = ()
    note: str | None = None

    def __post_init__(self) -> None:
        if self.status == FAIL and not self.witnesses:
            raise ValueError("a failing verdict must carry a counterexample witness")

    def to_json_dict(self) -> dict:
        out: dict = {
            "axiom": self.axiom,
            "status": self.status,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
        }
        if self.witnesses:
            out["witnesses"] = [{"input": w[0], "deviation": w[1]} for w in self.witnesses]
        if self.note:
            out["note"] = self.note
        return out


# ---------------------------------------------------------------------------
# Decomposition principles under test


@dataclass(frozen=True)
class Principle:
    """A named map from a function and n points to an ``(n, d)`` float64
    array of contributions, one row per point.  ``compute`` may give any
    nested sequence of that shape; ``decompose`` gives it as that array."""

    name: str
    compute: Callable[[FunctionHandle, Sequence[Sequence[float]]],
                      Sequence[Sequence[float]]]
    requires_zero_origin: bool = False

    def decompose(self, fn: FunctionHandle, points: Sequence[Sequence[float]]) -> np.ndarray:
        return np.asarray(self.compute(fn, points), dtype=float).reshape(len(points), fn.d)

    def __call__(self, fn: FunctionHandle, x: Sequence[float]) -> tuple[float, ...]:
        return tuple(self.decompose(fn, [x])[0].tolist())


def _first_coordinate(fn: FunctionHandle, points: Sequence[Sequence[float]]) -> np.ndarray:
    out = np.zeros((len(points), fn.d))
    out[:, 0] = _values(fn, points)
    return out


DELTA_STAR = Principle("delta-star", lambda fn, xs: decomp.delta_star_arrays(fn, xs).contributions)
AS_SUBSET = Principle("as-subset", lambda fn, xs: decomp.as_subset_arrays(fn, xs).contributions,
                      requires_zero_origin=True)
SEQUENTIAL_FIXED = Principle("sequential",
                             lambda fn, xs: decomp.sequential_arrays(fn, xs).contributions,
                             requires_zero_origin=True)
FIRST_COORDINATE = Principle("first-coordinate", _first_coordinate)

PRINCIPLES: dict[str, Principle] = {
    p.name: p for p in (DELTA_STAR, AS_SUBSET, SEQUENTIAL_FIXED, FIRST_COORDINATE)
}


def _describe(x: np.ndarray) -> str:
    return "(" + ", ".join(f"{c:.6g}" for c in x.tolist()) + ")"


def _max(values: np.ndarray) -> np.ndarray:
    """Python's ``max`` over the last axis, which keeps a first NaN: NaN
    where the first value is NaN, else the largest value that is not NaN."""
    first = values[..., 0]
    return np.where(np.isnan(first), first, np.fmax.reduce(values, axis=-1))


def _gap(a: np.ndarray, b: np.ndarray, *compared: np.ndarray) -> np.ndarray:
    """Largest absolute difference of each row of ``a`` and ``b``, relative
    to the magnitudes it was measured between if given: divided by ``1 +
    max |v|`` over each row of the ``compared`` arrays, side by side.  As
    with Python floats, ``inf - inf`` is NaN without a warning."""
    with np.errstate(all="ignore"):
        gap = _max(np.abs(a - b))
        return gap / (1.0 + _max(np.abs(np.concatenate(compared, axis=-1)))) if compared else gap


def _verdict(axiom: str, deviations: np.ndarray, tol: float,
             describe: Callable[[int], str]) -> AxiomVerdict:
    """FAIL with the first three points whose deviation exceeds ``tol`` as
    witnesses (``describe`` names a point by its index), else PASS."""
    failing = np.flatnonzero(deviations > tol)[:3].tolist()
    worst = float(_max(deviations)) if len(deviations) else 0.0
    witnesses = tuple((describe(k), float(deviations[k])) for k in failing)
    return AxiomVerdict(axiom, FAIL if failing else PASS, worst, tol, witnesses)


def _ladder_verdict(axiom: str, ladder: list[Witness], tol: float,
                    fail_note: str, partial_note: str) -> AxiomVerdict:
    """Verdict on deviations measured at ever smaller perturbations: FAIL
    unless they never grow (up to a relative slack of 1e-12), otherwise
    PARTIAL, since no finite ladder certifies a limit."""
    slack = 1e-12 * (1.0 + ladder[0][1])
    if all(b <= a + slack for (_, a), (_, b) in zip(ladder, ladder[1:])):
        return AxiomVerdict(axiom, PARTIAL, ladder[-1][1], tol, tuple(ladder), partial_note)
    return AxiomVerdict(axiom, FAIL, ladder[-1][1], tol, tuple(ladder), fail_note)


# ---------------------------------------------------------------------------
# A1-A9 checkers, each over its points as one (n, d) float array


def _points(points: Sequence[Sequence[float]], d: int) -> np.ndarray:
    return np.asarray(points, dtype=float).reshape(len(points), d)


def _values(fn: FunctionHandle, points: Sequence[Sequence[float]]) -> np.ndarray:
    """F at each point, in one ``evaluate_table`` call (the full mask
    projects a point onto itself)."""
    return fn.evaluate_table(points, [full_mask(fn.d)])[:, 0]


def check_A1_additivity(principle: Principle, fn: FunctionHandle,
                        points: Sequence[Point], tol: float = 1e-9) -> AxiomVerdict:
    """Contributions must sum back to the function value at every point."""
    points = _points(points, fn.d)
    totals = _values(fn, points)
    sums = np.array([math.fsum(g) for g in principle.decompose(fn, points).tolist()])
    deviations = np.abs(totals - sums) / (1.0 + np.abs(totals))
    return _verdict("A1", deviations, tol, lambda k: _describe(points[k]))


def check_A2_permutations(principle: Principle, fn: FunctionHandle,
                          perms: Sequence[Permutation], points: Sequence[Point],
                          tol: float = 1e-10) -> list[AxiomVerdict]:
    """Relabeling the arguments must relabel the contributions and nothing
    else: one verdict per permutation.  The right-hand sides of all
    permutations are decomposed in one call, after the left-hand sides; an
    error is the one the permutations checked one by one raise first."""
    if not perms:
        return []
    points = _points(points, fn.d)
    moved = np.concatenate([points[:, p] for p in perms])
    lhs = []
    for perm in perms:
        try:
            lhs.append(principle.decompose(compose_permutation(fn, perm), points))
        except ValueError:
            if lhs:  # an earlier right-hand side raises first, if one fails
                principle.decompose(fn, moved[:len(lhs) * len(points)])
            raise
    rhs = principle.decompose(fn, moved).reshape(len(perms), len(points), fn.d)
    verdicts = []
    for perm, left, right in zip(perms, lhs, rhs):
        gaps = _gap(left, right[:, inverse_permutation(perm)], left, right)
        verdicts.append(_verdict("A2", gaps, tol,
                                 lambda k: f"x={_describe(points[k])} perm={perm}"))
    return verdicts


def check_A3_A6_dummy(principle: Principle, fn: FunctionHandle, dummy: int,
                      points: Sequence[Point],
                      tol: float = 1e-9) -> tuple[AxiomVerdict, AxiomVerdict]:
    """For a coordinate the function does not depend on: its contribution is
    constant (A3) and the whole decomposition ignores it (A6).

    ``dummy`` is the 0-based coordinate claimed to have no influence; if the
    sampled points contradict that claim, both checks are vacuous.
    """
    d = fn.d
    points = _points(points, d)
    pairs = fn.evaluate_table(points, [full_mask(d), full_mask(d) ^ (1 << dummy)])
    influence = float(_max(np.abs(pairs[:, 0] - pairs[:, 1]))) if len(points) else 0.0
    if influence > tol:
        note = (f"coordinate {dummy + 1} influences the function "
                f"(deviation {influence:.3g}); dummy check vacuous")
        return (AxiomVerdict("A3", PARTIAL, influence, tol, (), note),
                AxiomVerdict("A6", PARTIAL, influence, tol, (), note))
    at_origin = principle(fn, (0.0,) * d)[dummy]
    projected = points.copy()
    projected[:, dummy] = 0.0
    full, projection = np.split(principle.decompose(fn, np.concatenate([points, projected])), 2)
    describe = lambda k: _describe(points[k])  # noqa: E731
    return (_verdict("A3", _gap(full[:, [dummy]], at_origin, full, projection), tol, describe),
            _verdict("A6", _gap(full, projection, full, projection), tol, describe))


def check_A4_A5_linearity(principle: Principle, fn: FunctionHandle, other: FunctionHandle,
                          alpha: float, points: Sequence[Point],
                          tol: float = 1e-10) -> tuple[AxiomVerdict, AxiomVerdict]:
    """Decomposing a sum must give the sum of decompositions (A4); scaling
    the function must scale the contributions (A5, alpha = 0 included)."""
    points = _points(points, fn.d)
    combined = linear_combine([(1.0, fn), (1.0, other)])
    scaled = linear_combine([(alpha, fn)])
    g, g_other, g_sum, g_scaled = (principle.decompose(h, points)
                                   for h in (fn, other, combined, scaled))
    with np.errstate(all="ignore"):  # overflows to inf, as Python floats do
        summed, g_alpha = g + g_other, alpha * g
    dev4 = _gap(g_sum, summed, g, g_other, g_sum)
    dev5 = _gap(g_scaled, g_alpha, g, g_scaled)
    return (_verdict("A4", dev4, tol, lambda k: _describe(points[k])),
            _verdict("A5", dev5, tol, lambda k: f"x={_describe(points[k])} alpha={alpha}"))


def check_A7_continuity_of_delta(principle: Principle, fn: FunctionHandle,
                                 direction: FunctionHandle, coefficients: Sequence[float],
                                 points: Sequence[Point], tol: float = 1e-9) -> AxiomVerdict:
    """Evidence for continuity of the principle itself: perturb the function
    by a shrinking multiple of a fixed direction and watch the decomposition
    converge.  Finitely many evaluations cannot certify a limit, so the best
    status is "partial"."""
    coeffs = [float(c) for c in coefficients]
    if len(coeffs) < 2 or any(abs(b) >= abs(a) for a, b in zip(coeffs, coeffs[1:])):
        return AxiomVerdict("A7", PARTIAL, math.nan, tol, (),
                            "perturbation sizes do not shrink; check skipped")
    if not len(points):
        return AxiomVerdict("A7", PARTIAL, math.nan, tol, (), "no points; check skipped")
    points = _points(points, fn.d)
    reference = principle.decompose(fn, points)
    ladder: list[Witness] = []
    for c in coeffs:
        perturbed = principle.decompose(linear_combine([(1.0, fn), (c, direction)]), points)
        ladder.append((f"coefficient {c:g}", float(_max(_gap(perturbed, reference)))))
    return _ladder_verdict("A7", ladder, tol,
                           "deviations do not decrease with the perturbation",
                           "deviation shrinks with the perturbation (limit not certifiable)")


def check_A8_continuity_inheritance(principle: Principle, fn: FunctionHandle, x: Point,
                                    deltas: Sequence[float], n_directions: int = 8,
                                    seed: int = 0, tol: float = 1e-9) -> AxiomVerdict:
    """Evidence that continuity of the function at x carries over to its
    contributions: approach x from shrinking distances and watch both
    converge.  Skipped when the function itself fails to converge."""
    steps = [float(s) for s in deltas]
    if len(steps) < 2 or any(b >= a for a, b in zip(steps, steps[1:])):
        return AxiomVerdict("A8", PARTIAL, math.nan, tol, (),
                            "step sizes do not shrink; check skipped")
    if n_directions < 1:
        return AxiomVerdict("A8", PARTIAL, math.nan, tol, (), "no directions; check skipped")
    rng = seeded_rng(seed, 0xA8)
    raw = rng.standard_normal((n_directions, fn.d))
    directions = np.array([row / np.linalg.norm(row) for row in raw])
    x = _points([x], fn.d)
    # the points at each step, n_directions of them per step
    moved = np.concatenate([x + s * directions for s in steps])
    values = _values(fn, np.concatenate([x, moved]))  # F(x) first: its error comes first
    fn_devs = _max(np.abs(values[1:] - values[0]).reshape(len(steps), -1)).tolist()
    if fn_devs[-1] > 0.5 * fn_devs[0] and fn_devs[0] > tol:
        return AxiomVerdict("A8", PARTIAL, fn_devs[-1], tol, (),
                            "function values do not converge at x; "
                            "precondition unmet, check skipped")
    g = principle.decompose(fn, np.concatenate([x, moved]))
    devs = _max(_gap(g[1:], g[0]).reshape(len(steps), -1)).tolist()
    return _ladder_verdict("A8", [(f"step {s:g}", dev) for s, dev in zip(steps, devs)], tol,
                           "contribution deviations do not decrease",
                           "contributions converge with the input (limit not certifiable)")


def check_A9_reparameterization(principle: Principle, fn: FunctionHandle,
                                maps: Sequence[CoordinateMap], points: Sequence[Point],
                                tol: float = 1e-9) -> AxiomVerdict:
    """Losslessly re-encoding each argument (bijections of the line fixing
    zero) must re-encode the contribution functions the same way."""
    points = _points(points, fn.d)
    lhs = principle.decompose(compose_coordinate_maps(fn, maps), points)
    mapped = [[h(c) for h, c in zip(maps, x)] for x in points.tolist()]
    rhs = principle.decompose(fn, _points(mapped, fn.d))
    return _verdict("A9", _gap(lhs, rhs, lhs, rhs), tol,
                    lambda k: f"x={_describe(points[k])}")


# ---------------------------------------------------------------------------
# Seeded corpus generators (the families the uniqueness argument walks
# through: products of one-sided powers, monomials, polynomials, step
# functions, plus the worked examples and constants)


@dataclass(frozen=True)
class CorpusSpec:
    """Recipe for one family of test functions."""

    family: str
    d: int
    count: int = 1
    seed: int = 0
    params: Mapping = field(default_factory=dict)


def _integer(name: str, value: object, least: int) -> int:
    """``value`` if it is an integer (not a bool) of at least ``least``."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if isinstance(value, bool) or n is None or n < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return n


def _power_product(bases: Sequence[str], q: Sequence[int]) -> ExpressionFunction:
    """Product of ``bases[i]^q_i``.  Exponent zero makes a factor
    identically one (0^0 = 1), so that coordinate is a dummy."""
    q = [_integer(f"q[{i}]", qi, 0) for i, qi in enumerate(q)]
    fn = ExpressionFunction(" * ".join(f"{b}^{qi}" for b, qi in zip(bases, q)), len(q))
    fn.dummy_coordinates = tuple(i for i, qi in enumerate(q) if qi == 0)
    return fn


def max_monomial(q: Sequence[int], s: Sequence[int]) -> ExpressionFunction:
    """Product of one-sided coordinate powers max(s_i x_i, 0)^q_i (0^0 = 1)."""
    if len(q) != len(s):
        raise ValueError("q and s must have equal length")
    if any(si not in (-1, 1) for si in s):
        raise ValueError("signs must be +1 or -1")
    bases = [f"max({'' if si > 0 else '-'}x{i + 1}, 0)" for i, si in enumerate(s)]
    return _power_product(bases, q)


def monomial(q: Sequence[int]) -> ExpressionFunction:
    """Plain product of coordinate powers x_i^q_i (0^0 = 1)."""
    return _power_product([f"x{i + 1}" for i in range(len(q))], q)


def constant_function(c: float, d: int) -> ExpressionFunction:
    fn = ExpressionFunction(repr(finite_number("c", c)), d)
    fn.dummy_coordinates = tuple(range(d))
    return fn


def example1_function(s0: float, c0: float) -> ExpressionFunction:
    """Two-factor gain: position change times rate change around the
    starting levels (s0, c0); vanishes at the origin."""
    finite_number("s0 * c0", finite_number("s0", s0) * finite_number("c0", c0))
    return ExpressionFunction(f"(x1 + {s0!r}) * (x2 + {c0!r}) - {s0 * c0!r}", 2)


def example1_closed_form(s0: float, c0: float, x: Sequence[float]) -> tuple[float, float]:
    x1, x2 = x
    half = x1 * x2 / 2.0
    return (half + x1 * c0, half + x2 * s0)


def example2_function(d: int, base: float = 10.0, rate: float = 2.0,
                      discount_rate: float | None = None,
                      threshold: float | None = None) -> ExpressionFunction:
    """Shared utility bill as a function of d meter readings: base fee plus
    a per-unit rate on the total, optionally cheaper above a threshold."""
    if (discount_rate is None) != (threshold is None):
        raise ValueError("discount_rate and threshold must be given both or neither")
    finite_number("base", base)
    finite_number("rate", rate)
    total = " + ".join(f"x{i + 1}" for i in range(d))
    if discount_rate is None:
        text = f"{base!r} + {rate!r} * ({total})"
    else:
        finite_number("discount_rate", discount_rate)
        finite_number("threshold", threshold)
        text = (f"{base!r} + {rate!r} * min({total}, {threshold!r})"
                f" + {discount_rate!r} * max(({total}) - {threshold!r}, 0)")
    return ExpressionFunction(text, d)


def step_function(d: int, thresholds: Sequence[float], jumps: Sequence[float]) -> ExpressionFunction:
    """Sum of per-coordinate jumps: discontinuous, bounded, measurable."""
    parts = [
        f"{j!r} * (sign(x{i + 1} - {t!r}) + 1) / 2"
        for i, (t, j) in enumerate(zip(thresholds, jumps))
    ]
    return ExpressionFunction(" + ".join(parts), d)


def _random_polynomial(d: int, rng: np.random.Generator, degree: int, n_terms: int,
                       coeff_range: tuple[float, float],
                       allow_constant: bool) -> ExpressionFunction:
    degree = (_integer("degree", degree, 0) if allow_constant
              else _integer("degree without allow_constant", degree, 1))
    n_terms = _integer("n_terms", n_terms, 1)
    if not isinstance(coeff_range, (list, tuple)) or len(coeff_range) != 2:
        raise ValueError(f"coefficient_range must be a list of 2 numbers, got {coeff_range!r}")
    lo, hi = (finite_number(f"coefficient_range[{i}]", v) for i, v in enumerate(coeff_range))
    finite_number("coefficient_range[1] - coefficient_range[0]", hi - lo)
    # Exponent vectors are uniform over the admissible ones: draw the total
    # degree s with probability proportional to the number C(s+d-1, d-1) of
    # vectors summing to s, then one of those uniformly (stars and bars).
    degrees = np.arange(0 if allow_constant else 1, degree + 1)
    counts = np.array([math.comb(int(s) + d - 1, d - 1) for s in degrees], dtype=float)
    parts = []
    for _ in range(n_terms):
        s = int(rng.choice(degrees, p=counts / counts.sum()))
        bars = np.sort(rng.choice(s + d - 1, size=d - 1, replace=False))
        q = np.diff(np.concatenate([[-1], bars, [s + d - 1]])) - 1
        coef = float(rng.uniform(lo, hi))
        factors = [f"x{i + 1}^{int(qi)}" for i, qi in enumerate(q) if qi > 0]
        parts.append(f"{coef!r}" + ("" if not factors else " * " + " * ".join(factors)))
    return ExpressionFunction(" + ".join(parts), d)


# the parameters of each family that hold one entry per coordinate
_PER_COORDINATE = {"max_monomial": ("q", "s"), "monomial": ("q",), "step_function": ("grid",)}
# every parameter each family reads
_PARAMETERS = {**_PER_COORDINATE, "example1": ("s0", "c0"), "constant": ("c",),
               "polynomial": ("degree", "n_terms", "coefficient_range", "allow_constant"),
               "example2": ("base", "rate", "discount_rate", "threshold")}


def generate_corpus(spec: CorpusSpec) -> list[FunctionHandle]:
    """Deterministically generate ``spec.count`` functions of one family."""
    if spec.family not in _PARAMETERS:
        raise ValueError(f"unknown corpus family {spec.family!r}")
    _integer("count", spec.count, 1)
    rng = seeded_rng(spec.seed, 0xC0)
    p = dict(spec.params)
    for name in p:
        if name not in _PARAMETERS[spec.family]:
            raise ValueError(f"family {spec.family!r} has no parameter {name!r}")
    for name in _PER_COORDINATE.get(spec.family, ()):
        if name in p and (not isinstance(p[name], (list, tuple)) or len(p[name]) != spec.d):
            raise ValueError(f"{name} must be a list of d = {spec.d} entries, got {p[name]!r}")
    out: list[FunctionHandle] = []
    for k in range(spec.count):
        if spec.family in ("max_monomial", "monomial"):
            q = p.get("q")
            while q is None:  # exponents in 0..3, redrawn while all are zero
                q = [int(v) for v in rng.integers(0, 4, size=spec.d)]
                q = q if any(q) else None
            if spec.family == "monomial":
                out.append(monomial(q))
                continue
            s = p.get("s")
            if s is None:
                s = [int(v) for v in rng.choice((-1, 1), size=spec.d)]
            out.append(max_monomial(q, s))
        elif spec.family == "polynomial":
            out.append(_random_polynomial(
                spec.d, rng, p.get("degree", 4), p.get("n_terms", 5),
                p.get("coefficient_range", (-3.0, 3.0)), p.get("allow_constant", False)))
        elif spec.family == "step_function":
            grid = p.get("grid") or rng.uniform(-1, 1, size=spec.d).tolist()
            thresholds = [finite_number(f"grid[{i}]", t) for i, t in enumerate(grid)]
            jumps = [float(v) for v in rng.uniform(-2, 2, size=spec.d)]
            out.append(step_function(spec.d, thresholds, jumps))
        elif spec.family == "example1":
            out.append(example1_function(p.get("s0", 2.0), p.get("c0", 3.0)))
        elif spec.family == "example2":
            out.append(example2_function(spec.d, p.get("base", 10.0), p.get("rate", 2.0),
                                         p.get("discount_rate"), p.get("threshold")))
        else:  # constant
            out.append(constant_function(p.get("c", float(rng.uniform(-5, 5))), spec.d))
    return out


def sample_points(d: int, count: int, low: float, high: float, seed: int) -> np.ndarray:
    """``count`` seeded points of dimension ``d`` as the rows of an array."""
    return seeded_rng(seed, 0xF0).uniform(low, high, size=(count, d))


# ---------------------------------------------------------------------------
# Full suite: every checker over a default mixed corpus


POINT_RANGE = (-3.0, 3.0)  # each coordinate of a sampled point is uniform on this interval


@dataclass(frozen=True)
class SuiteConfig:
    """Settings of one suite run; its field defaults are the suite's defaults."""

    d: int = 4
    n_functions: int = 20
    n_points: int = 50
    n_permutations: int = 5
    seed: int = 2023
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        for name, least in (("n_functions", 1), ("n_points", 1), ("n_permutations", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)!r}")
        validate_tolerance(self.tolerance)


# keyed by the field annotations, which are strings under postponed evaluation
_SETTING_TYPES = {"int": int, "float": (int, float), "str": str, "Mapping": Mapping}


def build_settings(cls: type, data: object, what: str, **defaults):
    """Validate a mapping keyed by the field names of ``cls`` (`SuiteConfig`
    or `CorpusSpec`) and build it.  A field missing from ``data`` takes its
    value from ``defaults``, else the field's own default.  A malformed
    mapping, or a key that names nothing, raises ValueError naming ``what``."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known:
            raise ValueError(f"{what}: unknown key {key!r}")
    values = dict(defaults)
    for f in fields(cls):
        if f.name in data:
            value = data[f.name]
            if isinstance(value, bool) or not isinstance(value, _SETTING_TYPES[f.type]):
                raise ValueError(f"{what}: {f.name!r} must be of type {f.type}, got {value!r}")
            values[f.name] = value
        elif f.name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{what} needs the key {f.name!r}")
    return cls(**values)


@dataclass(frozen=True)
class SuiteRecord:
    axiom: str
    function: str
    params: str
    verdict: AxiomVerdict

    def to_json_dict(self) -> dict:
        out = {"function": self.function, "params": self.params}
        out.update(self.verdict.to_json_dict())
        return out


def default_corpus(config: SuiteConfig) -> list[FunctionHandle]:
    """Mixed corpus cycling through the families; guaranteed to contain
    dummy-bearing and origin-shifted members."""
    validate_dimension(config.d)
    recipes = [
        CorpusSpec("polynomial", config.d),
        CorpusSpec("max_monomial", config.d),
        CorpusSpec("monomial", config.d),
        CorpusSpec("step_function", config.d),
        CorpusSpec("constant", config.d),
        CorpusSpec("example1", 2),
        CorpusSpec("example2", 3, params={"discount_rate": 1.5, "threshold": 5.0}),
    ]
    out: list[FunctionHandle] = []
    k = 0
    while len(out) < config.n_functions:
        recipe = recipes[k % len(recipes)]
        seeded = CorpusSpec(recipe.family, recipe.d, count=1,
                            seed=config.seed + k, params=recipe.params)
        out.extend(generate_corpus(seeded))
        k += 1
    # make sure at least one function has an explicit dummy coordinate
    if not any(getattr(fn, "dummy_coordinates", ()) for fn in out):
        q = [1] * config.d
        q[-1] = 0
        out[-1] = max_monomial(q, [1] * config.d)
    return out[: config.n_functions]


def run_axiom_suite(principle: Principle, config: SuiteConfig = SuiteConfig(),
                    corpus: Sequence[FunctionHandle] | None = None) -> list[SuiteRecord]:
    """Run every A-axiom checker for one principle over a corpus.

    Functions a zero-origin principle cannot decompose are recorded as
    skipped rather than silently centered.
    """
    if corpus is None:
        corpus = default_corpus(config)
    if not corpus:
        raise ValueError("no functions in the corpus")
    tol = config.tolerance
    records: list[SuiteRecord] = []

    def add(function: str, params: str, verdict: AxiomVerdict) -> None:
        records.append(SuiteRecord(verdict.axiom, function, params, verdict))

    admissible: list[tuple[FunctionHandle, np.ndarray]] = []
    for k, fn in enumerate(corpus):
        points = sample_points(fn.d, config.n_points, *POINT_RANGE, seed=config.seed + 7919 * k)
        if principle.requires_zero_origin and abs(
                fn.evaluate_table(points[:1], [0])[0, 0]) > ORIGIN_TOLERANCE:
            add(fn.label, "admissibility", AxiomVerdict(
                "admissibility", PARTIAL, math.nan, tol, (),
                f"{principle.name} requires a vanishing origin value; function skipped"))
            continue
        admissible.append((fn, points))

    if not admissible:
        return records

    for k, (fn, points) in enumerate(admissible):
        add(fn.label, f"{len(points)} points", check_A1_additivity(principle, fn, points, tol))

        rng = seeded_rng(config.seed, 0xA2 + k)
        perms = [tuple(int(v) for v in rng.permutation(fn.d))
                 for _ in range(config.n_permutations)]
        for perm, verdict in zip(perms, check_A2_permutations(principle, fn, perms, points,
                                                              max(tol, 1e-10))):
            add(fn.label, f"perm={perm}", verdict)

        for dummy in getattr(fn, "dummy_coordinates", ())[:1]:
            v3, v6 = check_A3_A6_dummy(principle, fn, dummy, points, tol)
            add(fn.label, f"dummy={dummy + 1}", v3)
            add(fn.label, f"dummy={dummy + 1}", v6)

    alphas = [-2.5, 0.0, 1.75]
    pair_index = 0
    for (f1, pts1), (f2, _) in zip(admissible, admissible[1:]):
        if f1.d != f2.d:
            continue
        alpha = alphas[pair_index % len(alphas)]
        v4, v5 = check_A4_A5_linearity(principle, f1, f2, alpha, pts1, max(tol, 1e-10))
        add(f"{f1.label} | {f2.label}", f"alpha={alpha}", v4)
        add(f"{f1.label} | {f2.label}", f"alpha={alpha}", v5)
        pair_index += 1

    # A7/A8 on a fixed, well-understood pair per suite; x1 * x2 vanishes at
    # the origin, so every principle admits it
    base_fn = ExpressionFunction("x1 * x2", 2)
    direction = ExpressionFunction("x1", 2)
    a7_points = sample_points(2, min(config.n_points, 20), *POINT_RANGE, seed=config.seed + 1)
    add(base_fn.label, "coefficients 1..1e-3",
        check_A7_continuity_of_delta(principle, base_fn, direction,
                                     [1.0, 0.1, 0.01, 0.001], a7_points, tol))
    add(base_fn.label, "steps 1e-1..1e-6",
        check_A8_continuity_inheritance(
            principle, base_fn, (1.0, 1.0),
            [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6], seed=config.seed, tol=tol))

    map_catalog: list[list[CoordinateMap]] = [
        [ScaleMap(2.0), ScaleMap(-1.5)],
        [OddPowerMap(3.0), ScaleMap(2.0)],
        [OddPowerMap(1.0 / 3.0), OddPowerMap(3.0)],
        [PiecewiseLinearMap([(-1.0, -2.0), (0.0, 0.0), (1.0, 0.5), (2.0, 3.0)]), ScaleMap(1.0)],
    ]
    for k, (fn, points) in enumerate(admissible):
        choices = map_catalog[k % len(map_catalog)]
        maps = [choices[i % len(choices)] for i in range(fn.d)]
        add(fn.label, "maps=" + ",".join(h.label for h in maps),
            check_A9_reparameterization(principle, fn, maps, points[:20], tol))

    return records
