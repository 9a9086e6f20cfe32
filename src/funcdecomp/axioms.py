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
    full_mask,
    inverse_permutation,
    permute,
    project,
    seeded_rng,
    validate_dimension,
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
    """A named map from a function and a list of points to one tuple of
    contribution values per point."""

    name: str
    compute: Callable[[FunctionHandle, Sequence[Sequence[float]]],
                      Sequence[Sequence[float]]]
    requires_zero_origin: bool = False

    def decompose(self, fn: FunctionHandle,
                  points: Sequence[Sequence[float]]) -> list[tuple[float, ...]]:
        return [tuple(c) for c in self.compute(fn, points)]

    def __call__(self, fn: FunctionHandle, x: Sequence[float]) -> tuple[float, ...]:
        return self.decompose(fn, [x])[0]


def _contributions(method: Callable) -> Callable:
    return lambda fn, points: [r.contributions for r in method(fn, points)]


def _first_coordinate(fn: FunctionHandle, points: Sequence[Sequence[float]]) -> list:
    return [(fn(x),) + (0.0,) * (fn.d - 1) for x in points]


DELTA_STAR = Principle("delta-star", _contributions(decomp.delta_star_many))
AS_SUBSET = Principle("as-subset", _contributions(decomp.as_subset_many),
                      requires_zero_origin=True)
SEQUENTIAL_FIXED = Principle("sequential", _contributions(decomp.sequential_many),
                             requires_zero_origin=True)
FIRST_COORDINATE = Principle("first-coordinate", _first_coordinate)

PRINCIPLES: dict[str, Principle] = {
    p.name: p for p in (DELTA_STAR, AS_SUBSET, SEQUENTIAL_FIXED, FIRST_COORDINATE)
}


def _describe(x: Sequence[float]) -> str:
    return "(" + ", ".join(f"{c:.6g}" for c in x) + ")"


def _verdict(axiom: str, deviations: list[Witness], tol: float,
             note: str | None = None) -> AxiomVerdict:
    worst = max(deviations, key=lambda w: w[1], default=("", 0.0))
    failing = tuple(w for w in deviations if w[1] > tol)
    if failing:
        return AxiomVerdict(axiom, FAIL, worst[1], tol, failing[:3], note)
    return AxiomVerdict(axiom, PASS, worst[1], tol, (), note)


def _gap(a: Sequence[float], b: Sequence[float]) -> float:
    """Largest absolute difference of two equally long vectors."""
    return max(abs(u - v) for u, v in zip(a, b))


def _scale(*vectors: Sequence[float]) -> float:
    """``1 + max |v|`` over the vectors: the denominator that makes a gap
    relative to the magnitudes it was measured between."""
    return 1.0 + max(abs(v) for vec in vectors for v in vec)


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
# A1-A9 checkers


def _values(fn: FunctionHandle, points: Sequence[Sequence[float]]) -> list[float]:
    """F at each point, in one ``evaluate_table`` call (the full mask
    projects a point onto itself)."""
    return fn.evaluate_table(points, [full_mask(fn.d)])[:, 0].tolist()


def check_A1_additivity(principle: Principle, fn: FunctionHandle,
                        points: Sequence[Point], tol: float = 1e-9) -> AxiomVerdict:
    """Contributions must sum back to the function value at every point."""
    deviations = []
    for x, total, g in zip(points, _values(fn, points), principle.decompose(fn, points)):
        gap = abs(total - math.fsum(g)) / (1.0 + abs(total))
        deviations.append((_describe(x), gap))
    return _verdict("A1", deviations, tol)


def check_A2_permutation(principle: Principle, fn: FunctionHandle, perm: Permutation,
                         points: Sequence[Point], tol: float = 1e-10) -> AxiomVerdict:
    """Relabeling the arguments must relabel the contributions and nothing else."""
    inv = inverse_permutation(perm)
    lhs_all = principle.decompose(compose_permutation(fn, perm), points)
    rhs_all = principle.decompose(fn, [permute(x, perm) for x in points])
    deviations = []
    for x, lhs, rhs in zip(points, lhs_all, rhs_all):
        gap = _gap(lhs, permute(rhs, inv)) / _scale(lhs, rhs)
        deviations.append((f"x={_describe(x)} perm={perm}", gap))
    return _verdict("A2", deviations, tol)


def check_A3_A6_dummy(principle: Principle, fn: FunctionHandle, dummy: int,
                      points: Sequence[Point],
                      tol: float = 1e-9) -> tuple[AxiomVerdict, AxiomVerdict]:
    """For a coordinate the function does not depend on: its contribution is
    constant (A3) and the whole decomposition ignores it (A6).

    ``dummy`` is the 0-based coordinate claimed to have no influence; if the
    sampled points contradict that claim, both checks are vacuous.
    """
    d = fn.d
    others = full_mask(d) ^ (1 << dummy)
    pairs = fn.evaluate_table(points, [full_mask(d), others]).tolist()
    influence = max((abs(v - w) for v, w in pairs), default=0.0)
    if influence > tol:
        note = (f"coordinate {dummy + 1} influences the function "
                f"(deviation {influence:.3g}); dummy check vacuous")
        return (AxiomVerdict("A3", PARTIAL, influence, tol, (), note),
                AxiomVerdict("A6", PARTIAL, influence, tol, (), note))
    at_origin = principle(fn, (0.0,) * d)[dummy]
    fulls = principle.decompose(fn, points)
    projections = principle.decompose(fn, [project(x, others) for x in points])
    dev3, dev6 = [], []
    for x, full, projected in zip(points, fulls, projections):
        scale = _scale(full, projected)
        dev3.append((_describe(x), abs(full[dummy] - at_origin) / scale))
        dev6.append((_describe(x), _gap(full, projected) / scale))
    return _verdict("A3", dev3, tol), _verdict("A6", dev6, tol)


def check_A4_A5_linearity(principle: Principle, fn: FunctionHandle, other: FunctionHandle,
                          alpha: float, points: Sequence[Point],
                          tol: float = 1e-10) -> tuple[AxiomVerdict, AxiomVerdict]:
    """Decomposing a sum must give the sum of decompositions (A4); scaling
    the function must scale the contributions (A5, alpha = 0 included)."""
    combined = linear_combine([(1.0, fn), (1.0, other)])
    scaled = linear_combine([(alpha, fn)])
    sides = zip(points, principle.decompose(fn, points), principle.decompose(other, points),
                principle.decompose(combined, points), principle.decompose(scaled, points))
    dev4, dev5 = [], []
    for x, g, g_other, g_sum, g_scaled in sides:
        summed = [a + b for a, b in zip(g, g_other)]
        dev4.append((_describe(x), _gap(g_sum, summed) / _scale(g, g_other, g_sum)))
        dev5.append((f"x={_describe(x)} alpha={alpha}",
                     _gap(g_scaled, [alpha * gi for gi in g]) / _scale(g, g_scaled)))
    return _verdict("A4", dev4, tol), _verdict("A5", dev5, tol)


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
    if not points:
        return AxiomVerdict("A7", PARTIAL, math.nan, tol, (), "no points; check skipped")
    reference = principle.decompose(fn, points)
    ladder: list[Witness] = []
    for c in coeffs:
        perturbed = principle.decompose(linear_combine([(1.0, fn), (c, direction)]), points)
        dev = max(_gap(g, g_ref) for g, g_ref in zip(perturbed, reference))
        ladder.append((f"coefficient {c:g}", dev))
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
    directions = [tuple(row / np.linalg.norm(row)) for row in raw]
    # the points at each step, n_directions of them per step
    moved = [tuple(c + s * u for c, u in zip(x, direction))
             for s in steps for direction in directions]
    base_value = fn(x)
    values = _values(fn, moved)
    fn_devs = [max(abs(v - base_value) for v in values[k:k + n_directions])
               for k in range(0, len(moved), n_directions)]
    if fn_devs[-1] > 0.5 * fn_devs[0] and fn_devs[0] > tol:
        return AxiomVerdict("A8", PARTIAL, fn_devs[-1], tol, (),
                            "function values do not converge at x; "
                            "precondition unmet, check skipped")
    base, *contributions = principle.decompose(fn, [x] + moved)
    ladder: list[Witness] = []
    for k, s in enumerate(steps):
        at_step = contributions[k * n_directions:(k + 1) * n_directions]
        ladder.append((f"step {s:g}", max(_gap(g, base) for g in at_step)))
    return _ladder_verdict("A8", ladder, tol, "contribution deviations do not decrease",
                           "contributions converge with the input (limit not certifiable)")


def check_A9_reparameterization(principle: Principle, fn: FunctionHandle,
                                maps: Sequence[CoordinateMap], points: Sequence[Point],
                                tol: float = 1e-9) -> AxiomVerdict:
    """Losslessly re-encoding each argument (bijections of the line fixing
    zero) must re-encode the contribution functions the same way."""
    lhs_all = principle.decompose(compose_coordinate_maps(fn, maps), points)
    rhs_all = principle.decompose(fn, [tuple(h(c) for h, c in zip(maps, x)) for x in points])
    deviations = [(f"x={_describe(x)}", _gap(lhs, rhs) / _scale(lhs, rhs))
                  for x, lhs, rhs in zip(points, lhs_all, rhs_all)]
    return _verdict("A9", deviations, tol)


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
    fn = ExpressionFunction(repr(float(c)), d)
    fn.dummy_coordinates = tuple(range(d))
    return fn


def example1_function(s0: float, c0: float) -> ExpressionFunction:
    """Two-factor gain: position change times rate change around the
    starting levels (s0, c0); vanishes at the origin."""
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
    total = " + ".join(f"x{i + 1}" for i in range(d))
    if discount_rate is None:
        text = f"{base!r} + {rate!r} * ({total})"
    else:
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
    lo, hi = coeff_range
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


def random_polynomial(d: int, seed: int, degree: int = 4, n_terms: int = 5,
                      coeff_range: tuple[float, float] = (-3.0, 3.0),
                      allow_constant: bool = False) -> ExpressionFunction:
    """Seeded random polynomial; without a constant term it vanishes at the
    origin and every decomposition method applies."""
    return _random_polynomial(d, seeded_rng(seed, 0x90), degree, n_terms, coeff_range,
                              allow_constant)


# the parameters of each family that hold one entry per coordinate
_PER_COORDINATE = {"max_monomial": ("q", "s"), "monomial": ("q",), "step_function": ("grid",)}


def generate_corpus(spec: CorpusSpec) -> list[FunctionHandle]:
    """Deterministically generate ``spec.count`` functions of one family."""
    rng = seeded_rng(spec.seed, 0xC0)
    p = dict(spec.params)
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
            thresholds = p.get("grid") or [float(v) for v in rng.uniform(-1, 1, size=spec.d)]
            jumps = [float(v) for v in rng.uniform(-2, 2, size=spec.d)]
            out.append(step_function(spec.d, thresholds, jumps))
        elif spec.family == "example1":
            out.append(example1_function(p.get("s0", 2.0), p.get("c0", 3.0)))
        elif spec.family == "example2":
            out.append(example2_function(spec.d, p.get("base", 10.0), p.get("rate", 2.0),
                                         p.get("discount_rate"), p.get("threshold")))
        elif spec.family == "constant":
            out.append(constant_function(p.get("c", float(rng.uniform(-5, 5))), spec.d))
        else:
            raise ValueError(f"unknown corpus family {spec.family!r}")
    return out


def sample_points(d: int, count: int, low: float, high: float, seed: int) -> list[Point]:
    rng = seeded_rng(seed, 0xF0)
    return [tuple(float(v) for v in row) for row in rng.uniform(low, high, size=(count, d))]


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

    admissible: list[tuple[FunctionHandle, list[Point]]] = []
    for k, fn in enumerate(corpus):
        points = sample_points(fn.d, config.n_points, *POINT_RANGE, seed=config.seed + 7919 * k)
        if principle.requires_zero_origin and abs(fn((0.0,) * fn.d)) > ORIGIN_TOLERANCE:
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
        for _ in range(config.n_permutations):
            perm = tuple(int(v) for v in rng.permutation(fn.d))
            verdict = check_A2_permutation(principle, fn, perm, points, max(tol, 1e-10))
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
