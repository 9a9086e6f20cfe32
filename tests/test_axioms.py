import itertools
import json
import math
import re
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcdecomp import axioms, decomp
from funcdecomp.axioms import (
    AS_SUBSET,
    DELTA_STAR,
    FAIL,
    FIRST_COORDINATE,
    PARTIAL,
    PASS,
    SEQUENTIAL_FIXED,
    AxiomVerdict,
    CorpusSpec,
    Principle,
    SuiteConfig,
    check_A1_additivity,
    check_A2_permutations,
    check_A3_A6_dummy,
    check_A4_A5_linearity,
    check_A7_continuity_of_delta,
    check_A8_continuity_inheritance,
    check_A9_reparameterization,
    generate_corpus,
    run_axiom_suite,
    sample_points,
)
from funcdecomp.expr import (
    EvaluationError,
    ExpressionFunction,
    NativeFunction,
    OddPowerMap,
    PiecewiseLinearMap,
    ScaleMap,
    linear_combine,
)
from funcdecomp.game import Game, shapley

import game_axioms
from game_axioms import check_shapley_axioms, perturbed_shapley
from polynomials import random_polynomial


def pts(d, n=30, seed=0, low=-3.0, high=3.0):
    return sample_points(d, n, low, high, seed)


PRODUCT = ExpressionFunction("x1*x2", 2)


# ---------------------------------------------------------------------------
# Principles


def test_principles_give_one_float_row_per_point():
    fn = ExpressionFunction("x1*x2 + x3^2", 3)
    points = pts(3, 7)
    for principle in axioms.PRINCIPLES.values():
        g = principle.decompose(fn, points)
        assert g.dtype == np.float64 and g.shape == (7, 3)
        assert principle.decompose(fn, [tuple(x) for x in points]).tobytes() == g.tobytes()
        assert principle(fn, points[2]) == tuple(g[2].tolist())
    results = [decomp.delta_star(fn, x) for x in points]
    assert DELTA_STAR.decompose(fn, points).tolist() == [list(r.contributions) for r in results]


# ---------------------------------------------------------------------------
# A1


def test_a1_passes_for_delta_star_on_shifted_function():
    fn = axioms.example1_function(2.0, 3.0)
    verdict = check_A1_additivity(DELTA_STAR, fn, pts(2, 100))
    assert verdict.status == PASS


def test_a1_constant_split():
    fn = axioms.constant_function(7.0, 3)
    for x in pts(3, 10):
        assert DELTA_STAR(fn, x) == (7 / 3, 7 / 3, 7 / 3)
    assert check_A1_additivity(DELTA_STAR, fn, pts(3, 10)).status == PASS


def test_a1_broken_principle_fails_with_witness():
    broken = Principle("broken", lambda f, xs: [(*g[:-1], 0.0) for g in DELTA_STAR.decompose(f, xs)])
    verdict = check_A1_additivity(broken, ExpressionFunction("x1 + x2", 2), pts(2, 20))
    assert verdict.status == FAIL
    assert verdict.witnesses


# ---------------------------------------------------------------------------
# A2


def test_a2_passes_for_delta_star_on_asymmetric_function():
    fn = ExpressionFunction("x1^2 * x2", 2)
    verdict = check_A2_permutations(DELTA_STAR, fn, [(1, 0)], pts(2, 40))[0]
    assert verdict.status == PASS
    assert verdict.max_deviation <= 1e-10


def test_a2_passes_on_three_cycles():
    fn = ExpressionFunction("x1^2 * x2 + 3*x3", 3)
    for perm in [(1, 2, 0), (2, 0, 1)]:
        assert check_A2_permutations(DELTA_STAR, fn, [perm], pts(3, 25))[0].status == PASS


def test_a2_symmetric_function_trivially_passes():
    assert check_A2_permutations(DELTA_STAR, PRODUCT, [(1, 0)], pts(2, 25))[0].status == PASS


def test_a2_fixed_order_sequential_fails():
    verdict = check_A2_permutations(SEQUENTIAL_FIXED, PRODUCT, [(1, 0)], pts(2, 25))[0]
    assert verdict.status == FAIL
    assert verdict.witnesses


def test_a2_first_coordinate_fails_on_asymmetric_function():
    fn = ExpressionFunction("x2", 2)
    verdict = check_A2_permutations(FIRST_COORDINATE, fn, [(1, 0)], pts(2, 25))[0]
    assert verdict.status == FAIL


def test_a2_over_several_permutations_gives_the_one_by_one_verdicts():
    fn = ExpressionFunction("x1^2 * x2 + 3*x3 - x2*x3", 3)
    perms = [(1, 2, 0), (0, 1, 2), (2, 1, 0), (1, 2, 0)]
    for principle in (DELTA_STAR, SEQUENTIAL_FIXED, FIRST_COORDINATE):
        together = check_A2_permutations(principle, fn, perms, pts(3, 12))
        assert together == [check_A2_permutations(principle, fn, [p], pts(3, 12))[0]
                            for p in perms]
    assert check_A2_permutations(DELTA_STAR, fn, [], pts(3, 12)) == []


def test_a2_over_several_permutations_raises_the_first_error_of_one_by_one_checks():
    # undefined where x2 is 0 and x1 is not: for sequential at (1, 2), the
    # right-hand side of (1, 0) fails at (2, 0) before the left-hand side of
    # (0, 1) fails at (1, 0); for delta-star the left-hand side of (1, 0)
    # fails first
    def f(y):
        if y[1] == 0.0 and y[0] != 0.0:
            raise EvaluationError(f"undefined at {y}")
        return y[0] * y[1]

    fn = NativeFunction(f, 2)
    for principle, where in ((SEQUENTIAL_FIXED, "(2.0, 0.0)"), (DELTA_STAR, "(2.0, 0.0)"),
                             (FIRST_COORDINATE, "(1.0, 0.0)")):
        with pytest.raises(EvaluationError, match=re.escape(f"undefined at {where}")):
            check_A2_permutations(principle, fn, [(1, 0), (0, 1)], [(1.0, 2.0), (1.0, 0.0)])
        with pytest.raises(EvaluationError, match=re.escape(f"undefined at {where}")):
            for perm in [(1, 0), (0, 1)]:
                check_A2_permutations(principle, fn, [perm], [(1.0, 2.0), (1.0, 0.0)])[0]


# ---------------------------------------------------------------------------
# A3 / A6


def test_a3_a6_dummy_coordinate_of_shifted_function():
    fn = ExpressionFunction("x1 + 1", 2)
    v3, v6 = check_A3_A6_dummy(DELTA_STAR, fn, 1, pts(2, 30))
    assert v3.status == PASS and v6.status == PASS
    # the dummy coordinate carries exactly the even fixed-cost share
    for x in pts(2, 5):
        assert DELTA_STAR(fn, x)[1] == pytest.approx(0.5, abs=1e-12)


def test_a3_a6_constant_function_every_coordinate_dummy():
    fn = axioms.constant_function(4.0, 3)
    for i in range(3):
        v3, v6 = check_A3_A6_dummy(DELTA_STAR, fn, i, pts(3, 15))
        assert v3.status == PASS and v6.status == PASS


def test_a3_a6_vacuous_when_coordinate_matters():
    v3, v6 = check_A3_A6_dummy(DELTA_STAR, PRODUCT, 0, pts(2, 15))
    assert v3.status == PARTIAL and v6.status == PARTIAL
    assert "vacuous" in v3.note


def test_a3_first_coordinate_principle_fails_on_dummy():
    fn = ExpressionFunction("x2 + 1", 2)  # constant in coordinate 1
    v3, _ = check_A3_A6_dummy(FIRST_COORDINATE, fn, 0, pts(2, 15))
    assert v3.status == FAIL


# ---------------------------------------------------------------------------
# A4 / A5


def test_a4_a5_linearity_of_delta_star():
    f, g = PRODUCT, ExpressionFunction("x1", 2)
    v4, v5 = check_A4_A5_linearity(DELTA_STAR, f, g, -2.5, pts(2, 30))
    assert v4.status == PASS and v5.status == PASS


def test_a5_zero_multiplier_gives_zero_decomposition():
    _, v5 = check_A4_A5_linearity(DELTA_STAR, PRODUCT, PRODUCT, 0.0, pts(2, 20))
    assert v5.status == PASS
    zero = linear_combine([(0.0, PRODUCT)])
    for x in pts(2, 5):
        assert DELTA_STAR(zero, x) == (0.0, 0.0)


def test_a4_a5_deviation_is_relative_to_every_compared_vector():
    # squaring breaks linearity; at x = (1, 2), F = 2: g = g_other = (4, 0),
    # g_sum = g_scaled (alpha = 2) = (16, 0), so both gaps are 8 and both
    # scales 1 + 16, though the first vector alone would give 1 + 4
    square = Principle("square", lambda f, xs: [(f(x) ** 2, 0.0) for x in xs])
    v4, v5 = check_A4_A5_linearity(square, PRODUCT, PRODUCT, 2.0, [(1.0, 2.0)])
    assert (v4.status, v5.status) == (FAIL, FAIL)
    assert v4.max_deviation == v5.max_deviation == 8.0 / 17.0


def test_a4_cancellation():
    cancel = linear_combine([(-1.0, PRODUCT), (1.0, PRODUCT)])
    for x in pts(2, 5):
        assert DELTA_STAR(cancel, x) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# A7 / A8


def test_a7_deviations_shrink_with_coefficients():
    direction = ExpressionFunction("x1", 2)
    verdict = check_A7_continuity_of_delta(
        DELTA_STAR, PRODUCT, direction, [1.0, 0.1, 0.01, 0.001], pts(2, 20))
    assert verdict.status == PARTIAL
    devs = [w[1] for w in verdict.witnesses]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    # linearity makes the deviation exactly proportional to the coefficient
    assert devs[1] == pytest.approx(devs[0] * 0.1, rel=1e-9)


def test_a7_constant_sequence_guard():
    direction = ExpressionFunction("x1", 2)
    verdict = check_A7_continuity_of_delta(
        DELTA_STAR, PRODUCT, direction, [1.0, 1.0, 1.0], pts(2, 10))
    assert verdict.status == PARTIAL
    assert "skipped" in verdict.note


def test_a7_single_coefficient_guard():
    direction = ExpressionFunction("x1", 2)
    verdict = check_A7_continuity_of_delta(DELTA_STAR, PRODUCT, direction, [1.0], pts(2, 10))
    assert verdict.status == PARTIAL and "skipped" in verdict.note


def test_a7_without_points_is_skipped():
    direction = ExpressionFunction("x1", 2)
    verdict = check_A7_continuity_of_delta(DELTA_STAR, PRODUCT, direction, [1.0, 0.1], [])
    assert verdict.status == PARTIAL and verdict.note == "no points; check skipped"


def test_a7_fails_when_deviations_grow_as_the_coefficient_shrinks():
    # broken on purpose: reports 1 / |change of F| as the first contribution
    def compute(fn, points):
        return [(0.0 if fn is PRODUCT else 1.0 / abs(fn(x) - PRODUCT(x)), 0.0) for x in points]

    direction = ExpressionFunction("x1", 2)
    verdict = check_A7_continuity_of_delta(
        Principle("blows-up", compute), PRODUCT, direction, [1.0, 0.1, 0.01], pts(2, 10))
    assert verdict.status == FAIL
    assert [w[0] for w in verdict.witnesses] == [
        "coefficient 1", "coefficient 0.1", "coefficient 0.01"]
    devs = [w[1] for w in verdict.witnesses]
    assert devs[0] < devs[1] < devs[2]
    assert verdict.max_deviation == devs[-1]
    assert verdict.note == "deviations do not decrease with the perturbation"


def test_a8_fails_when_deviations_grow_as_the_step_shrinks():
    # broken on purpose: reports 1 / distance from (1, 1) as the first contribution
    def compute(fn, points):
        return [(0.0 if tuple(x) == (1.0, 1.0) else 1.0 / math.dist(x, (1.0, 1.0)), 0.0)
                for x in points]

    verdict = check_A8_continuity_inheritance(
        Principle("blows-up", compute), PRODUCT, (1.0, 1.0), [1e-1, 1e-2, 1e-3], seed=3)
    assert verdict.status == FAIL
    assert [w[0] for w in verdict.witnesses] == ["step 0.1", "step 0.01", "step 0.001"]
    devs = [w[1] for w in verdict.witnesses]
    assert devs == pytest.approx([1e1, 1e2, 1e3], rel=1e-6)
    assert verdict.max_deviation == devs[-1]
    assert verdict.note == "contribution deviations do not decrease"


def test_a8_polynomial_deviations_shrink():
    fn = axioms.example1_function(2.0, 3.0)
    verdict = check_A8_continuity_inheritance(
        DELTA_STAR, fn, (1.0, 1.0), [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6], seed=3)
    assert verdict.status == PARTIAL
    devs = [w[1] for w in verdict.witnesses]
    assert devs[-1] < devs[0]
    assert "converge" in verdict.note


def test_a8_step_function_at_jump_is_skipped():
    fn = axioms.step_function(2, [0.5, 0.25], [1.0, 2.0])
    verdict = check_A8_continuity_inheritance(
        DELTA_STAR, fn, (0.5, 0.25), [1e-1, 1e-2, 1e-3, 1e-4], seed=5)
    assert verdict.status == PARTIAL
    assert "skipped" in verdict.note


def test_a8_without_directions_is_skipped():
    verdict = check_A8_continuity_inheritance(
        DELTA_STAR, PRODUCT, (1.0, 1.0), [1e-1, 1e-2], n_directions=0)
    assert verdict.status == PARTIAL and verdict.note == "no directions; check skipped"


def test_a8_constant_function_zero_deviation():
    fn = axioms.constant_function(3.0, 2)
    verdict = check_A8_continuity_inheritance(
        DELTA_STAR, fn, (1.0, 1.0), [1e-1, 1e-2, 1e-3], seed=7)
    assert verdict.status == PARTIAL
    assert verdict.max_deviation == 0.0


# ---------------------------------------------------------------------------
# A9


def test_a9_passes_with_mixed_maps():
    maps = [OddPowerMap(3.0), ScaleMap(2.0)]
    verdict = check_A9_reparameterization(DELTA_STAR, PRODUCT, maps, pts(2, 30))
    assert verdict.status == PASS
    assert verdict.max_deviation <= 1e-9


def test_a9_identity_maps_trivially_pass():
    maps = [ScaleMap(1.0), ScaleMap(1.0)]
    assert check_A9_reparameterization(DELTA_STAR, PRODUCT, maps, pts(2, 10)).status == PASS


def test_a9_piecewise_linear_maps():
    maps = [PiecewiseLinearMap([(-1.0, -2.0), (0.0, 0.0), (1.0, 0.5)]), OddPowerMap(0.5)]
    fn = ExpressionFunction("x1*x2 + x1", 2)
    assert check_A9_reparameterization(DELTA_STAR, fn, maps, pts(2, 20)).status == PASS


def test_a9_forbidden_maps_rejected_at_construction():
    with pytest.raises(ValueError):
        ScaleMap(0.0)
    with pytest.raises(ValueError):
        PiecewiseLinearMap([(0.0, 1.0), (1.0, 2.0)])  # h(0) = 1, no fixed point


# ---------------------------------------------------------------------------
# Negative controls over the default suite


def proportional_split(fn, points):
    """g_i = F(x) |x_i| / sum_j |x_j|, and F(0) / d at the origin: additive
    and symmetric, but a dummy coordinate away from 0 takes a share (A3,
    A6), and re-encoding an argument moves the shares (A9)."""
    x = np.array(points, dtype=float).reshape(len(points), fn.d)
    values = fn.evaluate_table(points, [(1 << fn.d) - 1])
    weights = np.abs(x)
    total = weights.sum(axis=1, keepdims=True)
    return np.where(total > 0, values * weights / np.where(total > 0, total, 1.0), values / fn.d)


PROPORTIONAL = Principle("proportional", proportional_split)


@pytest.mark.parametrize("principle, failing", [
    (DELTA_STAR, set()),
    (AS_SUBSET, set()),
    (SEQUENTIAL_FIXED, {"A2"}),
    (FIRST_COORDINATE, {"A2", "A3"}),
    (PROPORTIONAL, {"A3", "A6", "A9"}),
], ids=lambda v: getattr(v, "name", None))
def test_default_suite_verdict_matrix(principle, failing):
    # which axioms each principle fails at the suite defaults: a check that
    # turned vacuous would let a control pass
    records = run_axiom_suite(principle)
    assert {r.axiom for r in records} >= {f"A{k}" for k in range(1, 10)}
    assert {r.axiom for r in records if r.verdict.status == FAIL} == failing


# ---------------------------------------------------------------------------
# Non-finite contributions


# the contributions at the point (k, 1.0), by k: NaN and inf in chosen places
POISONED_ROWS = [(math.nan, 1.0), (3.0, 0.0), (math.inf, 0.0), (0.0, math.nan),
                 (1.0, 9.0), (1.0, -math.inf), (2.0, 0.0)]


def poisoned_principle(reference):
    """POISONED_ROWS at every function except ``reference``, which gets zeros."""
    def compute(fn, points):
        return [(0.0, 0.0) if fn is reference else POISONED_ROWS[int(x[0])] for x in points]
    return Principle("poisoned", compute)


_A1_WITNESSES = ('"witnesses": [{"input": "(1, 1)", "deviation": 1.0}, '
                 '{"input": "(2, 1)", "deviation": Infinity}, '
                 '{"input": "(4, 1)", "deviation": 1.2}]}')
_A9_WITNESSES = ('"witnesses": [{"input": "x=(1, 1)", "deviation": 0.75}, '
                 '{"input": "x=(4, 1)", "deviation": 0.9}, '
                 '{"input": "x=(6, 1)", "deviation": 0.6666666666666666}]}')


@pytest.mark.parametrize("order, worst_a1, worst_a9", [
    (range(7), "NaN", "NaN"),
    ([1, 0, 2, 3, 4, 5, 6], "Infinity", "0.9"),
])
def test_non_finite_contributions_keep_the_worst_and_failing_witnesses(order, worst_a1, worst_a9):
    # as Python's max has it, a NaN deviation is the worst only when it
    # comes first, and it never fails; inf fails
    points = [(float(k), 1.0) for k in order]
    a1 = check_A1_additivity(poisoned_principle(None), PRODUCT, points)
    a9 = check_A9_reparameterization(poisoned_principle(PRODUCT), PRODUCT,
                                     [ScaleMap(1.0), ScaleMap(1.0)], points)
    assert [json.dumps(v.to_json_dict()) for v in (a1, a9)] == [
        f'{{"axiom": "A1", "status": "fail", "max_deviation": {worst_a1}, '
        f'"tolerance": 1e-09, {_A1_WITNESSES}',
        f'{{"axiom": "A9", "status": "fail", "max_deviation": {worst_a9}, '
        f'"tolerance": 1e-09, {_A9_WITNESSES}',
    ]


_contribution = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308]),
                          st.floats(-10.0, 10.0))


@given(st.lists(st.lists(_contribution, min_size=6, max_size=6), min_size=1, max_size=5))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_array_gaps_and_verdicts_follow_python_max(rows):
    # the loop form, as game_axioms keeps it, is the reference
    a, b = np.array(rows)[:, :3], np.array(rows)[:, 3:]
    want = [game_axioms._gap(x, y) / (1.0 + max(abs(v) for v in (*x, *y)))
            for x, y in zip(a.tolist(), b.tolist())]
    got = axioms._gap(a, b, a, b)
    assert np.array_equal(got, want, equal_nan=True)
    reference = game_axioms._verdict("A2", [(str(k), v) for k, v in enumerate(want)], 0.5)
    verdict = axioms._verdict("A2", got, 0.5, str)
    assert json.dumps(verdict.to_json_dict()) == json.dumps(reference.to_json_dict())


# ---------------------------------------------------------------------------
# Game axioms


def additive_game(w):
    d = len(w)
    return Game(d, tuple(
        math.fsum(w[i] for i in range(d) if m >> i & 1) for m in range(1 << d)
    ))


def test_shapley_axioms_pass_on_additive_games():
    verdicts = check_shapley_axioms(additive_game([1.0, 2.0, 3.0]),
                                    additive_game([0.5, -1.0, 2.0]))
    assert {v.axiom for v in verdicts} == {"S1", "S2", "S3", "T1", "T2", "T3", "T4"}
    assert all(v.status == PASS for v in verdicts)


def test_shapley_axioms_unanimity_symmetry():
    values = [0.0] * 8
    values[7] = 1.0
    verdicts = check_shapley_axioms(Game(3, tuple(values)), additive_game([1.0, 0.0, 0.0]))
    assert all(v.status == PASS for v in verdicts)


def test_carrier_game_allocation():
    # players {1, 2} carry everything; player 3 is a dummy
    rng = np.random.default_rng(2)
    inner = {0: 0.0, 1: 1.5, 2: -0.5, 3: 2.0}
    values = [inner[m & 0b11] for m in range(8)]
    g = Game(3, tuple(values))
    shares = shapley(g).shares
    assert abs(shares[2]) < 1e-12
    assert shares[0] + shares[1] == pytest.approx(g.values[0b011], abs=1e-12)
    verdicts = check_shapley_axioms(g, additive_game([1.0, 1.0, 1.0]))
    assert all(v.status == PASS for v in verdicts)
    t3 = next(v for v in verdicts if v.axiom == "T3")
    assert t3.note is None  # a genuine dummy was checked


def test_perturbed_allocator_fails_carrier_axiom():
    rng = np.random.default_rng(4)
    values = rng.uniform(-3, 3, size=16)
    values[0] = 0.0
    g = Game(4, tuple(float(v) for v in values))
    verdicts = check_shapley_axioms(g, additive_game([1.0] * 4),
                                    allocator=perturbed_shapley)
    s2 = next(v for v in verdicts if v.axiom == "S2")
    assert s2.status == FAIL


# ---------------------------------------------------------------------------
# Corpus generators


def test_max_monomial_matches_relu_product():
    fn = axioms.max_monomial([1, 1], [1, 1])
    relu = ExpressionFunction("relu(x1) * relu(x2)", 2)
    for x in pts(2, 25, seed=1):
        assert fn(x) == relu(x)


def test_monomial_expansion_matches_monomial():
    # x^q as a signed combination of one-sided products, one term per sign
    # choice on the active coordinates
    for q in ([2, 1], [1, 0], [3, 2], [0, 2]):
        direct = axioms.monomial(q)
        terms = []
        for s in itertools.product(*[(1, -1) if qi else (1,) for qi in q]):
            coef = math.prod(float(si ** qi) for si, qi in zip(s, q))
            terms.append((coef, axioms.max_monomial(q, s)))
        expanded = linear_combine(terms)
        for x in pts(2, 25, seed=2):
            assert direct(x) == pytest.approx(expanded(x), rel=1e-12, abs=1e-12)


def test_constant_family():
    fn = axioms.constant_function(-2.5, 3)
    for x in pts(3, 10, seed=3):
        assert fn(x) == -2.5
    assert fn.dummy_coordinates == (0, 1, 2)


def test_generate_corpus_is_deterministic():
    spec = CorpusSpec("polynomial", 3, count=4, seed=99)
    labels = [f.label for f in generate_corpus(spec)]
    assert labels == [f.label for f in generate_corpus(spec)]


def test_polynomial_generation_is_fast_in_high_dimension():
    started = time.perf_counter()
    fns = generate_corpus(CorpusSpec("polynomial", 16, count=5))
    assert time.perf_counter() - started < 1.0
    assert len(fns) == 5 and all(fn.d == 16 and fn((0.0,) * 16) == 0.0 for fn in fns)


def test_polynomial_exponents_are_uniform_over_admissible_vectors():
    terms = Counter(random_polynomial(2, seed=k, degree=2, n_terms=1).label.split(" * ", 1)[1]
                    for k in range(3000))
    assert set(terms) == {"x1^1", "x2^1", "x1^2", "x1^1 * x2^1", "x2^2"}
    assert all(abs(count - 600) < 90 for count in terms.values())  # > 4 SD


def test_generate_corpus_families():
    for family in ("max_monomial", "monomial", "polynomial", "step_function",
                   "example1", "example2", "constant"):
        fns = generate_corpus(CorpusSpec(family, 3, count=2, seed=5))
        assert len(fns) == 2
        for fn in fns:
            fn((0.1,) * fn.d)  # evaluates without error
    with pytest.raises(ValueError):
        generate_corpus(CorpusSpec("mystery", 3))
    with pytest.raises(ValueError, match="count must be an integer of at least 1, got 0"):
        generate_corpus(CorpusSpec("polynomial", 3, count=0))


def test_pinned_max_monomial_params():
    fns = generate_corpus(CorpusSpec("max_monomial", 2, count=1, seed=0,
                                     params={"q": [2, 1], "s": [1, -1]}))
    assert fns[0].label == "max(x1, 0)^2 * max(-x2, 0)^1"


# ---------------------------------------------------------------------------
# Suite


def small_config(**overrides):
    base = dict(d=3, n_functions=8, n_points=12, n_permutations=3, seed=11)
    base.update(overrides)
    return SuiteConfig(**base)


def test_suite_delta_star_has_no_failures():
    records = run_axiom_suite(DELTA_STAR, small_config())
    assert records
    assert not [r for r in records if r.verdict.status == FAIL]
    axioms_seen = {r.axiom for r in records}
    assert {"A1", "A2", "A4", "A5", "A7", "A8", "A9"} <= axioms_seen


def test_suite_sequential_fails_a2():
    records = run_axiom_suite(SEQUENTIAL_FIXED, small_config())
    failures = [r for r in records if r.axiom == "A2" and r.verdict.status == FAIL]
    assert failures
    assert failures[0].verdict.witnesses


def test_suite_first_coordinate_fails_a2_and_a3():
    records = run_axiom_suite(FIRST_COORDINATE, small_config())
    assert any(r.axiom == "A2" and r.verdict.status == FAIL for r in records)
    assert any(r.axiom == "A3" and r.verdict.status == FAIL for r in records)


def test_suite_skips_inadmissible_functions_for_zero_origin_principles():
    records = run_axiom_suite(AS_SUBSET, small_config())
    skipped = [r for r in records if r.axiom == "admissibility"]
    assert skipped  # the default corpus contains origin-shifted functions
    assert all(r.verdict.status == PARTIAL for r in skipped)


def test_suite_config_rejects_out_of_range_counts():
    for field, bad in (("n_functions", 0), ("n_points", -2), ("n_permutations", -1)):
        with pytest.raises(ValueError, match=f"{field} must be at least"):
            small_config(**{field: bad})
    for bad in (math.nan, -1e-300, math.inf):
        with pytest.raises(ValueError, match="tolerance must be a finite number of at least 0"):
            small_config(tolerance=bad)
    assert small_config(n_permutations=0, n_points=1, n_functions=1).n_permutations == 0


def test_suite_rejects_empty_corpus():
    with pytest.raises(ValueError):
        run_axiom_suite(DELTA_STAR, small_config(), corpus=[])


def test_verdict_fail_requires_witness():
    with pytest.raises(ValueError):
        AxiomVerdict("A1", FAIL, 1.0, 1e-9)


def test_verdict_json_shape():
    v = AxiomVerdict("A2", FAIL, 0.5, 1e-10, (("x=(1, 2)", 0.5),), note="n")
    obj = v.to_json_dict()
    assert obj["axiom"] == "A2" and obj["status"] == "fail"
    assert obj["witnesses"][0]["deviation"] == 0.5
