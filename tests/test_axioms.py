import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest

from funcdecomp import axioms
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
    check_A2_permutation,
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
    ExpressionFunction,
    OddPowerMap,
    PiecewiseLinearMap,
    ScaleMap,
    linear_combine,
)
from funcdecomp.game import Game, shapley

from game_axioms import check_shapley_axioms, perturbed_shapley


def pts(d, n=30, seed=0, low=-3.0, high=3.0):
    return sample_points(d, n, low, high, seed)


PRODUCT = ExpressionFunction("x1*x2", 2)


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
    broken = Principle("broken", lambda f, xs: [g[:-1] + (0.0,) for g in DELTA_STAR.decompose(f, xs)])
    verdict = check_A1_additivity(broken, ExpressionFunction("x1 + x2", 2), pts(2, 20))
    assert verdict.status == FAIL
    assert verdict.witnesses


# ---------------------------------------------------------------------------
# A2


def test_a2_passes_for_delta_star_on_asymmetric_function():
    fn = ExpressionFunction("x1^2 * x2", 2)
    verdict = check_A2_permutation(DELTA_STAR, fn, (1, 0), pts(2, 40))
    assert verdict.status == PASS
    assert verdict.max_deviation <= 1e-10


def test_a2_passes_on_three_cycles():
    fn = ExpressionFunction("x1^2 * x2 + 3*x3", 3)
    for perm in [(1, 2, 0), (2, 0, 1)]:
        assert check_A2_permutation(DELTA_STAR, fn, perm, pts(3, 25)).status == PASS


def test_a2_symmetric_function_trivially_passes():
    assert check_A2_permutation(DELTA_STAR, PRODUCT, (1, 0), pts(2, 25)).status == PASS


def test_a2_fixed_order_sequential_fails():
    verdict = check_A2_permutation(SEQUENTIAL_FIXED, PRODUCT, (1, 0), pts(2, 25))
    assert verdict.status == FAIL
    assert verdict.witnesses


def test_a2_first_coordinate_fails_on_asymmetric_function():
    fn = ExpressionFunction("x2", 2)
    verdict = check_A2_permutation(FIRST_COORDINATE, fn, (1, 0), pts(2, 25))
    assert verdict.status == FAIL


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
    terms = Counter(axioms.random_polynomial(2, seed=k, degree=2, n_terms=1).label.split(" * ", 1)[1]
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
