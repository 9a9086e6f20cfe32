import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcdecomp import core, decomp, expr
from funcdecomp.core import (
    DimensionMismatchError,
    NonFiniteCoordinateError,
    NonzeroOriginError,
    inverse_permutation,
    permutation_from_ranks,
    permute,
)
from funcdecomp.expr import (
    EvaluationError,
    ExpressionFunction,
    NativeFunction,
    TableFunction,
    compose_permutation,
)
from funcdecomp.game import game_from_binary_function, shapley
from funcdecomp.axioms import max_monomial

from oracles import (
    all_close,
    brute_as,
    brute_delta_star,
    close,
    dividend_delta_star,
    harsanyi_dividends,
    mean_of_sequential,
)
from polynomials import random_polynomial


def counting(fn):
    calls = []
    wrapper = NativeFunction(lambda x: (calls.append(x), fn(x))[1], fn.d, label="counted")
    return wrapper, calls


def rand_points(d, n, seed, low=-2.0, high=2.0):
    rng = np.random.default_rng(seed)
    return [tuple(map(float, row)) for row in rng.uniform(low, high, size=(n, d))]


F_PROD_PLUS = ExpressionFunction("x1*x2 + x1", 2)


# ---------------------------------------------------------------------------
# sequential


def test_sequential_identity_order():
    res = decomp.sequential(F_PROD_PLUS, (2.0, 3.0))
    assert res.contributions == (2.0, 6.0)
    assert res.total == 8.0
    assert res.method == "sequential(1, 2)"


def test_sequential_swapped_order():
    res = decomp.sequential(F_PROD_PLUS, (2.0, 3.0), permutation_from_ranks((2, 1)))
    assert res.contributions == (8.0, 0.0)


def test_sequential_ignores_inactive_coordinate():
    fn = ExpressionFunction("x1^2 + x3", 3)  # no x2 anywhere
    for ranks in [(1, 2, 3), (2, 1, 3), (3, 2, 1), (2, 3, 1)]:
        res = decomp.sequential(fn, (1.5, -2.0, 0.5), permutation_from_ranks(ranks))
        assert res.contributions[1] == 0.0


def test_sequential_uses_exactly_d_plus_one_evaluations():
    fn, calls = counting(ExpressionFunction("x1*x2*x3 + x2", 3))
    decomp.sequential(fn, (1.0, 2.0, 3.0))
    assert len(calls) == 4


def test_sequential_rejects_shifted_origin_with_guidance():
    fn = ExpressionFunction("x1 + 1", 2)
    with pytest.raises(NonzeroOriginError, match="delta_star"):
        decomp.sequential(fn, (1.0, 1.0))


def test_sequential_has_no_dimension_cap():
    d = 100  # beyond the int64 masks of the sampler
    x = tuple(1.0 + i / d for i in range(d))
    fn = ExpressionFunction(" + ".join(f"x{i}^2" for i in range(1, d + 1)), d)
    res = decomp.sequential(fn, x, permutation_from_ranks(tuple(range(d, 0, -1))))
    assert all_close(res.contributions, [v ** 2 for v in x], rel=1e-12, abs_=1e-12)
    assert close(res.total, fn(x), rel=1e-14)


def test_origin_is_checked_before_the_other_projections():
    # F(0) = 1 and F fails wherever x2 is active: the origin error wins
    fn = ExpressionFunction("1 + ln(1 - x2)", 2)
    for method in (decomp.sequential, decomp.as_permutation, decomp.as_subset,
                   decomp.pointwise_shapley):
        with pytest.raises(NonzeroOriginError):
            method(fn, (1.0, 1.0))


def test_sequential_validates_permutation_length():
    with pytest.raises(DimensionMismatchError, match=r"permutation length 3 != d 2"):
        decomp.sequential(F_PROD_PLUS, (1.0, 1.0), (0, 1, 2))
    # orders of the right length that are not permutations
    for perm in ((0, 0), (5, 0)):
        with pytest.raises(DimensionMismatchError, match=r"not a permutation of 0\.\.1"):
            decomp.sequential(F_PROD_PLUS, (1.0, 1.0), perm)


def test_sequential_telescopes_exactly():
    fn = random_polynomial(5, seed=21)
    for x in rand_points(5, 10, seed=1):
        res = decomp.sequential(fn, x, permutation_from_ranks((3, 1, 5, 2, 4)))
        assert close(math.fsum(res.contributions), res.total, rel=1e-12, abs_=1e-12)


# ---------------------------------------------------------------------------
# averaged forms


def test_as_permutation_product_splits_evenly():
    fn = ExpressionFunction("x1*x2", 2)
    for a, b in [(2.0, 3.0), (-1.5, 4.0), (0.25, 0.5)]:
        res = decomp.as_permutation(fn, (a, b))
        assert all_close(res.contributions, [a * b / 2, a * b / 2])


def test_as_permutation_dummy_argument():
    res = decomp.as_permutation(ExpressionFunction("x1", 2), (5.0, 7.0))
    assert res.contributions == (5.0, 0.0)


def test_as_permutation_at_origin_is_zero():
    res = decomp.as_permutation(ExpressionFunction("x1*x2 + x2^3", 2), (0.0, 0.0))
    assert res.contributions == (0.0, 0.0)


def test_as_permutation_is_mean_of_sequential():
    for d in (1, 2, 3, 4, 5, 6):
        fn = random_polynomial(d, seed=100 + d)
        for x in rand_points(d, 3, seed=d):
            res = decomp.as_permutation(fn, x)
            assert all_close(res.contributions, mean_of_sequential(fn, x),
                             rel=1e-11, abs_=1e-11)


def test_as_subset_product_example():
    res = decomp.as_subset(ExpressionFunction("x1*x2", 2), (2.0, 3.0))
    assert all_close(res.contributions, [3.0, 3.0])


def test_as_subset_two_dim_expansion():
    fn = ExpressionFunction("exp(x1) - 1 + x1*x2^2", 2)
    for x in rand_points(2, 25, seed=7):
        res = decomp.as_subset(fn, x)
        g1 = 0.5 * (fn((x[0], 0.0)) - fn((0.0, 0.0))) + 0.5 * (fn(x) - fn((0.0, x[1])))
        g2 = 0.5 * (fn((0.0, x[1])) - fn((0.0, 0.0))) + 0.5 * (fn(x) - fn((x[0], 0.0)))
        assert all_close(res.contributions, [g1, g2], rel=1e-12, abs_=1e-12)


def test_as_subset_agrees_with_as_permutation_on_random_polynomials():
    rng = np.random.default_rng(13)
    for k in range(20):
        d = int(rng.integers(1, 6))
        fn = random_polynomial(d, seed=k)
        for x in rand_points(d, 5, seed=1000 + k):
            a = decomp.as_subset(fn, x).contributions
            b = decomp.as_permutation(fn, x).contributions
            assert all_close(a, b, rel=1e-10, abs_=1e-10)


def test_as_subset_matches_brute_force_oracle():
    fn = ExpressionFunction("x1*x2*x3 + 2*x2 - x3^2", 3)
    for x in rand_points(3, 10, seed=3):
        assert all_close(decomp.as_subset(fn, x).contributions, brute_as(fn, x),
                         rel=1e-11, abs_=1e-11)


def test_averaged_methods_require_zero_origin():
    fn = ExpressionFunction("x1 + 1", 2)
    for method in (decomp.as_permutation, decomp.as_subset, decomp.pointwise_shapley):
        with pytest.raises(NonzeroOriginError):
            method(fn, (1.0, 1.0))


# ---------------------------------------------------------------------------
# delta_star


def test_delta_star_splits_constants_exactly():
    for d in range(1, 11):
        for c in (-3.0, 0.0, 7.0):
            fn = ExpressionFunction(repr(c), d)
            res = decomp.delta_star(fn, (0.5,) * d)
            assert all(g == c / d for g in res.contributions)


def test_delta_star_worked_example_one():
    fn = ExpressionFunction("(x1 + 2)*(x2 + 3) - 6", 2)
    res = decomp.delta_star(fn, (1.0, 1.0))
    assert res.contributions == (3.5, 2.5)


def test_delta_star_worked_example_two():
    fn = ExpressionFunction("10 + 2*(x1 + x2 + x3)", 3)
    res = decomp.delta_star(fn, (1.0, 2.0, 3.0))
    assert all_close(res.contributions, [16 / 3, 22 / 3, 28 / 3])
    assert close(res.total, 22.0)


def test_delta_star_restriction_equals_as_subset():
    fn = random_polynomial(4, seed=33)  # no constant term
    for x in rand_points(4, 10, seed=4):
        assert decomp.delta_star(fn, x).contributions == decomp.as_subset(fn, x).contributions


def test_delta_star_matches_brute_force_oracle():
    fn = ExpressionFunction("5 + x1*x2 - x3 + max(x1, x3)", 3)
    for x in rand_points(3, 10, seed=5):
        assert all_close(decomp.delta_star(fn, x).contributions, brute_delta_star(fn, x),
                         rel=1e-11, abs_=1e-11)


def test_delta_star_caches_black_box_evaluations():
    fn, calls = counting(ExpressionFunction("7 + x1*x2", 2))
    decomp.delta_star(fn, (1.0, 2.0))
    assert len(calls) == 4  # one per subset


# ---------------------------------------------------------------------------
# pointwise shapley


def test_pointwise_shapley_matches_as_subset():
    fn = ExpressionFunction("x1*x2", 2)
    res = decomp.pointwise_shapley(fn, (2.0, 3.0))
    assert all_close(res.contributions, [3.0, 3.0], rel=1e-12, abs_=1e-12)
    assert res.method == "pointwise_shapley"


def test_pointwise_shapley_at_ones_equals_game_allocation():
    fn = random_polynomial(4, seed=55)
    induced = game_from_binary_function(fn)
    shares = shapley(induced).shares
    res = decomp.pointwise_shapley(fn, (1.0,) * 4)
    assert all_close(res.contributions, shares, rel=1e-12, abs_=1e-12)
    also = decomp.as_subset(fn, (1.0,) * 4)
    assert all_close(also.contributions, shares, rel=1e-12, abs_=1e-12)


def test_pointwise_shapley_single_active_player():
    res = decomp.pointwise_shapley(ExpressionFunction("x1", 3), (4.0, -1.0, 2.0))
    assert all_close(res.contributions, [4.0, 0.0, 0.0], rel=1e-12, abs_=1e-12)


def test_pointwise_shapley_equals_as_subset_on_random_corpus():
    rng = np.random.default_rng(21)
    for k in range(15):
        d = int(rng.integers(1, 6))
        fn = random_polynomial(d, seed=200 + k)
        for x in rand_points(d, 5, seed=300 + k):
            a = decomp.pointwise_shapley(fn, x).contributions
            b = decomp.as_subset(fn, x).contributions
            assert all_close(a, b, rel=1e-12, abs_=1e-12)


# ---------------------------------------------------------------------------
# shared properties


def test_one_dimension_degenerates_to_difference():
    fn = ExpressionFunction("x1^3", 1)
    x = (2.0,)
    assert decomp.sequential(fn, x).contributions == (8.0,)
    assert decomp.as_permutation(fn, x).contributions == (8.0,)
    assert decomp.as_subset(fn, x).contributions == (8.0,)
    assert decomp.delta_star(fn, x).contributions == (8.0,)
    shifted = ExpressionFunction("x1^3 + 5", 1)
    assert decomp.delta_star(shifted, x).contributions == (13.0,)


def test_efficiency_across_methods():
    fn = ExpressionFunction("3 + x1*x2 - x3^2 + max(x1, 0)", 3)
    zero_fn = ExpressionFunction("x1*x2 - x3^2 + x2*x3", 3)
    for x in rand_points(3, 10, seed=6):
        res = decomp.delta_star(fn, x)
        assert res.residual <= 1e-9 * (1 + abs(res.total))
        for method in (decomp.as_permutation, decomp.as_subset, decomp.pointwise_shapley):
            r = method(zero_fn, x)
            assert close(math.fsum(r.contributions), r.total, rel=1e-12, abs_=1e-12)


def test_relabeling_invariance():
    # decomposing the relabeled function and un-permuting gives the original
    fn = ExpressionFunction("x1^2 * x2 + 3*x3", 3)
    for ranks in [(2, 3, 1), (3, 1, 2), (2, 1, 3)]:
        perm = permutation_from_ranks(ranks)
        inv = inverse_permutation(perm)
        relabeled = compose_permutation(fn, perm)
        for x in rand_points(3, 5, seed=8):
            direct = decomp.as_subset(fn, permute(x, perm)).contributions
            via = decomp.as_subset(relabeled, x).contributions
            assert all_close([via[i] for i in range(3)],
                             [direct[inv[i]] for i in range(3)], rel=1e-10, abs_=1e-10)


def test_monomial_rule_and_zero_set():
    # With every active coordinate on its positive side, only activation
    # patterns covering the whole support contribute, so the value splits
    # evenly across the support.  Exponents above one merely rescale a
    # coordinate (an odd-power reparameterization), which cannot change
    # the split: for binary exponents the weights q_j/sum(q) say the same.
    rng = np.random.default_rng(31)
    for _ in range(15):
        d = int(rng.integers(2, 5))
        q = [int(v) for v in rng.integers(0, 3, size=d)]
        if not any(q):
            q[0] = 2
        s = [int(v) for v in rng.choice((-1, 1), size=d)]
        fn = max_monomial(q, s)
        x = tuple(
            si * float(rng.uniform(0.3, 1.8)) if qi else float(rng.uniform(-2, 2))
            for qi, si in zip(q, s)
        )
        total = fn(x)
        support = sum(1 for qi in q if qi)
        res = decomp.as_subset(fn, x)
        assert all_close(res.contributions,
                         [(1.0 / support if qi else 0.0) * total for qi in q],
                         rel=1e-10, abs_=1e-10)
        # zeroing one active coordinate kills every contribution
        k = next(i for i, qi in enumerate(q) if qi)
        x0 = tuple(0.0 if i == k else c for i, c in enumerate(x))
        assert all(abs(g) <= 1e-12 for g in decomp.as_subset(fn, x0).contributions)


def test_monomial_rule_binary_exponents_weighted_form():
    # on binary exponent vectors the exponent-weighted form is exact
    rng = np.random.default_rng(41)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        q = [int(v) for v in rng.integers(0, 2, size=d)]
        if not any(q):
            q[0] = 1
        s = [int(v) for v in rng.choice((-1, 1), size=d)]
        fn = max_monomial(q, s)
        x = tuple(
            si * float(rng.uniform(0.3, 1.8)) if qi else float(rng.uniform(-2, 2))
            for qi, si in zip(q, s)
        )
        total = fn(x)
        norm = sum(q)
        res = decomp.as_subset(fn, x)
        assert all_close(res.contributions, [qi / norm * total for qi in q],
                         rel=1e-10, abs_=1e-10)


# ---------------------------------------------------------------------------
# many points per call


@st.composite
def _tables_with_dummies(draw):
    """A table of small integers in mask order, d <= 8, constant along the
    coordinates of a drawn set, so dummies are common and sums are exact."""
    d = draw(st.integers(1, 8))
    dummies = draw(st.sets(st.integers(0, d - 1)))
    active = sum(1 << j for j in range(d) if j not in dummies)
    base = draw(st.lists(st.integers(-4, 4), min_size=1 << d, max_size=1 << d))
    return d, [float(base[m & active]) for m in range(1 << d)]


@given(_tables_with_dummies())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_four_routes_to_delta_star_agree_and_dividends_find_the_dummies(case):
    d, values = case
    x = tuple(float(j + 1) for j in range(d))
    fn = TableFunction(d, [(core.project(x, m), v) for m, v in enumerate(values)])
    kernel = decomp.delta_star(fn, x).contributions
    orders = values[0] / d + core.permutation_average_marginals(values, d)
    assert all_close(kernel, orders.tolist())
    assert all_close(kernel, brute_delta_star(fn, x))
    assert all_close(kernel, dividend_delta_star(fn, x))
    dividends = harsanyi_dividends(fn, x)
    for i in range(d):
        dummy = all(values[m | 1 << i] == values[m] for m in range(1 << d))
        assert dummy == all(v == 0.0 for s, v in dividends.items() if i in s)


ARRAYS = [
    (decomp.sequential_arrays, decomp.sequential),
    (decomp.as_permutation_arrays, decomp.as_permutation),
    (decomp.as_subset_arrays, decomp.as_subset),
    (decomp.delta_star_arrays, decomp.delta_star),
    (decomp.pointwise_shapley_arrays, decomp.pointwise_shapley),
]


def one_point_rows(results):
    """One-point results as the contributions, totals and method of an array form."""
    return ([list(r.contributions) for r in results], [r.total for r in results],
            results[0].method)


def test_many_points_give_the_one_point_results(monkeypatch):
    # rows of 2^3 masks always gather, so a smaller block covers the same
    # code as the default one with far fewer one-point reference calls
    monkeypatch.setattr(expr, "MASK_BLOCK", 4096)
    fn = ExpressionFunction("x1*x2*x3 - x2^2 + exp(x3/3) - 1", 3)
    points = rand_points(3, expr.MASK_BLOCK // 8 + 88, seed=29)  # two blocks of evaluate_table
    for arrays, one in ARRAYS:
        contributions, totals, method = arrays(fn, points)
        assert contributions.dtype == totals.dtype == np.float64
        assert (contributions.tolist(), totals.tolist(), method) == one_point_rows(
            [one(fn, x) for x in points])
        empty = arrays(fn, [])
        assert empty.contributions.shape == (0, 3) and empty.totals.shape == (0,)
    perm = permutation_from_ranks((3, 1, 2))
    contributions, totals, method = decomp.sequential_arrays(fn, points, perm)
    assert (contributions.tolist(), totals.tolist(), method) == one_point_rows(
        [decomp.sequential(fn, x, perm) for x in points])
    assert method == "sequential(3, 1, 2)"


def test_sequential_many_evaluates_the_origin_once():
    fn, calls = counting(ExpressionFunction("x1*x2*x3 + x2", 3))
    decomp.sequential_arrays(fn, rand_points(3, 5, seed=1))
    assert len(calls) == 1 + 5 * 3


def test_many_points_raise_the_first_error_in_point_order():
    domain = ExpressionFunction("ln(x1 + 1) * x2", 2)
    with pytest.raises(EvaluationError, match=r"ln of non-positive value -1\.0"):
        decomp.delta_star_arrays(domain, [(1.0, 2.0), (-2.0, 1.0), (math.nan, 1.0)])
    with pytest.raises(NonFiniteCoordinateError):
        decomp.delta_star_arrays(domain, [(1.0, 2.0), (math.nan, 1.0), (-2.0, 1.0)])
    # a bad first point is reported before the dimension cap, as for one point
    huge = NativeFunction(lambda x: sum(x), 21, label="sum21")
    with pytest.raises(NonFiniteCoordinateError):
        decomp.delta_star_arrays(huge, [(math.nan,) + (0.0,) * 20])
    # F(0) = 1 is checked before the second point's domain error
    shifted = ExpressionFunction("1 + ln(x1 + 1) * x2", 2)
    for arrays, _ in ARRAYS:
        if arrays is not decomp.delta_star_arrays:
            with pytest.raises(NonzeroOriginError):
                arrays(shifted, [(1.0, 2.0), (-2.0, 1.0)])
    with pytest.raises(EvaluationError):
        decomp.delta_star_arrays(shifted, [(1.0, 2.0), (-2.0, 1.0)])


def test_each_point_is_validated_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return core.as_point(*args)

    for mod in (decomp, expr):
        monkeypatch.setattr(mod, "as_point", counted)
    fn = ExpressionFunction("x1*x2 + x3 + 1", 3)
    points = [np.array(x) for x in rand_points(3, 5, seed=3)]
    decomp.delta_star_arrays(fn, points)
    # the first point before the dimension cap, then each point once in
    # evaluate_table; two per point and one more made 11
    assert len(calls) <= 6
    for x in points:
        res = decomp.delta_star(fn, x)
        assert res.x == core.as_point(x) and all(type(c) is float for c in res.x)


def test_many_points_hold_at_most_two_groups_of_the_table():
    # at d = 16 a group is 16 points: a table of 2^20 values, 8 MiB
    d = 16
    fn = ExpressionFunction("x1 * x16 + x2", d)
    points = rand_points(d, 64, seed=31)
    tracemalloc.start()
    try:
        result = decomp.delta_star_arrays(fn, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * (1 << decomp.EXACT_SUBSET_CAP)  # all 64 rows would be 32 MiB
    for k in (0, 15, 16, 63):
        one = decomp.delta_star(fn, points[k])
        assert result.contributions[k].tolist() == list(one.contributions)
        assert result.totals[k] == one.total


def test_dimension_caps_enforced():
    big = NativeFunction(lambda x: sum(x), 11, label="sum11")
    with pytest.raises(DimensionMismatchError):
        decomp.as_permutation(big, (0.0,) * 11)
    huge = NativeFunction(lambda x: sum(x), 21, label="sum21")
    with pytest.raises(DimensionMismatchError):
        decomp.as_subset(huge, (0.0,) * 21)
    # sequential has no cap: d+1 evaluations only
    res = decomp.sequential(huge, (1.0,) * 21)
    assert math.fsum(res.contributions) == pytest.approx(21.0)
