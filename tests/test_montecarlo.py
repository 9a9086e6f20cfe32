import math

import pytest

from funcdecomp import decomp, montecarlo
from funcdecomp.core import DimensionMismatchError, NonzeroOriginError
from funcdecomp.expr import ExpressionFunction, NativeFunction

from oracles import close

PRODUCT = ExpressionFunction("x1*x2", 2)


def test_estimate_within_four_standard_errors_of_exact():
    exact = decomp.as_subset(PRODUCT, (2.0, 3.0)).contributions
    report = montecarlo.estimate_as(PRODUCT, (2.0, 3.0), n=1000, seed=7)
    for est, se, ref in zip(report.estimate, report.standard_error, exact):
        assert abs(est - ref) <= 4.0 * se
    assert report.n_samples == 1000 and report.seed == 7


def test_single_dimension_is_exact_with_zero_error():
    fn = ExpressionFunction("x1^3", 1)
    report = montecarlo.estimate_as(fn, (2.0,), n=50, seed=1)
    assert report.estimate == (8.0,)
    assert report.standard_error == (0.0,)


def test_symmetric_function_estimates_agree():
    report = montecarlo.estimate_as(PRODUCT, (2.0, 2.0), n=2000, seed=3)
    e1, e2 = report.estimate
    s1, s2 = report.standard_error
    assert abs(e1 - e2) <= 4.0 * math.sqrt(s1 * s1 + s2 * s2)


def test_estimate_telescopes_to_function_value():
    fn = ExpressionFunction("x1*x2*x3 - x2^2 + x3", 3)
    x = (1.2, -0.7, 0.4)
    report = montecarlo.estimate_as(fn, x, n=500, seed=11)
    assert close(report.total, fn(x), rel=1e-12, abs_=1e-12)


def test_deterministic_for_fixed_seed():
    a = montecarlo.estimate_as(PRODUCT, (2.0, 3.0), n=700, seed=42)
    b = montecarlo.estimate_as(PRODUCT, (2.0, 3.0), n=700, seed=42)
    assert a == b
    c = montecarlo.estimate_as(PRODUCT, (2.0, 3.0), n=700, seed=43)
    assert c.estimate != a.estimate


def test_worker_count_does_not_change_the_report():
    fn = ExpressionFunction("x1*x2 + x2*x3 + x3*x4", 4)
    x = (1.0, -2.0, 0.5, 3.0)
    single = montecarlo.estimate_as(fn, x, n=1000, seed=5, workers=1)
    quad = montecarlo.estimate_as(fn, x, n=1000, seed=5, workers=4)
    assert single == quad


def test_sample_count_guard():
    with pytest.raises(ValueError):
        montecarlo.estimate_as(PRODUCT, (1.0, 1.0), n=1, seed=0)


def test_origin_guard():
    shifted = ExpressionFunction("x1 + 1", 2)
    with pytest.raises(NonzeroOriginError):
        montecarlo.estimate_as(shifted, (1.0, 1.0), n=10, seed=0)


def test_estimator_is_unbiased_against_exact_value():
    # small-scale coverage check; the full calibration lives in acceptance
    fn = ExpressionFunction("x1*x2 + 0.5*x2*x3 - x1*x3", 3)
    x = (1.0, 2.0, -1.5)
    exact = decomp.as_subset(fn, x).contributions
    hits = 0
    runs = 40
    for seed in range(runs):
        report = montecarlo.estimate_as(fn, x, n=400, seed=seed)
        if all(abs(e - r) <= 4 * s or s == 0.0
               for e, s, r in zip(report.estimate, report.standard_error, exact)):
            hits += 1
    assert hits >= int(0.9 * runs)


def test_large_dimension_feasible_without_full_table():
    d = 24  # beyond the exact subset cap
    fn = NativeFunction(lambda x: math.fsum(x) + x[0] * x[1], d, label="wide")
    x = tuple(float(i % 3 - 1) for i in range(d))
    report = montecarlo.estimate_as(fn, x, n=64, seed=9)
    assert close(report.total, fn(x), rel=1e-10, abs_=1e-10)


def test_dimension_cap_of_int64_masks():
    wide = ExpressionFunction("x1 + x63", 63)
    report = montecarlo.estimate_as(wide, (1.0,) * 63, n=4, seed=1)
    assert close(report.total, 2.0)
    too_wide = ExpressionFunction("x1 + x64", 64)
    for estimator in (montecarlo.estimate_as, montecarlo.estimate_delta_star):
        with pytest.raises(DimensionMismatchError, match="dimension 64 exceeds the cap 63"):
            estimator(too_wide, (1.0,) * 64, n=200, seed=0)


def test_worker_count_is_validated():
    with pytest.raises(ValueError, match="worker"):
        montecarlo.estimate_as(PRODUCT, (1.0, 1.0), n=10, seed=0, workers=0)


def test_delta_star_estimate_splits_the_origin_value():
    shifted = ExpressionFunction("x1*x2 + 0.5*x2*x3 - x1*x3 + 3", 3)
    x = (1.0, 2.0, -1.5)
    exact = decomp.delta_star(shifted, x).contributions
    report = montecarlo.estimate_delta_star(shifted, x, n=2000, seed=4)
    for est, se, ref in zip(report.estimate, report.standard_error, exact):
        assert abs(est - ref) <= 4.0 * se
    assert close(report.total, shifted(x), rel=1e-12, abs_=1e-12)
    # without an origin value it is estimate_as, bit for bit
    centred = ExpressionFunction("x1*x2 + 0.5*x2*x3 - x1*x3", 3)
    assert (montecarlo.estimate_delta_star(centred, x, n=500, seed=4)
            == montecarlo.estimate_as(centred, x, n=500, seed=4))
