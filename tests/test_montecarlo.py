import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from funcdecomp import cli, decomp, montecarlo
from funcdecomp.core import DimensionMismatchError, NonzeroOriginError, as_point, seeded_rng
from funcdecomp.expr import ExpressionFunction, NativeFunction

from oracles import close
from polynomials import SAMPLED_POINT, SAMPLED_POLYNOMIAL

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


def run_sampled(capsys, *options):
    code = cli.main(["decompose", "-d", "4", "-f", "x1*x2 + x2*x3 + x3*x4",
                     "--point=1,-2,0.5,3", "--method", "mc", "--samples", "1000", "--seed", "5",
                     "--format", "json", *options])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_worker_count_does_not_change_the_report(capsys):
    # --workers is a CLI option only; the estimators take no worker count
    single = run_sampled(capsys, "--workers", "1")
    quad = run_sampled(capsys, "--workers", "4")
    assert single == quad and single[0] == 0


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


def test_worker_count_is_validated(capsys):
    assert run_sampled(capsys, "--workers", "0") == (
        2, "", "error: need at least 1 worker, got 0\n")


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


def test_sample_count_must_be_an_integer():
    for estimator in (montecarlo.estimate_as, montecarlo.estimate_delta_star):
        for n in (100.0, True, "100", None):
            with pytest.raises(ValueError, match=r"sample count n must be an integer"):
                estimator(PRODUCT, (1.0, 1.0), n=n, seed=0)


def test_seed_must_be_an_integer():
    for estimator in (montecarlo.estimate_as, montecarlo.estimate_delta_star):
        for seed in (1.5, math.nan, True, "7", None):
            with pytest.raises(ValueError, match=r"seed must be an integer"):
                estimator(PRODUCT, (1.0, 1.0), n=100, seed=seed)
        report = estimator(PRODUCT, (1.0, 1.0), n=np.int64(100), seed=np.int64(7))
        assert report == estimator(PRODUCT, (1.0, 1.0), n=100, seed=7)
        assert type(report.seed) is int and type(report.n_samples) is int
        json.dumps(dataclasses.asdict(report))  # raises on a numpy integer


# ---------------------------------------------------------------------------
# Reports, first errors and evaluation counts pinned to recorded values: a
# change to the sampler's bits, evaluation order or evaluation count shows here.


def _golden_function(d, shift):
    return ExpressionFunction(
        f"x1*x2*x{d} - 0.5*x{(d + 1) // 2}^2 + exp(x2) - 1"
        f" + 0.3*x{d // 3 + 1}*x{d - 1}*x{2 * d // 3} + {shift}", d)


def _golden_point(d):
    return tuple(((7 * i) % 11 - 5) / 4 for i in range(1, d + 1))


def test_reports_match_recorded_bits():
    digest = hashlib.sha256()
    for d in (2, 40, 63):
        for n in (3, 257, 2000):
            for seed in (0, -1, 7):
                x = _golden_point(d)
                for name, report in (
                        ("as", montecarlo.estimate_as(_golden_function(d, 0), x, n, seed)),
                        ("ds", montecarlo.estimate_delta_star(_golden_function(d, 1.25), x,
                                                              n, seed))):
                    values = " ".join(v.hex() for v in report.estimate + report.standard_error)
                    digest.update(f"{name} {d} {n} {seed} {report.n_samples} {report.seed} "
                                  f"{values}\n".encode())
    assert digest.hexdigest() == (
        "a780c6a49ef6e0671ef6355ea458c232df3b2f9c11cc3d151bb1c2cd5ae19a21")
    small = montecarlo.estimate_as(_golden_function(2, 0), _golden_point(2), n=3, seed=-1)
    assert small == montecarlo.EstimatorReport(
        (-0.08749999999999998, -0.2684693402873666), (9.813077866773593e-18, 0.0), 3, -1)


def _mask_of(x):
    return sum(1 << j for j, v in enumerate(x) if v != 0.0)


def _drawn_orders(d, n, seed):
    """The sampled orders as lists, drawn chunk by chunk from their streams."""
    return [order for c, start in enumerate(range(0, n, montecarlo._CHUNK))
            for order in seeded_rng(seed, c).permuted(
                np.tile(np.arange(d), (min(montecarlo._CHUNK, n - start), 1)), axis=1).tolist()]


def _prefixes(order):
    mask, masks = 0, []
    for j in order:
        mask |= 1 << j
        masks.append(mask)
    return masks


def _refused(mask):
    # 13 of the 4096 masks of d = 12
    return bin(mask).count("1") == 6 and mask % 97 == 0


def _refusing(x):
    mask = _mask_of(x)
    if _refused(mask):
        raise ValueError(f"refused at mask {mask}")
    return float(mask)


@pytest.mark.parametrize("seed, mask", [(0, 485), (1, 485), (2, 1358), (3, 485),
                                        (4, 970), (6, 485), (10, 679), (11, 485)])
def test_first_error_is_at_the_least_failing_prefix_mask(seed, mask):
    reached = {m for order in _drawn_orders(12, 1000, seed) for m in _prefixes(order)}
    assert min(m for m in reached if _refused(m)) == mask
    fn = NativeFunction(_refusing, 12, label="refusing")
    with pytest.raises(ValueError, match=f"^refused at mask {mask}$"):
        montecarlo.estimate_as(fn, (1.0,) * 12, n=1000, seed=seed)


def test_one_evaluation_at_the_origin_and_at_each_distinct_prefix():
    calls = []

    def counted(x):
        calls.append(_mask_of(x))
        return float(calls[-1] % 5)

    fn = NativeFunction(counted, 12, label="counted")
    montecarlo.estimate_delta_star(fn, (1.0,) * 12, n=1000, seed=3)
    assert len(calls) == len(set(calls)) == 3218


def _reference_sample(fn, x, base, n, seed):
    """The distinct prefix masks of the drawn orders, ascending, and the mean
    and standard error of the per-step changes, from a set of those masks."""
    orders = _drawn_orders(fn.d, n, seed)
    prefixes = [_prefixes(order) for order in orders]
    masks = sorted({m for p in prefixes for m in p})
    value = dict(zip(masks, fn.evaluate_table([x], masks)[0].tolist()))
    samples = np.empty((n, fn.d))
    np.put_along_axis(samples, np.array(orders), np.diff(
        [[value[m] for m in p] for p in prefixes], axis=1, prepend=base), axis=1)
    return masks, samples.mean(axis=0), samples.std(axis=0, ddof=1) / math.sqrt(n)


@pytest.mark.parametrize("d, n", [(2, 2000), (3, 2000), (12, 70_000), (40, 2000), (63, 2000),
                                  (40, 2), (40, 255), (40, 256), (40, 257)])
def test_each_distinct_prefix_is_evaluated_once_in_chunk_order(monkeypatch, d, n):
    # the streams draw the orders chunk by chunk; the masks go ascending, in one call
    fn, x = _golden_function(d, 1.25), as_point(_golden_point(d))
    want_masks, want_mean, want_se = _reference_sample(fn, x, 0.5, n, seed=9)
    calls = []
    evaluate = ExpressionFunction.evaluate_table
    monkeypatch.setattr(ExpressionFunction, "evaluate_table", lambda self, points, masks: (
        calls.append(np.array(masks)) or evaluate(self, points, masks)))
    mean, se = montecarlo._sample(fn, x, 0.5, n, seed=9)
    assert len(calls) == 1 and calls[0].tolist() == want_masks
    assert mean.tobytes() == want_mean.tobytes() and se.tobytes() == want_se.tobytes()


def test_a_sampled_estimate_needs_a_few_tables_of_memory():
    # the tracemalloc peak of one estimate at d = 40 and n = 2000, in units of
    # the n * d float64 table (625 KiB): 10.8 with np.unique, np.lexsort and
    # 10,240-mask calls, 9.8 with one argsort and 32,768-mask calls, 11.2 with
    # one argsort and 65,536-mask calls, 8.0 with np.unique and one call of
    # all the masks in ascending order
    fn = ExpressionFunction(SAMPLED_POLYNOMIAL, 40)
    montecarlo.estimate_delta_star(fn, SAMPLED_POINT, n=2000, seed=3)  # fills fn's layout cache
    tracemalloc.start()
    try:
        montecarlo.estimate_delta_star(fn, SAMPLED_POINT, n=2000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.5 * 2000 * 40 * 8


# ---------------------------------------------------------------------------
# Above the exact cap: a product monomial c * prod_{i in T} x_i induces a
# unanimity game, whose Shapley value gives each i in T the term's value over
# |T| and every other coordinate nothing.  A sum of such terms on disjoint
# supports adds those values.

UNANIMITY = {
    40: {(1, 2): 2.0, (5, 9, 13): -1.5, (20, 30, 33, 40): 0.75, (38, 39): 1.25},
    63: {(1, 63): 1.5, (10, 20, 30, 40, 50): -0.5, (7, 62): 2.0, (33, 34, 35): 0.25},
}


def _unanimity_sum(d, origin_value):
    terms = UNANIMITY[d]
    supports = [i for support in terms for i in support]
    assert len(supports) == len(set(supports))  # disjoint, no repeated variable
    text = " + ".join(f"{c}*" + "*".join(f"x{i}" for i in support)
                      for support, c in terms.items())
    x = tuple((-1) ** i * (1 + (i % 4) / 4) for i in range(1, d + 1))
    shares = [0.0] * d
    for support, c in terms.items():
        for i in support:
            shares[i - 1] = c * math.prod(x[j - 1] for j in support) / len(support)
    return ExpressionFunction(f"{text} + {origin_value}", d), x, shares


@pytest.mark.parametrize("d", [40, 63])
@pytest.mark.parametrize("seed", [0, 5])
def test_sampled_estimates_match_unanimity_closed_forms(d, seed):
    for estimator, origin_value in ((montecarlo.estimate_as, 0.0),
                                    (montecarlo.estimate_delta_star, 2.5)):
        fn, x, shares = _unanimity_sum(d, origin_value)
        report = estimator(fn, x, n=2000, seed=seed)
        offset = origin_value / d
        for est, se, share in zip(report.estimate, report.standard_error, shares):
            if share == 0.0:
                assert (est, se) == (offset, 0.0)
            else:
                assert se > 0.0 and abs(est - (share + offset)) <= 4.0 * se
