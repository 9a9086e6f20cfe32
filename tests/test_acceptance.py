"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s`` to see them) and enforcing its
stated tolerance and runtime budget."""

import json
import time

import numpy as np

from funcdecomp import cli, decomp, montecarlo
from funcdecomp.axioms import (
    DELTA_STAR,
    FAIL,
    FIRST_COORDINATE,
    PARTIAL,
    PASS,
    SEQUENTIAL_FIXED,
    SuiteConfig,
    example1_function,
    max_monomial,
    run_axiom_suite,
)
from funcdecomp.expr import ExpressionFunction
from funcdecomp.game import Game, game_from_binary_function, shapley, shapley_permutation_oracle

from game_axioms import check_shapley_axioms, perturbed_shapley
from oracles import close
from polynomials import random_polynomial


def report(num, description, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"[PASS] criterion {num:2d}: {description} ({elapsed:.2f}s < {budget:g}s)")


def seeded_rng(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0xACC], dtype=np.uint64)))


def random_points(d, n, seed, low=-2.0, high=2.0):
    rng = seeded_rng(seed)
    return [tuple(map(float, row)) for row in rng.uniform(low, high, size=(n, d))]


def polynomial_corpus():
    """50 seeded polynomials, degree <= 4, dimensions cycling 1..8, with 20
    evaluation points each."""
    corpus = []
    for k in range(50):
        d = (k % 8) + 1
        fn = random_polynomial(d, seed=4000 + k)
        corpus.append((fn, random_points(d, 20, seed=5000 + k)))
    return corpus


def test_criterion_01_two_factor_gain_regression():
    started = time.perf_counter()
    rng = seeded_rng(1)
    for _ in range(100):
        s0, c0, x1, x2 = (float(v) for v in rng.uniform(-10, 10, size=4))
        fn = example1_function(s0, c0)
        got = decomp.delta_star(fn, (x1, x2)).contributions
        expected = (x1 * x2 / 2 + x1 * c0, x1 * x2 / 2 + x2 * s0)
        for g, e in zip(got, expected):
            assert close(g, e, rel=1e-10, abs_=1e-10), (s0, c0, x1, x2, got, expected)
    report(1, "closed-form two-factor regression (100 seeded cases, 1e-10)", started, 1.0)


def test_criterion_02_order_average_equals_subset_form():
    started = time.perf_counter()
    for fn, points in polynomial_corpus():
        for x in points:
            a = decomp.as_permutation(fn, x).contributions
            b = decomp.as_subset(fn, x).contributions
            for u, v in zip(a, b):
                assert close(u, v, rel=1e-10, abs_=1e-10), (fn.label, x, a, b)
    report(2, "order-average == subset form (50 polynomials, d<=8, 1e-10)", started, 30.0)


def test_criterion_03_per_point_game_equals_subset_form():
    started = time.perf_counter()
    for fn, points in polynomial_corpus():
        for x in points:
            a = decomp.pointwise_shapley(fn, x).contributions
            b = decomp.as_subset(fn, x).contributions
            for u, v in zip(a, b):
                assert close(u, v, rel=1e-12, abs_=1e-12), (fn.label, x)
        ones = (1.0,) * fn.d
        shares = shapley(game_from_binary_function(fn)).shares
        for method in (decomp.pointwise_shapley, decomp.as_subset):
            got = method(fn, ones).contributions
            for u, v in zip(got, shares):
                assert close(u, v, rel=1e-12, abs_=1e-12), (fn.label, method)
    report(3, "per-point game == subset form; ones point matches the game value "
              "(1e-12)", started, 30.0)


def test_criterion_04_allocation_formula_vs_order_enumeration():
    started = time.perf_counter()
    for d in range(1, 9):
        rng = seeded_rng(600 + d)
        for _ in range(100):
            values = rng.uniform(-5, 5, size=1 << d)
            values[0] = 0.0
            game = Game(d, tuple(float(v) for v in values))
            fast = shapley(game)
            slow = shapley_permutation_oracle(game)
            for u, v in zip(fast.shares, slow.shares):
                assert close(u, v, rel=1e-12, abs_=1e-12)
            assert close(fast.total, game.grand_value, rel=1e-12, abs_=1e-12)
    report(4, "allocation formula == full order enumeration, efficiency "
              "(800 games, 1e-12)", started, 20.0)


def test_criterion_05_one_sided_power_products():
    started = time.perf_counter()
    rng = seeded_rng(55)
    for k in range(50):
        d = 2 + (k % 5)
        # binary exponents: the exponent-weighted split is exact here
        q = [int(v) for v in rng.integers(0, 2, size=d)]
        if not any(q):
            q[rng.integers(0, d)] = 1
        s = [int(v) for v in rng.choice((-1, 1), size=d)]
        fn = max_monomial(q, s)
        x = tuple(
            si * float(rng.uniform(0.3, 1.9)) if qi else float(rng.uniform(-2, 2))
            for qi, si in zip(q, s)
        )
        total = fn(x)
        norm = sum(q)
        got = decomp.as_subset(fn, x).contributions
        for g, qi in zip(got, q):
            assert close(g, qi / norm * total, rel=1e-10, abs_=1e-10), (q, s, x)

        # higher exponents only rescale coordinates: still an even split
        # over the active coordinates
        q_hi = [qi * int(rng.integers(1, 4)) for qi in q]
        fn_hi = max_monomial(q_hi, s)
        total_hi = fn_hi(x)
        support = sum(1 for qi in q_hi if qi)
        got_hi = decomp.as_subset(fn_hi, x).contributions
        for g, qi in zip(got_hi, q_hi):
            assert close(g, (1.0 / support if qi else 0.0) * total_hi,
                         rel=1e-10, abs_=1e-10), (q_hi, s, x)

        # zeroing an active coordinate kills every contribution
        j = next(i for i, qi in enumerate(q) if qi)
        x0 = tuple(0.0 if i == j else c for i, c in enumerate(x))
        assert all(abs(g) <= 1e-12 for g in decomp.as_subset(fn, x0).contributions)
    report(5, "one-sided power products: weighted split and zero set "
              "(50 seeded cases, 1e-10/1e-12)", started, 10.0)


def test_criterion_06_constant_split_exact():
    started = time.perf_counter()
    for d in range(1, 11):
        for c in (-3.0, 0.0, 7.0):
            fn = ExpressionFunction(repr(c), d)
            got = decomp.delta_star(fn, (0.25,) * d).contributions
            for g in got:
                assert abs(g - c / d) <= 1e-15, (d, c, got)
    report(6, "constant functions split exactly evenly (d<=10, 1e-15)", started, 5.0)


def test_criterion_07_axiom_suite():
    started = time.perf_counter()
    records = run_axiom_suite(DELTA_STAR, SuiteConfig())
    strict = [r for r in records if r.axiom in {"A1", "A2", "A3", "A4", "A5", "A6", "A9"}]
    assert strict, "suite produced no strict-axiom records"
    for r in strict:
        assert r.verdict.status == PASS, (r.axiom, r.function, r.verdict)
    limits = [r for r in records if r.axiom in {"A7", "A8"}]
    assert limits
    for r in limits:
        assert r.verdict.status == PARTIAL, (r.axiom, r.verdict)
        devs = [w[1] for w in r.verdict.witnesses]
        assert devs == sorted(devs, reverse=True), (r.axiom, devs)
        assert devs[-1] < devs[0] or devs[0] == 0.0

    control_config = SuiteConfig(d=3, n_functions=8, n_points=15, n_permutations=4,
                                 seed=77)
    for principle in (SEQUENTIAL_FIXED, FIRST_COORDINATE):
        controls = run_axiom_suite(principle, control_config)
        a2_failures = [r for r in controls
                       if r.axiom == "A2" and r.verdict.status == FAIL]
        assert a2_failures, principle.name
        assert all(r.verdict.witnesses for r in a2_failures)
    report(7, "delta-star passes A1-A6+A9, A7/A8 partial with decaying deviations; "
              "negative controls fail A2", started, 120.0)


def test_criterion_08_game_axioms():
    started = time.perf_counter()
    for k in range(50):
        d = 1 + (k % 5)
        rng = seeded_rng(800 + k)
        def game_of(salt):
            values = rng.uniform(-4, 4, size=1 << d)
            values[0] = 0.0
            return Game(d, tuple(float(v) for v in values))
        verdicts = check_shapley_axioms(game_of(0), game_of(1), seed=k)
        assert {v.axiom for v in verdicts} == {"S1", "S2", "S3", "T1", "T2", "T3", "T4"}
        for v in verdicts:
            assert v.status == PASS, (k, d, v)
    rng = seeded_rng(888)
    values = rng.uniform(-4, 4, size=16)
    values[0] = 0.0
    bad = check_shapley_axioms(Game(4, tuple(float(v) for v in values)),
                               Game(4, (0.0,) * 16), allocator=perturbed_shapley)
    s2 = next(v for v in bad if v.axiom == "S2")
    assert s2.status == FAIL
    report(8, "S1-S3 and transported T1-T4 pass on 50 games (d<=5); perturbed "
              "weights fail S2", started, 30.0)


def test_criterion_09_sampling_calibration_and_reproducibility(capsys):
    started = time.perf_counter()
    d, n, runs = 8, 2000, 200
    text = " + ".join(f"x{i + 1}*x{i % d + 2}" for i in range(d - 1)) + " + x8*x1 + 0.5*x1*x4*x7"
    fn = ExpressionFunction(text, d)
    x = tuple(float(v) for v in seeded_rng(9).uniform(-1.5, 1.5, size=d))
    exact = decomp.as_subset(fn, x).contributions

    covered = [0] * d
    for seed in range(runs):
        rep = montecarlo.estimate_as(fn, x, n=n, seed=seed)
        for j in range(d):
            if abs(exact[j] - rep.estimate[j]) <= 4.0 * rep.standard_error[j]:
                covered[j] += 1
    for j in range(d):
        assert covered[j] >= int(0.95 * runs), (j, covered)

    argv = ["decompose", "-d", str(d), "-f", text, "--point=" + ",".join(map(repr, x)),
            "--method", "mc", "--samples", str(n), "--seed", "123", "--format", "json"]
    lone, multi = [(cli.main([*argv, "--workers", workers]), capsys.readouterr())
                   for workers in ("1", "4")]
    assert lone == multi and lone[0] == 0
    report(9, f"sampling estimator: exact value inside 4 SE in >=95% of {runs} runs; "
              "bitwise identical across worker counts", started, 120.0)


def test_criterion_10_cli_round_trip_and_exit_codes(capsys, tmp_path):
    started = time.perf_counter()

    def run(*argv):
        code = cli.main(list(argv))
        cap = capsys.readouterr()
        return code, cap.out, cap.err

    # expression mode and masked-table mode agree byte for byte
    for d in (2, 4, 6):
        fn = random_polynomial(d, seed=1200 + d, allow_constant=True)
        x = ",".join(f"{v:.6f}" for v in seeded_rng(d).uniform(-2, 2, size=d))
        table = tmp_path / f"table{d}.csv"
        code, direct, _ = run("decompose", "-d", str(d), "-f", fn.label, f"-x={x}",
                              "--dump-table", str(table), "--format", "csv")
        assert code == 0
        code, relayed, _ = run("decompose", "-d", str(d), "--table-csv", str(table),
                               f"-x={x}", "--format", "csv")
        assert code == 0
        assert direct == relayed, f"round trip drifted at d={d}"

    # documented exit codes, one per error class
    code, _, err = run("decompose", "-d", "2", "-f", "x1 +* x2", "-x", "1,1")
    assert code == 2 and "position" in err
    bad_table = tmp_path / "incomplete.csv"
    bad_table.write_text("mask,value\n,0.0\n1,1.0\n")
    code, _, _ = run("decompose", "-d", "2", "--table-csv", str(bad_table), "-x", "1,1")
    assert code == 3
    code, _, err = run("decompose", "-d", "2", "-f", "x1 + 1", "-x", "1,1",
                       "--method", "as")
    assert code == 4 and "delta-star" in err
    game_path = tmp_path / "gap.json"
    game_path.write_text(json.dumps({"d": 2, "values": {"1": 1.0, "2": 2.0}}))
    code, _, _ = run("shapley", str(game_path))
    assert code == 3
    game_path.write_text(json.dumps({"d": 1, "values": {"": 0.25, "1": 1.0}}))
    code, _, _ = run("shapley", str(game_path))
    assert code == 4
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"d": 2, "families": []}))
    code, _, err = run("axioms", str(empty))
    assert code == 2 and "no functions" in err

    report(10, "CLI expression/table round trip bitwise (d<=6); exit codes 2/3/4 "
               "verified per error class", started, 30.0)
