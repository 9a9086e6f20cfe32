"""Tests of the benchmark itself: its generators are seeded, its reference
checks accept correct reports and count wrong ones as failures (negative
controls), and the tracer's counts and self times add up.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import signal
import time

import numpy as np
import pytest

import calibration
import tracing
import workloads as w
from funcdecomp import cli, expr


def run_op(op: w.Op, tmp_path) -> dict | list[dict]:
    for name, content in op.files.items():
        (tmp_path / name).write_text(content)
    out = tmp_path / "report"
    argv = [a.replace("{out}", str(out)).replace("{dir}", str(tmp_path)) for a in op.argv]
    assert cli.main(argv) == 0
    return w.read_report(str(out), jsonl=op.argv[0] == "axioms")


def test_generators_depend_only_on_the_seed():
    for make in (w.exact_op, w.sampled_op, w.axioms_op):
        a = make(np.random.default_rng([3, 1]))
        b = make(np.random.default_rng([3, 1]))
        c = make(np.random.default_rng([4, 1]))
        assert a.argv == b.argv and a.expected == b.expected
        assert a.argv != c.argv
    game = w.game_op(np.random.default_rng(3), d=6)
    assert game.files == w.game_op(np.random.default_rng(3), d=6).files


def test_polynomial_terms_are_unit_at_the_point_and_origin_is_nonzero():
    poly = w.sparse_polynomial(np.random.default_rng(0), 16, disjoint=False)
    assert all(abs(abs(t) - 1.0) < 1e-12 for t in poly.term_values)
    fn = expr.ExpressionFunction(poly.text, 16)
    assert fn((0.0,) * 16) == poly.const != 0.0
    assert fn(poly.point) == pytest.approx(poly.total, rel=1e-12)


def test_exact_check_rejects_a_perturbed_contribution(tmp_path):
    op = w.exact_op(np.random.default_rng(5), d=6)
    report = run_op(op, tmp_path)
    assert w.check_exact(report, op.expected) is None
    report["rows"][0]["contributions"][2] *= 1 + 1e-6
    assert w.check_exact(report, op.expected) is not None


def test_sampled_check_rejects_a_perturbed_contribution(tmp_path):
    op = w.sampled_op(np.random.default_rng(5), d=26, samples=200)
    report = run_op(op, tmp_path)
    assert w.check_sampled(report, op.expected) is None
    row = report["rows"][0]
    i = int(np.argmax(row["standard_error"]))
    row["contributions"][i] += 6 * row["standard_error"][i]
    assert w.check_sampled(report, op.expected) is not None


def test_sampled_check_rejects_contributions_that_miss_the_total(tmp_path):
    op = w.sampled_op(np.random.default_rng(6), d=26, samples=200)
    report = run_op(op, tmp_path)
    row = report["rows"][0]
    i = int(np.argmax(row["standard_error"]))
    row["contributions"][i] += 1e-6  # well within 5 SE: only the sum check sees it
    assert w.check_sampled(report, op.expected) is not None


def test_game_check_rejects_a_flipped_dividend(tmp_path):
    rng = np.random.default_rng(7)
    game = w.dividend_game(rng, d=6)
    op = w.game_op(np.random.default_rng(7), d=6)
    assert w.check_game(run_op(op, tmp_path), op.expected) is None
    flipped = w.DividendGame(game.d, game.supports, (-game.dividends[0],) + game.dividends[1:])
    op.files["game.json"] = flipped.to_json()
    assert w.check_game(run_op(op, tmp_path), op.expected) is not None


def test_axioms_check_rejects_a_fail_verdict_and_a_missing_axiom():
    lines = [{"axiom": a, "status": "pass", "function": "f"} for a in w.AXIOMS]
    assert w.check_axioms(lines, {}) is None
    assert w.check_axioms(lines[:-1], {}) is not None
    lines[0] = dict(lines[0], status="fail")
    assert w.check_axioms(lines, {}) is not None


def test_tracer_counts_evaluations_and_self_times_add_up(tmp_path):
    call_before = expr.FunctionHandle.__call__
    op = w.exact_op(np.random.default_rng(1), d=6)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_op(op, tmp_path)
    finally:
        tracer.uninstall()
    assert expr.FunctionHandle.__call__ is call_before
    summary = tracing.summarize(tracer.spans, 0, len(tracer.spans))
    assert summary["calls"]["expr.eval"] == 2**6
    assert summary["calls"]["decomp"] == 1 and summary["calls"]["cli"] == 1
    assert all(v >= 0.0 for v in summary["self_s"].values())
    _, start, end, _ = tracer.spans[0]
    assert sum(summary["self_s"].values()) == pytest.approx(end - start, rel=1e-9)


def test_speed_sampler_slices_during_the_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = calibration.SpeedSampler()
    sampler.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 3.5 * calibration.INTERVAL_S:
        pass
    end = time.perf_counter()
    sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    during = [s for t, s in sampler.slices if start < t <= end]
    assert len(during) >= 2
    assert len(sampler.slices) == len(during) + 2 * calibration.EDGE_SLICES
    assert sampler.inside(start, end) == pytest.approx(sum(during))
    assert sampler.mean() > 0.0


def test_report_files_are_json():
    # The reference checks read what the CLI writes with -o; keep the
    # game JSON writer compatible with json.loads.
    text = w.DividendGame(3, ((0,), (1, 2)), (1.5, -2.0)).to_json()
    data = json.loads(text)
    assert data["values"]["2,3"] == -2.0 and data["values"]["1,2,3"] == -0.5
