import functools
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from funcdecomp import core, decomp, expr
from funcdecomp.axioms import (DELTA_STAR, SuiteConfig, check_A2_permutations, default_corpus,
                               sample_points)
from funcdecomp.core import DimensionMismatchError, permutation_from_ranks

from oracles import close
from polynomials import SAMPLED_POINT, SAMPLED_POLYNOMIAL

D2 = lambda text: expr.ExpressionFunction(text, 2)  # noqa: E731


def format_expression(node):
    """Render a tree back to source text (fully parenthesized)."""
    if isinstance(node, expr.Num):
        return repr(node.value)
    if isinstance(node, expr.Var):
        return f"x{node.index + 1}"
    if isinstance(node, expr.Neg):
        return f"(-{format_expression(node.operand)})"
    if isinstance(node, expr.Bin):
        return f"({format_expression(node.left)} {node.op} {format_expression(node.right)})"
    return f"{node.name}({', '.join(format_expression(a) for a in node.args)})"


def points(d, n=100, seed=0, low=-5.0, high=5.0):
    rng = np.random.default_rng(seed)
    return [tuple(map(float, row)) for row in rng.uniform(low, high, size=(n, d))]


# ---------------------------------------------------------------------------
# Parsing


def test_parse_grammar_example():
    fn = D2("(x1+2)*(x2+3) - 6")
    assert fn((1.0, 1.0)) == 6.0


def test_parse_one_sided_power_family():
    fn = D2("max(x1,0)^2 * max(-x2,0)")
    assert fn((2.0, -3.0)) == 12.0
    assert fn((2.0, 3.0)) == 0.0


def test_parse_rejects_out_of_range_variable():
    with pytest.raises(expr.ParseError) as err:
        expr.parse("x3", 2)
    assert err.value.position == 0


def test_parse_reports_positions():
    with pytest.raises(expr.ParseError) as err:
        expr.parse("x1 + @", 2)
    assert err.value.position == 5
    with pytest.raises(expr.ParseError):
        expr.parse("max(x1)", 2)  # wrong arity
    with pytest.raises(expr.ParseError):
        expr.parse("foo(x1)", 2)
    with pytest.raises(expr.ParseError):
        expr.parse("x1 +", 2)
    with pytest.raises(expr.ParseError):
        expr.parse("(x1", 2)
    with pytest.raises(expr.ParseError):
        expr.parse("x1 x2", 2)


def test_parse_reports_nesting_too_deep_for_the_parser():
    for text in ("(" * 300 + "x1" + ")" * 300, "-" * 1500 + "x1", "^".join(["x1"] * 1200)):
        with pytest.raises(expr.ParseError, match="expression nested too deeply"):
            expr.parse(text, 1)
    assert D2("(" * 50 + "x1" + ")" * 50)((3.0, 0.0)) == 3.0


def test_number_forms():
    fn = D2("1.5e2 + .25 + 2e-1")
    assert fn((0.0, 0.0)) == 150.45


def test_power_binds_tighter_than_unary_minus():
    assert D2("-x1^2")((2.0, 0.0)) == -4.0
    assert D2("(-x1)^2")((2.0, 0.0)) == 4.0
    assert D2("2^-1")((0.0, 0.0)) == 0.5


def test_power_is_right_associative():
    assert D2("2^3^2")((0.0, 0.0)) == 512.0


def test_left_associative_subtraction_and_division():
    assert D2("8 - 3 - 2")((0.0, 0.0)) == 3.0
    assert D2("8 / 2 / 2")((0.0, 0.0)) == 2.0


# ---------------------------------------------------------------------------
# Evaluation conventions


def test_relu_of_negative_is_zero():
    assert D2("max(x1,0)^2")((-3.0, 7.0)) == 0.0
    assert D2("relu(x1)")((-3.0, 7.0)) == 0.0


def test_zero_to_the_zero_is_one():
    assert D2("max(x1,0)^0 * max(x2,0)^1")((0.0, 5.0)) == 5.0
    assert D2("x1^0")((0.0, 0.0)) == 1.0


def test_sign_of_zero_is_zero():
    fn = D2("sign(x1)")
    assert fn((0.0, 0.0)) == 0.0
    assert fn((-2.0, 0.0)) == -1.0
    assert fn((2.0, 0.0)) == 1.0


def test_domain_errors():
    with pytest.raises(expr.EvaluationError):
        D2("ln(x1)")((-1.0, 0.0))
    with pytest.raises(expr.EvaluationError):
        D2("1 / x1")((0.0, 0.0))
    with pytest.raises(expr.EvaluationError):
        D2("x1 ^ 0.5")((-2.0, 0.0))
    with pytest.raises(expr.EvaluationError):
        D2("exp(x1)")((1e9, 0.0))


def test_evaluate_rejects_bad_points():
    fn = D2("x1")
    with pytest.raises(Exception):
        fn((1.0,))
    with pytest.raises(Exception):
        fn((math.nan, 1.0))


# ---------------------------------------------------------------------------
# Parse/print round trip

_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=9.0).map(lambda v: expr.Num(round(v, 3))),
    st.integers(0, 1).map(expr.Var),
)


def _branch(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*"), children, children).map(lambda t: expr.Bin(*t)),
        children.map(expr.Neg),
        st.tuples(children, children).map(lambda t: expr.Call("max", t)),
        st.tuples(children, children).map(lambda t: expr.Call("min", t)),
        children.map(lambda a: expr.Call("abs", (a,))),
        children.map(lambda a: expr.Call("relu", (a,))),
    )


_trees = st.recursive(_leaf, _branch, max_leaves=12)


@given(_trees)
@settings(max_examples=200, deadline=None)
def test_parse_print_round_trip(tree):
    assert expr.ExpressionFunction(format_expression(tree), 2).tree == tree


def test_round_trip_on_paper_style_expressions():
    for text in ["(x1+2)*(x2+3) - 6", "max(x1,0)^2 * max(-x2,0)", "sign(x1) * abs(x2)^1.5"]:
        fn = D2(text)
        printed = format_expression(fn.tree)
        again = D2(printed)
        for x in points(2, n=100, seed=1):
            assert fn(x) == again(x)


# ---------------------------------------------------------------------------
# Compositions


def test_compose_permutation_substitutes():
    fn = D2("x1 - 2*x2")
    swapped = expr.compose_permutation(fn, permutation_from_ranks((2, 1)))
    assert swapped((5.0, 3.0)) == -7.0
    with pytest.raises(DimensionMismatchError, match="not a permutation"):
        expr.compose_permutation(fn, (0, 0))


def test_compose_permutation_identity_and_inverse():
    fn = D2("x1^2 - x2")
    ident = expr.compose_permutation(fn, (0, 1))
    perm = (1, 0)
    twice = expr.compose_permutation(expr.compose_permutation(fn, perm), perm)
    for x in points(2):
        assert ident(x) == fn(x)
        assert twice(x) == fn(x)


def test_compose_permutation_composition_law():
    fn = expr.ExpressionFunction("x1 + 2*x2 + 4*x3", 3)
    p, q = (1, 2, 0), (2, 0, 1)
    nested = expr.compose_permutation(expr.compose_permutation(fn, p), q)
    direct = expr.compose_permutation(fn, tuple(p[q[i]] for i in range(3)))
    for x in points(3, n=50, seed=2):
        assert nested(x) == direct(x)


def test_compose_coordinate_maps_scaling():
    fn = D2("x1*x2")
    scaled = expr.compose_coordinate_maps(fn, [expr.ScaleMap(2.0), expr.ScaleMap(3.0)])
    assert scaled((1.0, 1.0)) == 6.0


def test_compose_coordinate_maps_identity_and_inverse_pair():
    fn = D2("x1^2 + x2")
    same = expr.compose_coordinate_maps(fn, [expr.ScaleMap(1.0), expr.ScaleMap(1.0)])
    cubed = expr.compose_coordinate_maps(fn, [expr.OddPowerMap(3.0), expr.ScaleMap(1.0)])
    back = expr.compose_coordinate_maps(cubed, [expr.OddPowerMap(1.0 / 3.0), expr.ScaleMap(1.0)])
    for x in points(2, n=100, seed=4):
        assert same(x) == fn(x)
        assert close(back(x), fn(x), rel=1e-9, abs_=1e-9)


def test_linear_combine_cases():
    f, g = D2("x1*x2"), D2("x1")
    both = expr.linear_combine([(1.0, f), (1.0, g)])
    zero = expr.linear_combine([(0.0, f)])
    cancel = expr.linear_combine([(-1.0, f), (1.0, f)])
    for x in points(2, n=20, seed=5):
        assert both(x) == f(x) + g(x)
        assert zero(x) == 0.0
        assert cancel(x) == 0.0
    with pytest.raises(Exception):
        expr.linear_combine([(1.0, f), (1.0, expr.ExpressionFunction("x1", 3))])
    # summed exactly: left to right, 1e16 + 1.0 - 1e16 would round to 0.0
    exact = expr.linear_combine([(1.0, expr.ExpressionFunction(f"x{i}", 3)) for i in (1, 2, 3)])
    assert exact.evaluate_table([(1e16, 1.0, -1e16)], [7, 5])[0].tolist() == [1.0, 0.0]


# ---------------------------------------------------------------------------
# Coordinate map catalog


def test_coordinate_map_construction_guards():
    with pytest.raises(ValueError):
        expr.ScaleMap(0.0)
    with pytest.raises(ValueError):
        expr.OddPowerMap(-1.0)
    with pytest.raises(ValueError):
        expr.OddPowerMap(0.0)
    with pytest.raises(ValueError):
        expr.PiecewiseLinearMap([(-1.0, -1.0), (1.0, 1.0)])  # no (0, 0) knot
    with pytest.raises(ValueError):
        expr.PiecewiseLinearMap([(0.0, 0.0), (1.0, -1.0)])  # not increasing


def test_coordinate_maps_fix_zero_exactly():
    maps = [
        expr.ScaleMap(-2.5),
        expr.OddPowerMap(3.0),
        expr.OddPowerMap(0.5),
        expr.PiecewiseLinearMap([(-1.0, -3.0), (0.0, 0.0), (2.0, 1.0)]),
    ]
    for h in maps:
        assert h(0.0) == 0.0


def test_odd_power_map_is_odd():
    h = expr.OddPowerMap(3.0)
    assert h(2.0) == 8.0
    assert h(-2.0) == -8.0


def test_piecewise_linear_interpolation_and_extrapolation():
    h = expr.PiecewiseLinearMap([(-1.0, -2.0), (0.0, 0.0), (1.0, 0.5), (2.0, 3.0)])
    assert h(-1.0) == -2.0
    assert h(0.5) == 0.25
    assert h(1.5) == 0.5 + 2.5 * 0.5
    assert h(-2.0) == -4.0  # left end slope 2
    assert h(3.0) == 3.0 + 2.5  # right end slope 2.5


# ---------------------------------------------------------------------------
# Handles


def test_table_function_covers_declared_points_only():
    fn = expr.TableFunction(2, [((0.0, 0.0), 0.0), ((1.0, 2.0), 5.0)])
    assert fn((1.0, 2.0)) == 5.0
    with pytest.raises(expr.EvaluationError):
        fn((9.0, 9.0))


def test_table_function_rejects_conflicts():
    with pytest.raises(expr.EvaluationError):
        expr.TableFunction(1, [((0.0,), 0.0), ((0.0,), 1.0)])


def test_native_function_checks_finiteness():
    bad = expr.NativeFunction(lambda x: math.inf, 1)
    with pytest.raises(expr.EvaluationError):
        bad((1.0,))


def test_max_monomial_matches_direct_loop():
    from funcdecomp.axioms import max_monomial

    rng = np.random.default_rng(9)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        q = [int(v) for v in rng.integers(0, 4, size=d)]
        if not any(q):
            q[0] = 1
        s = [int(v) for v in rng.choice((-1, 1), size=d)]
        fn = max_monomial(q, s)
        for x in points(d, n=10, seed=int(rng.integers(0, 1 << 30))):
            direct = 1.0
            for qi, si, xi in zip(q, s, x):
                direct *= max(si * xi, 0.0) ** qi if qi else 1.0
            assert close(fn(x), direct, rel=1e-12, abs_=1e-12)


# ---------------------------------------------------------------------------
# Batched evaluation over projected points against the scalar path

_EXPONENTS = (0.0, 0.5, 1.5, 2.0, 3.0, -0.5, -1.0, -2.0)

_batch_leaf = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5, 800.0]).map(expr.Num),
    st.integers(0, 2).map(expr.Var),
)


def _cancelling(t):
    """Zero in exact arithmetic, but the two sides round differently, so the
    scalar result is a tiny value or 0.0 depending on the point."""
    return st.sampled_from([
        expr.Bin("-", expr.Bin("^", t, expr.Num(3.0)), expr.Bin("*", expr.Bin("*", t, t), t)),
        expr.Bin("-", expr.Call("exp", (t,)), expr.Bin("^", expr.Num(math.e), t)),
        expr.Bin("-", expr.Call("ln", (expr.Call("exp", (t,)),)), t),
    ])


def _batch_branch(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/^"), children, children).map(lambda t: expr.Bin(*t)),
        st.tuples(children, st.sampled_from(_EXPONENTS)).map(
            lambda t: expr.Bin("^", t[0], expr.Num(t[1]))),
        children.map(expr.Neg),
        st.tuples(st.sampled_from(["max", "min"]), children, children).map(
            lambda t: expr.Call(t[0], t[1:])),
        st.tuples(st.sampled_from(["abs", "sign", "exp", "ln", "relu"]), children).map(
            lambda t: expr.Call(t[0], (t[1],))),
        children.flatmap(_cancelling),
    )


_batch_trees = st.recursive(_batch_leaf, _batch_branch, max_leaves=10)
_coordinates = st.one_of(st.just(0.0), st.just(-0.0),
                         st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False))


def _scalar_table(fn, x, masks):
    """Scalar values in mask order, and the type and message of the first
    error."""
    values = []
    for m in masks:
        try:
            values.append(fn(core.project(x, m)))
        except (ValueError, ArithmeticError) as exc:
            return values, f"{type(exc).__name__}: {exc}"
    return values, None


def _raises(fn, x, masks):
    try:
        fn.evaluate_table([x], masks)[0]
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _check_block(fn, anchors, masks):
    """The scalar values at the block's (point, mask) pairs, point by point,
    NaN where the scalar path raises, and the first error of a table of
    them (None if there is none).

    Asserts the block rule on the block itself, with no scalar re-run to
    hide a wrong value: it is bit-equal to those values or NaN throughout;
    NaN throughout if some pair raises; and bit-equal if none does and the
    masks are an aligned run ``m0 .. m0 + 2^k - 1``, ``m0`` a multiple of
    ``2^k``, whose masks read every point the block computes.  Bit-equal
    counts every non-finite value as NaN: ``evaluate_table`` re-runs those,
    so the sign of a NaN is not kept.
    """
    want, first, raises = [], None, False
    for x in anchors:
        for m in masks:
            point = core.project(x, m)
            try:
                want.append(fn._evaluate(point))
            except expr.EvaluationError:
                want.append(math.nan)
                raises = True
            try:
                fn._finite_at(point)  # raises where the value is not finite, too
            except expr.EvaluationError as exc:
                first = first or f"EvaluationError: {exc}"
    masks = list(masks)
    with np.errstate(all="ignore"):
        block = fn._evaluate_block(np.array(anchors), (0.0,) * fn.d,
                                   core.validate_masks(masks, fn.d))
    clean = _as_nan(block) == _as_nan(np.array(want))
    assert clean or np.isnan(block).all()
    if raises:
        assert np.isnan(block).all()
    n = len(masks)
    if not raises and n & (n - 1) == 0 and masks == list(range(masks[0], masks[0] + n)) \
            and masks[0] % n == 0:
        assert clean
    return want, first


def _as_nan(values):
    """The bytes of the values with every non-finite one made NaN."""
    return np.where(np.isfinite(values), values, math.nan).tobytes()


def _record_blocks(monkeypatch):
    """A list that gets True for each expression block that is clean and
    False for each that is not, from now on."""
    clean = []

    def recorded(program, cols, join, run=expr._run_block):
        try:
            entry = run(program, cols, join)
        except expr._Unclean:
            clean.append(False)
            raise
        clean.append(True)
        return entry

    monkeypatch.setattr(expr, "_run_block", recorded)
    return clean


@given(_batch_trees, st.tuples(_coordinates, _coordinates, _coordinates),
       st.lists(st.integers(0, 7), min_size=1, max_size=12).map(sorted))
@settings(max_examples=600, deadline=None, derandomize=True)
def test_batched_evaluation_matches_scalar_path(tree, x, masks):
    fn = expr.ExpressionFunction(format_expression(tree), 3)
    values, error = _scalar_table(fn, x, masks)
    assert error is None or error.startswith("EvaluationError: ")
    repeated = masks * 65  # a longer block, whose masks repeat
    if error is not None:
        first = len(values)  # the mask the scalar path failed on
        assert _raises(fn, x, masks) == error
        assert _raises(fn, x, masks[:first + 1]) == error
        assert _raises(fn, x, masks[:first]) is None
        assert _raises(fn, x, repeated) == error
        return
    assert fn.evaluate_table([x], masks)[0].tobytes() == np.array(values).tobytes()
    assert fn.evaluate_table([x], repeated)[0].tobytes() == np.array(values * 65).tobytes()


# Runs of 2^7 or 2^8 masks at d = 9: x8 and x9 lie beyond the cube axes of
# a 2^7 run and x9 beyond those of a 2^8 run; x3 to x6 are left out, so
# some cube axes carry no variable.
_cube_trees = st.recursive(
    st.one_of(st.sampled_from([0.0, 0.5, 2.0, 800.0]).map(expr.Num),
              st.sampled_from([0, 1, 6, 7, 8]).map(expr.Var)),
    _batch_branch, max_leaves=8)
_cube_coordinates = st.one_of(st.just(-0.0), st.floats(-6.0, -0.1), st.floats(0.1, 6.0))


@st.composite
def _mask_runs(draw):
    """An aligned run of masks, the same run shifted by one, or reversed."""
    n = 1 << draw(st.sampled_from([7, 8]))
    m0 = n * draw(st.integers(0, 512 // n - 1))
    run = range(m0, m0 + n)
    return draw(st.sampled_from([run, range(m0 + 1, m0 + n + 1) if m0 + n < 512
                                 else range(m0 - 1, m0 + n - 1), run[::-1]]))


@given(_cube_trees, st.lists(st.tuples(*[_cube_coordinates] * 9), min_size=1, max_size=3),
       _mask_runs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_aligned_and_unaligned_blocks_match_the_scalar_path(tree, anchors, masks):
    fn = expr.ExpressionFunction(format_expression(tree), 9)
    values, error = [], None
    for x in anchors:  # point by point, mask by mask
        row, error = _scalar_table(fn, x, masks)
        values += row
        if error is not None:
            break
    if error is not None:
        assert error.startswith("EvaluationError: ")
        assert _table_raises(fn, anchors, masks) == error
    else:
        assert fn.evaluate_table(anchors, masks).tobytes() == np.array(values).tobytes()
    # the block itself, not the scalar re-run evaluate_table falls back on
    _check_block(fn, anchors, masks)


def _wide_trees(d):
    """Sums and products of 3 to 7 small trees over variables anywhere in
    1..d, with powers of one variable to another, and a guarded division
    whose divisor reads one variable under a product of others."""
    def branch(children):
        return st.one_of(_batch_branch(children), st.tuples(children, st.integers(0, d - 1)).map(
            lambda t: expr.Bin("/", expr.Bin("*", t[0], expr.Var(t[1])),
                               expr.Bin("-", expr.Var(t[1]), expr.Num(0.5)))))

    variables = st.integers(0, d - 1).map(expr.Var)
    powers = st.tuples(variables, variables).map(lambda t: expr.Bin("^", *t))
    parts = st.recursive(st.one_of(variables, variables, powers, st.sampled_from(
        [0.5, 2.0, 3.0]).map(expr.Num)), branch, max_leaves=5)
    return st.tuples(st.lists(parts, min_size=3, max_size=7),
                     st.lists(st.sampled_from("+-*"), min_size=6, max_size=6)).map(
        lambda t: functools.reduce(lambda tree, step: expr.Bin(step[1], tree, step[0]),
                                   zip(t[0][1:], t[1]), t[0][0]))


@st.composite
def _wide_masks(draw, d):
    """2 to 48 masks in no order, with repeats, whose bits outside a drawn
    set are those of one base mask; or an aligned run with high bits set."""
    if draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(1, 5))
        m0 = draw(st.integers(0, (1 << d - k) - 1)) << k
        return list(range(m0, m0 + (1 << k)))
    masks = st.integers(0, (1 << d) - 1)
    free, base = draw(masks) | draw(masks), draw(masks)  # about 3/4 of the bits vary
    pool = [m & free | base & ~free for m in
            draw(st.lists(masks, min_size=2, max_size=24))]
    return draw(st.lists(st.sampled_from(pool), min_size=2, max_size=48))


def _wide_case(d):
    return st.tuples(st.just(d), _wide_trees(d), st.integers(1, 3), st.integers(0, 2**32 - 1),
                     _wide_masks(d))


def _prefix_masks(d, orders, seed):
    """The distinct prefix masks of seeded orders, sorted."""
    perms = core.seeded_rng(seed, 0).permuted(np.tile(np.arange(d), (orders, 1)), axis=1)
    return np.unique(np.bitwise_or.accumulate(np.left_shift(1, perms), axis=1))


# x1^x2 with both operands varying, and x1 * x10 / (x1 - 0.5), whose
# divisor reads x1 alone, under a product that outgrows the block
_POWER_OF_TWO_VARYING = expr.Bin("*", expr.Bin("^", expr.Var(0), expr.Var(1)), expr.Var(38))
_NARROW_DIVISOR = {d: expr.Bin("*", expr.Bin(
    "/", expr.Bin("*", expr.Var(0), expr.Var(9)), expr.Bin("-", expr.Var(0), expr.Num(0.5))),
    expr.Bin("+", expr.Bin("+", expr.Var(d // 2), expr.Var(d - 9)), expr.Var(d - 1)))
    for d in (63, 100)}


def _spread_masks(d):
    """Six masks over the variables of ``_NARROW_DIVISOR[d]``, x1 in four."""
    bits = [1 << j for j in (0, 9, d // 2, d - 9, d - 1)]
    return [bits[0] | bits[1], bits[0], bits[2] | bits[4], bits[0] | bits[3] | bits[1],
            bits[1], bits[4] | bits[0]]


def _gathered_case(text, seed):
    """``text`` at two points over the 624 prefix masks of 16 seeded orders
    at d = 40, where a sub-cube has at most 9 axes: a sum of 20 or 40
    variables reaches ``^``, ``exp`` or ``ln`` as one value per mask, and
    one of 20 repeats values across masks that agree on its variables."""
    return 40, expr.parse(text, 40), 2, seed, _prefix_masks(40, 16, seed=4).tolist()


_SUM_20, _SUM_40 = (" + ".join(f"x{j}" for j in range(1, d + 1)) for d in (20, 40))


@given(st.one_of(_wide_case(40), _wide_case(63), _wide_case(100)))
@example((40, _POWER_OF_TWO_VARYING, 3, 0, [3, 1 << 38 | 2, 1, 0, 3, 1 << 38]))
@example((63, _NARROW_DIVISOR[63], 2, 21, _spread_masks(63)))  # seed 21: x1 = 0.5 first
@example((100, _NARROW_DIVISOR[100], 2, 21, _spread_masks(100)))
@example(_gathered_case(f"({_SUM_20})^2", seed=1))
@example(_gathered_case(f"exp(({_SUM_40})/40)", seed=2))
@example(_gathered_case(f"ln({_SUM_20})", seed=3))  # non-positive at 231 of 1248 points
@settings(max_examples=300, deadline=None, derandomize=True)
def test_wide_blocks_match_the_scalar_path(case):
    # d = 40 and 63 have int64 masks, d = 100 object ones; with a few masks
    # the unions of spread variables outgrow the block and are gathered
    d, tree, n, seed, masks = case
    fn = expr.ExpressionFunction(format_expression(tree), d)
    rng = np.random.default_rng(seed)
    anchors = [tuple(rng.choice([-0.0, 0.5, 1.5, -2.0, 3.0, -0.75], size=d).tolist())
               for _ in range(n)]
    validated = core.validate_masks(masks, d)
    assert validated.dtype == (np.int64 if d <= 63 else object)
    # the block is the scalar values, bit for bit, or NaN throughout
    want, first = _check_block(fn, anchors, masks)
    # and the table raises the scalar path's first error, or is its values
    if first is not None:
        assert _table_raises(fn, anchors, masks) == first
    else:
        assert fn.evaluate_table(anchors, masks).tobytes() == np.array(want).tobytes()


def test_every_aligned_run_matches_the_scalar_path():
    # every run m0 .. m0 + 2^k - 1 of every size at d = 10: each run of two
    # or more masks is its sub-cube broadcast to the full cube, on which
    # each of x8 to x10 is an axis in some runs and a constant per point,
    # fixed by a bit of m0, in others; a run of one mask is gathered; the
    # block itself is checked, so a scalar re-run hides nothing
    fn = expr.ExpressionFunction(
        "x1*x2^3 - exp(x3/4)*x8 + ln(2 + x9^2)*x7 + 3*x10 - x2/7 + x8*x9*x10", 10)
    anchors = [(1.5, -0.7, 2.25, -3.0, 0.5, 1.25, -2.0, 0.75, 1.1, -1.3),
               (-0.0, 1.1, -1.3, 0.75, -2.0, 0.5, 2.5, -1.5, -0.9, 0.6)]
    for k in range(11):
        for m0 in range(0, 1024, 1 << k):
            masks = range(m0, m0 + (1 << k))
            want = [fn(core.project(x, m)) for x in anchors for m in masks]
            with np.errstate(all="ignore"):
                got = fn._evaluate_block(np.array(anchors), (0.0,) * 10, np.array(masks))
            assert got.tobytes() == np.array(want).tobytes()


def test_an_aligned_block_makes_no_scalar_evaluations(monkeypatch):
    # in the run 512..1023, x10 is fixed by bit 9 of 512: with one point, ^,
    # exp and ln get operands of shape (1, ..., 1), alone and beside one
    # that varies
    fn = expr.ExpressionFunction(
        "x1*x2^3 - x10^2 + exp(x10/4)*x3 + ln(2 + x9^2)*2^x4 + (2 + x1^2)^x10 + x5*x6*x7*x8", 10)
    x = (1.5, -0.7, 2.25, -3.0, 0.5, 1.25, -2.0, 0.75, 1.1, -1.3)
    runs = (range(1024), range(512, 1024))
    wants = [np.array([fn(core.project(x, m)) for m in masks]) for masks in runs]
    calls = []
    monkeypatch.setattr(expr.ExpressionFunction, "_evaluate",
                        lambda self, y: calls.append(y) or math.nan)
    for masks, want in zip(runs, wants):
        assert fn.evaluate_table([x], masks)[0].tobytes() == want.tobytes()
    assert calls == []


# + - * of leaves near the float max: inf, -inf, or NaN from inf - inf, at
# many points; every operation, one or two levels up, meets such operands,
# and some (max, min, relu, sign, /, ^, exp) make them finite again.
_huge = st.recursive(
    st.one_of(st.sampled_from([1e200, 1e308]).map(expr.Num),
              st.sampled_from([0, 1, 6]).map(expr.Var)),
    lambda c: st.tuples(st.sampled_from("+-*"), c, c).map(lambda t: expr.Bin(*t)), max_leaves=4)
_overflowing = st.tuples(st.sampled_from("+-*"), _huge, _huge).map(lambda t: expr.Bin(*t))
_overflow_trees = _batch_branch(st.one_of(_overflowing, _batch_branch(_overflowing)))
_overflow_coordinates = st.one_of(st.just(-0.0), st.sampled_from([1e200, -1e308]),
                                  st.floats(-6.0, 6.0))


@given(_overflow_trees, st.tuples(*[_overflow_coordinates] * 7),
       st.lists(st.integers(0, 127), min_size=1, max_size=12).map(sorted))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_overflowing_intermediates_match_the_scalar_path(tree, x, masks):
    fn = expr.ExpressionFunction(format_expression(tree), 7)
    for block in (masks, range(128)):  # gathered, and one aligned run (a cube)
        values, error = _scalar_table(fn, x, block)
        assert _raises(fn, x, block) == error
        if error is None:
            assert fn.evaluate_table([x], block)[0].tobytes() == np.array(values).tobytes()
        # the block itself: inf and NaN operands raise nothing on their own
        _check_block(fn, [x], block)


def test_a_failure_that_a_later_operation_hides_is_left_nan():
    # max, sign and min would make the failing operation's NaN (or 1/0's
    # inf) finite again, so the failing operation itself must leave the
    # block NaN throughout; relu keeps the NaN of ln
    anchors = [(1.5, 2.0, -0.5, 1.0, 0.25, -2.0, 3.0), (-1.0, 0.0, 0.5, 2.0, 1.0, 0.5, -1.5)]
    for text in ("max(1, ln(x1))", "sign(1/x1)", "relu(-ln(x2))", "min(2, exp(x1*800))"):
        f = expr.ExpressionFunction(text, 7)
        for fn in (f, expr.compose_permutation(f, (6, 5, 4, 3, 2, 1, 0)),
                   expr.linear_combine([(2.0, f)])):
            for masks in (range(128), range(127, -1, -1)):  # a cube, and gathered
                first = _check_block(fn, anchors, masks)[1]
                assert first is not None and _table_raises(fn, anchors, masks) == first


def test_an_overflow_a_later_operation_hides_takes_the_block_value(monkeypatch):
    # x1*1e200*1e200 is inf wherever x1 is on, and min(inf, 5) is 5 on both paths
    fn = expr.ExpressionFunction("min(x1*1e200*1e200, 5) + x2", 7)
    x = (1.5, 0.7, -1.3, 2.0, 0.5, -0.25, 3.0)
    # an aligned run, broadcast to its cube, and masks out of order, on
    # whose sub-cube of x1 and x2 the root is gathered per mask
    runs = (range(128), [3, 0, 1, 1, 2])
    wants = [np.array([fn(core.project(x, m)) for m in masks]) for masks in runs]
    calls = []
    monkeypatch.setattr(expr.ExpressionFunction, "_evaluate",
                        lambda self, y: calls.append(y) or math.nan)
    for masks, want in zip(runs, wants):
        assert fn.evaluate_table([x], masks)[0].tobytes() == want.tobytes()
    assert calls == []


def test_a_block_that_cannot_fail_makes_no_flag_array(monkeypatch):
    # a polynomial of one-sided powers, like the benchmark's: no operation
    # fails anywhere, so no block is unclean
    fn = expr.ExpressionFunction(
        "2.5 + 0.8*x3^2 - 1.25*max(-x1,0)^3*x7 + 0.5*x2*x9^2*max(x4,0) - x5^3*x6*x8*x10", 10)
    x = (-1.5, 0.7, 1.25, 0.9, -1.1, 0.6, 1.3, -0.8, 1.4, 0.55)
    clean = _record_blocks(monkeypatch)
    # two aligned runs, broadcast to their cubes, and four masks on which
    # the products of the varying variables outgrow the block and are
    # gathered per mask
    for masks in (range(1024), range(512, 1024), [7, 3, 1, 1000]):
        want = np.array([fn(core.project(x, m)) for m in masks])
        assert fn.evaluate_table([x], masks)[0].tobytes() == want.tobytes()
    assert clean == [True] * 3


def test_a_failure_that_no_mask_reads_leaves_the_values_unchanged(monkeypatch):
    # a sequential chain sets x3 only with x2, but ln's operand is computed
    # on the sub-cube of x2 and x3, and with x3 alone on it is 0.5 - x2 <= 0:
    # the whole block is unclean, and the scalar path gives its values
    fn = expr.ExpressionFunction("ln(1 + x2 - x3) + x1*x4 - x5*x6*x7 + x8", 8)
    rng = np.random.default_rng(8)
    points = rng.uniform(-2.0, 2.0, (1000, 8))
    points[:, 1] = rng.uniform(0.5, 3.0, 1000)
    points[:, 2] = points[:, 1] + 0.5
    chain = [(1 << k) - 1 for k in range(1, 9)]
    want = np.array([[fn(core.project(x, m)) for m in chain] for x in points.tolist()])
    clean = _record_blocks(monkeypatch)
    assert fn.evaluate_table(points, chain).tobytes() == want.tobytes()
    assert clean == [False]
    contributions = decomp.sequential_arrays(fn, points).contributions
    assert contributions.tobytes() == np.diff(want, axis=1, prepend=0.0).tobytes()


_MAPS = (expr.ScaleMap(-1.5), expr.ScaleMap(2.0), expr.OddPowerMap(3.0), expr.OddPowerMap(0.5),
         expr.PiecewiseLinearMap([(-1.0, -2.0), (0.0, 0.0), (1.0, 0.5), (2.0, 3.0)]))


def _compositions(inner):
    return st.one_of(
        st.tuples(inner, st.permutations(range(3))).map(
            lambda t: expr.compose_permutation(t[0], tuple(t[1]))),
        st.tuples(inner, st.lists(st.sampled_from(_MAPS), min_size=3, max_size=3)).map(
            lambda t: expr.compose_coordinate_maps(*t)),
        # 1e308 overflows a term, or the sum of terms, on values beyond 1
        st.lists(st.tuples(st.sampled_from([-2.5, 0.0, 1.0, 1e308]), inner),
                 min_size=1, max_size=3).map(expr.linear_combine),
    )


_expressions = _batch_trees.map(lambda tree: expr.ExpressionFunction(format_expression(tree), 3))
_composed = _compositions(st.one_of(_expressions, _compositions(_expressions)))


def _table_raises(fn, anchors, masks):
    try:
        fn.evaluate_table(anchors, masks)
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


@given(_composed, st.lists(st.tuples(_coordinates, _coordinates, _coordinates),
                           min_size=1, max_size=3),
       st.permutations(range(8)))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_compositions_evaluate_masks_like_their_scalar_path(fn, anchors, masks):
    for order in (masks, masks[::-1]):  # the zero point first and last
        values, error = [], None
        for x in anchors:  # point by point, mask by mask
            row, error = _scalar_table(fn, x, order)
            values += row
            if error is not None:
                break
        if error is not None:
            k, m = divmod(len(values), len(order))  # the first failing point and mask
            assert _table_raises(fn, anchors, order) == error
            assert _table_raises(fn, anchors[:k], order) is None
            assert _table_raises(fn, anchors[:k + 1], order[:m]) is None
            if k == 0:
                assert _raises(fn, anchors[0], order) == error
        else:
            table = fn.evaluate_table(anchors, order)
            assert table.tobytes() == np.array(values).tobytes()
            assert table.shape == (len(anchors), len(order))
            assert fn.evaluate_table([anchors[0]], order)[0].tobytes() == table[0].tobytes()


def test_composition_errors_come_from_the_first_failing_mask():
    off1 = expr.ExpressionFunction("ln(x1) + x2", 2)  # fails where x1 is off
    off2 = expr.ExpressionFunction("x1 / x2", 2)  # fails where x2 is off
    big_off2 = expr.ExpressionFunction("0.9 + x2", 2)
    total = expr.ExpressionFunction("x1 + x2", 2)
    capped = expr.ExpressionFunction("min(x1, 5) + x2", 2)

    def at_mask_2(y):
        if y == (0.0, 3.0):
            raise ValueError("native failure at mask 2")
        return y[0]

    cases = [  # (function, point, masks, the scalar error at masks[1])
        (expr.linear_combine([(1.0, off1), (1.0, off2)]), (2.0, 3.0), [3, 1, 2],
         "division by zero"),
        # the first term's block raises, at a later mask than the second fails
        (expr.linear_combine([(1.0, expr.NativeFunction(at_mask_2, 2)), (1.0, off2)]),
         (2.0, 3.0), [3, 1, 2], "division by zero"),
        (expr.compose_permutation(off2, (1, 0)), (3.0, 2.0), [3, 2, 1], "division by zero"),
        # fsum overflows: the sum is not finite
        (expr.linear_combine([(1e308, big_off2), (1e308, big_off2)]), (1.0, -0.8), [3, 1, 0],
         "is not finite at (1.0, 0.0): nan"),
        (expr.compose_coordinate_maps(total, [expr.OddPowerMap(400.0), expr.ScaleMap(1.0)]),
         (10.0, 1.0), [2, 1, 3], "Numerical result out of range"),
        # min(inf, 5) is finite: the mapped coordinate itself must be rejected
        (expr.compose_coordinate_maps(capped, [expr.ScaleMap(1e300), expr.ScaleMap(1.0)]),
         (1e10, 1.0), [0, 3, 1], "coordinate 1 is not finite"),
    ]
    for fn, x, masks, message in cases:
        values, error = _scalar_table(fn, x, masks)
        assert len(values) == 1 and message in error
        assert _raises(fn, x, masks) == error
        assert _raises(fn, x, masks[:1]) is None


def test_scalar_handles_call_each_point_once_up_to_the_first_error():
    calls = []

    def fails_at_mask_5(y):
        calls.append(y)
        if y == (1.0, 0.0, 1.0, 0.0):
            raise ValueError("native failure at mask 5")
        return y[0]

    native = expr.NativeFunction(fails_at_mask_5, 4)
    x = (1.0, 2.0, 1.0, 3.0)
    with pytest.raises(ValueError, match="mask 5"):
        native.evaluate_table([x], range(16))[0]
    # masks 0-5 once each, none after
    assert calls == [core.project(x, m) for m in range(6)]

    # as a term of a linear combination, too: the native term has no block
    # path, so every row runs through the combination's scalar path, once
    calls.clear()
    other = expr.ExpressionFunction("x2 * x4", 4)
    combined = expr.linear_combine([(1.0, native), (2.0, other)])
    with pytest.raises(ValueError, match="mask 5"):
        combined.evaluate_table([x], range(16))[0]
    assert calls == [core.project(x, m) for m in range(6)]


def test_a_sum_that_overflows_is_an_evaluation_error():
    big = expr.ExpressionFunction("1.7e308", 2)
    fn = expr.linear_combine([(1.0, big), (1.0, big)])
    with pytest.raises(expr.EvaluationError, match=r"is not finite at \(1\.0, 2\.0\): nan"):
        fn((1.0, 2.0))
    for evaluate in (lambda: fn.evaluate_table([(1.0, 2.0)], range(4))[0],
                     lambda: decomp.delta_star(fn, (1.0, 2.0))):
        with pytest.raises(expr.EvaluationError, match=r"is not finite at \(0\.0, 0\.0\): nan"):
            evaluate()


def test_a_raising_block_is_not_masked(monkeypatch):
    def broken(self, anchors, off, masks):
        raise RuntimeError("broken block")

    monkeypatch.setattr(expr.ExpressionFunction, "_evaluate_block", broken)
    f = expr.ExpressionFunction("x1 * x2", 2)
    for fn in (f, expr.compose_permutation(f, (1, 0)), expr.linear_combine([(2.0, f)])):
        with pytest.raises(RuntimeError, match="broken block"):
            fn.evaluate_table([(1.0, 2.0)], range(4))[0]


def test_only_the_failing_row_is_run_through_the_scalar_path(monkeypatch):
    # both terms are finite everywhere; their sum overflows fsum at mask 1 only
    f = expr.ExpressionFunction("0.5 + x1", 2)
    g = expr.ExpressionFunction("0.5 + x1*x1", 2)
    fn = expr.linear_combine([(1e308, f), (1e308, g)])
    calls = []
    monkeypatch.setattr(expr.ExpressionFunction, "_evaluate",
                        lambda self, y, scalar=expr.ExpressionFunction._evaluate:
                        calls.append(y) or scalar(self, y))
    with pytest.raises(expr.EvaluationError, match=r"is not finite at \(1\.0, 0\.0\): nan"):
        fn.evaluate_table([(1.0, 3.0)], [0, 2, 1])[0]
    assert calls == [(1.0, 0.0), (1.0, 0.0)]  # one call per term, at mask 1


def test_compositions_of_expressions_make_no_scalar_evaluations(monkeypatch):
    f = expr.ExpressionFunction("x1*x2 - 3*x3 + max(x4, 0)^2 + exp(x1/4)", 4)
    g = expr.ExpressionFunction("x2^3 - x4*x1 + ln(2 + x3^2)", 4)
    maps = [expr.ScaleMap(-1.5), _MAPS[2], _MAPS[4], expr.ScaleMap(2.0)]
    handles = [
        expr.compose_permutation(f, (2, 0, 3, 1)),
        expr.compose_coordinate_maps(f, maps),
        expr.linear_combine([(1.0, f), (-2.5, g), (0.5, f)]),
        expr.compose_permutation(
            expr.linear_combine([(1.0, expr.compose_coordinate_maps(g, maps)), (2.0, f)]),
            (3, 2, 1, 0)),
    ]
    calls = []
    for cls in {type(fn) for fn in handles} | {expr.ExpressionFunction}:
        monkeypatch.setattr(cls, "_evaluate",
                            lambda self, x, scalar=cls._evaluate: calls.append(x) or scalar(self, x))
    x = (1.5, -0.7, 2.25, -3.0)
    for fn in handles:
        fn.evaluate_table([x], range(16))[0]
        decomp.delta_star(fn, x)
    assert calls == []


def test_an_axiom_check_makes_one_block_pass_per_side(monkeypatch):
    f = expr.ExpressionFunction("x1*x2 - 3*x3 + max(x4, 0)^2 + exp(x1/4)", 4)
    passes, depth = [], [0]
    for cls in (expr.ExpressionFunction, expr._Relabeled):
        def counted(self, *args, block=cls._evaluate_block):
            if depth[0] == 0:  # a pass of evaluate_table, not a composition's inner block
                passes.append(type(self))
            depth[0] += 1
            try:
                return block(self, *args)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(cls, "_evaluate_block", counted)
    points = sample_points(4, 50, -3.0, 3.0, seed=5)
    assert check_A2_permutations(DELTA_STAR, f, [(2, 0, 3, 1)], points)[0].status == "pass"
    # one pass for the relabeled function and one for the function itself;
    # one point at a time made one pass per point and side, 100 in all
    assert passes == [expr._Relabeled, expr.ExpressionFunction]


def test_evaluate_table_rows_are_the_one_point_tables():
    fn = expr.ExpressionFunction("x1*x2 - x3^3 + exp(x2/4)", 3)
    for n, masks in ((300, range(8)), (2, range(8)), (3, [5, 0, 7, 7]), (1, [])):
        anchors = points(3, n, seed=n)
        table = fn.evaluate_table(anchors, masks)
        assert table.shape == (n, len(masks))
        want = np.array([fn.evaluate_table([x], masks)[0] for x in anchors]).reshape(n, len(masks))
        assert table.tobytes() == want.tobytes()
        as_array = fn.evaluate_table(np.array(anchors).reshape(n, 3), masks)
        assert as_array.tobytes() == table.tobytes()
    assert fn.evaluate_table([], range(8)).shape == (0, 8)


def test_evaluate_table_raises_the_first_error_in_point_order():
    fn = expr.ExpressionFunction("ln(x1 + 1) * x2", 2)
    for as_input in (list, np.array):  # a float array is checked in one pass, to the same end
        # the second point fails before the third is found not to be a point
        with pytest.raises(expr.EvaluationError, match=r"ln of non-positive value -1\.0"):
            fn.evaluate_table(as_input([(1.0, 2.0), (-2.0, 1.0), (math.nan, 1.0)]), range(4))
        with pytest.raises(core.NonFiniteCoordinateError):
            fn.evaluate_table(as_input([(1.0, 2.0), (math.nan, 1.0), (-2.0, 1.0)]), range(4))
        with pytest.raises(core.NonFiniteCoordinateError,
                           match=r"^coordinate 2 is not finite: inf$"):
            fn.evaluate_table(as_input([(1.0, 2.0), (2.0, math.inf), (-2.0, 1.0)]), range(4))
    with pytest.raises(DimensionMismatchError):
        fn.evaluate_table([(1.0, 2.0), (1.0,)], range(4))
    with pytest.raises(DimensionMismatchError, match="expected 2 coordinates, got 3"):
        fn.evaluate_table(np.zeros((2, 3)), range(4))
    # a bad first point is reported before bad masks, as for one point
    with pytest.raises(core.NonFiniteCoordinateError):
        fn.evaluate_table([(math.nan, 1.0)], [9])
    # a native function is called once per point, up to the one that raises
    calls = []
    native = expr.NativeFunction(lambda y: calls.append(y) or fn(y), 2)
    with pytest.raises(expr.EvaluationError):
        native.evaluate_table([(1.0, 2.0), (-2.0, 1.0), (3.0, 1.0)], range(4))
    assert calls == [core.project((1.0, 2.0), m) for m in range(4)] + [(0.0, 0.0), (-2.0, 0.0)]
    calls.clear()
    with pytest.raises(core.NonFiniteCoordinateError):
        native.evaluate_table(np.array([(1.0, 2.0), (math.nan, 1.0), (3.0, 1.0)]), range(4))
    assert calls == [core.project((1.0, 2.0), m) for m in range(4)]


def test_masks_must_be_integers():
    fn = D2("x1 + 10*x2")
    # a float was truncated, a bool or a numeric string read as a mask
    for masks, bad in (([1.5, 2.9], "1.5"), (np.array([1.5, 3.7]), "np.float64(1.5)"),
                       ([True, False], "True"), (["3"], "'3'"), ([1, None], "None"),
                       (np.array([False, True]), "np.False_"), ((m for m in [3, 2.0]), "2.0")):
        with pytest.raises(DimensionMismatchError, match=re.escape(f"mask {bad} is not an integer")):
            fn.evaluate_table([(1.0, 2.0)], masks)
    for masks in ([1, np.int64(2)], (3,), range(4), np.arange(4), np.array([3], dtype=np.uint8)):
        want = [fn(core.project((1.0, 2.0), m)) for m in masks]
        assert fn.evaluate_table([(1.0, 2.0)], masks)[0].tolist() == want
    # above d = 63 the masks stay Python ints, checked one by one
    wide = expr.ExpressionFunction("x1 + x70", 70)
    assert core.validate_masks([1 << 69, np.int64(1)], 70).dtype == object
    with pytest.raises(DimensionMismatchError, match=r"mask 1\.0 is not an integer"):
        wide.evaluate_table([(1.0,) * 70], [1 << 69, 1.0])
    # a bad first point is reported before bad masks
    with pytest.raises(core.NonFiniteCoordinateError):
        fn.evaluate_table([(math.nan, 1.0)], [1.5])


def test_unsigned_masks_are_named_as_passed():
    # an unsigned array is checked before its cast to int64, which wraps 2^63
    for d in (10, 63):
        fn = expr.ExpressionFunction("x1", d)
        for masks, bad in (([3, 1 << 63], "0x8000000000000000"), ([1, 1 << d], hex(1 << d))):
            for given in (masks, np.array(masks, dtype=np.uint64)):
                with pytest.raises(DimensionMismatchError,
                                   match=f"^mask {bad} has bits beyond dimension {d}$"):
                    fn.evaluate_table([(1.0,) * d], given)
    with pytest.raises(DimensionMismatchError, match="^mask 0x400 has bits beyond dimension 10$"):
        core.validate_masks(np.array([3, 1 << 10], dtype=np.uint16), 10)
    assert core.validate_masks(np.array([3, 1 << 9], dtype=np.uint64), 10).tolist() == [3, 512]


def _state(value):
    """A handle's attributes, and those of the handles it holds, as text."""
    if isinstance(value, expr.FunctionHandle):
        return {name: _state(v) for name, v in vars(value).items()}
    if isinstance(value, tuple):
        return tuple(_state(v) for v in value)
    return repr(value)


def test_evaluating_a_table_leaves_the_handle_unchanged():
    # handles are immutable, so they may be shared and called concurrently
    inner = expr.ExpressionFunction("x1*x2^3 - exp(x3/4) + ln(2 + x1^2)", 3)
    handles = [inner, expr.compose_permutation(inner, (2, 0, 1)),
               expr.compose_coordinate_maps(inner, [expr.ScaleMap(2.0), expr.OddPowerMap(3.0),
                                                    expr.ScaleMap(-1.0)]),
               expr.linear_combine([(2.0, inner), (-1.0, expr.ExpressionFunction("x2*x3", 3))])]
    for fn in handles:
        before = _state(fn)
        for masks in (range(8), [5, 0, 7, 3]):
            fn.evaluate_table(points(3, 4), masks)
        assert _state(fn) == before


def test_rows_of_whole_tables_are_cubes(monkeypatch):
    # the 16-mask rows of 50 points at d = 4, as an axiom check has them:
    # each operand of ^ and exp holds 2 values of its variable per point,
    # not 16; expressions parsed after the patch run the recording operations
    sizes = []
    for name in ("^", "exp"):
        operation = expr._OPERATIONS[name]
        monkeypatch.setitem(expr._OPERATIONS, name, operation._replace(
            batched=lambda a, *rest, batched=operation.batched:
            sizes.append(np.size(a)) or batched(a, *rest)))
    fn = expr.ExpressionFunction("x1^3 * x2 + exp(x4)", 4)
    anchors = sample_points(4, 50, -3.0, 3.0, seed=5)
    table = fn.evaluate_table(anchors, range(16))
    assert sizes == [100, 100]
    want = [fn(core.project(x, m)) for x in anchors for m in range(16)]
    assert table.tobytes() == np.array(want).tobytes()


def test_each_operand_of_a_power_holds_only_its_own_sub_cube(monkeypatch):
    # one block of about 10k prefix masks at d = 40, where every variable
    # varies: each base of ^ reads one variable T, so it holds 2^|T| = 2
    # values for the point, not one per mask; expressions parsed after the
    # patch run the recording ^
    sizes = []
    power = expr._OPERATIONS["^"]
    monkeypatch.setitem(expr._OPERATIONS, "^", power._replace(
        batched=lambda a, b: sizes.append((np.size(a), np.size(b))) or power.batched(a, b)))
    fn = expr.ExpressionFunction(SAMPLED_POLYNOMIAL, 40)
    masks = _prefix_masks(40, 256, seed=7)
    assert 9000 < len(masks) <= expr.MASK_BLOCK
    table = fn.evaluate_table([SAMPLED_POINT], masks)
    assert sizes == [(2, 1)] * 26
    want = [fn(core.project(SAMPLED_POINT, m)) for m in masks.tolist()]
    assert table.tobytes() == np.array([want]).tobytes()

    # both sides of an A2 check at d = 4: the relabeled function's permuted
    # masks span the same sub-cubes as the function's own, 2 values of a
    # variable for each of the 50 points, not 16
    sizes.clear()
    fn = expr.ExpressionFunction("x1^3 * x2 - max(x3, 0)^2 + x4", 4)
    points = sample_points(4, 50, -3.0, 3.0, seed=5)
    assert check_A2_permutations(DELTA_STAR, fn, [(2, 0, 3, 1)], points)[0].status == "pass"
    assert sizes == [(100, 1)] * 4


# (expression, raising points, clean points): at mask 3 every variable is
# on, so each operand of ^, exp or ln holds one value per point, and the C
# call raises at the raising points
_FALLBACKS = (
    ("x1 ^ x2", [(-1.0, 0.5), (0.0, -1.0), (10.0, 400.0)], [(2.0, 3.0), (1.5, -2.0), (0.0, 0.0)]),
    ("exp(x1)", [(1000.0, 0.0), (709.8, 1.0)], [(709.7, 0.0), (-1000.0, 1.0), (0.0, 2.0)]),
    ("ln(x1)", [(0.0, 1.0), (-0.0, 1.0), (-2.0, 1.0)], [(2.0, 1.0), (1e-300, 1.0), (3.0, 0.5)]),
    # inf - inf is NaN and x1*1e308*10 is inf: NaN and inf operands that do
    # not raise, beside values that do
    ("(x1*1e308*10 - x1*1e308*10) ^ x2", [(-0.0, -1.0)], [(1.0, 0.0), (2.0, 2.0), (0.0, 1.0)]),
    ("ln(x1*1e308*10 - x1*1e308*10) + ln(x1*1e308*10)", [(-1.0, 0.0), (0.0, 0.0)],
     [(1.0, 0.0), (2.0, 0.0)]),
)


@pytest.mark.parametrize("text, raising, clean", _FALLBACKS)
def test_the_guarded_scalar_runs_where_the_c_call_raises(text, raising, clean):
    fn = expr.ExpressionFunction(text, 2)
    cases = [clean[:1] + raising[:1] + clean[1:], clean[1:] + raising[:1],  # first, middle, last
             raising[:1] + clean + raising[1:] + clean[::-1] + raising[1:], clean * 3]
    for anchors in cases:
        for masks in ([3], range(4)):
            first = _check_block(fn, anchors, masks)[1]
            assert _table_raises(fn, anchors, masks) == first


def test_nan_and_inf_operands_do_not_raise():
    # nan ^ 0.0 is 1.0, ln(nan) is NaN: the C call's value, kept bit for bit
    nan, inf = math.nan, math.inf
    for name, operands in (("^", ([nan, nan, inf, -inf, 0.0], [0.0, 2.0, 2.0, -1.0, nan])),
                           ("exp", ([nan, inf, -inf],)), ("ln", ([nan, inf],))):
        operation = expr._OPERATIONS[name]
        value = operation.batched(*map(np.array, operands))
        want = [operation.scalar(*args) for args in zip(*operands)]
        assert value.tobytes() == np.array(want).tobytes()
    assert expr._OPERATIONS["^"].batched(np.array([nan, 1.0]), 0.0).tolist() == [1.0, 1.0]


def test_a_clean_table_calls_no_python_code_per_value(monkeypatch):
    # the guarded scalars of ^, exp and ln and their batched calls are
    # counted through _OPERATIONS, and the scalar re-run through _finite_at;
    # expressions parsed after the patch run them
    guarded, batched, rerun = [], [], []
    for name in ("^", "exp", "ln"):
        operation = expr._OPERATIONS[name]

        def counted(*args, scalar=operation.scalar):
            guarded.append(args)
            return scalar(*args)

        def recorded(*operands, call=operation.batched):
            batched.append(operands)
            return call(*operands)

        monkeypatch.setitem(expr._OPERATIONS, name,
                            operation._replace(scalar=counted, batched=recorded))
    monkeypatch.setattr(expr.FunctionHandle, "_finite_at",
                        lambda self, y, finite=expr.FunctionHandle._finite_at:
                        rerun.append(y) or finite(self, y))
    text = default_corpus(SuiteConfig())[0].text  # a corpus polynomial of x1^3, x2^2, ...
    fn = expr.ExpressionFunction(text, 4)
    anchors = sample_points(4, 50, -3.0, 3.0, seed=5)
    table = fn.evaluate_table(anchors, range(16))
    assert guarded == [] and rerun == [] and len(batched) == text.count("^")
    want = [fn._evaluate(core.project(x, m)) for x in anchors for m in range(16)]
    assert table.tobytes() == np.array(want).tobytes()
    # the Python calls of a table do not grow with its values
    python_calls = []
    for n in (50, 100):
        calls = []
        sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(frame))
        try:
            fn.evaluate_table(sample_points(4, n, -3.0, 3.0, seed=5), range(16))
        finally:
            sys.setprofile(None)
        python_calls.append(len(calls))
    assert python_calls[0] == python_calls[1]

    # one failing value of one operand, at point 7 with x1 on: the block is
    # NaN throughout, and the scalar path runs point by point up to it
    failing = expr.ExpressionFunction(text + " + (x1 + 3)^0.5", 4)
    anchors[7, 0] = -3.5
    with np.errstate(all="ignore"):
        block = failing._evaluate_block(anchors, (0.0,) * 4, np.arange(16))
    assert np.isnan(block).all()
    with pytest.raises(expr.EvaluationError, match=r"^-0\.5 \^ 0\.5: "):
        failing.evaluate_table(anchors, range(16))
    assert len(rerun) == 114 and rerun[-1] == (-3.5, 0.0, 0.0, 0.0)
    assert rerun == [core.project(x, m) for x in anchors[:8].tolist() for m in range(16)][:114]


def test_a_sampled_block_needs_a_few_tables_of_memory():
    # no intermediate holds one value per mask for every variable: the peak
    # of one d = 40 table of prefix masks stays a few times the table itself,
    # for about 9.5k masks, for 32,768 masks and for the sampler's one call of
    # about 71k masks at n = 2000, two blocks (4.3 times the table)
    fn = expr.ExpressionFunction(SAMPLED_POLYNOMIAL, 40)
    for masks in (_prefix_masks(40, 256, seed=3), _prefix_masks(40, 1024, seed=3)[:1 << 15],
                  _prefix_masks(40, 2000, seed=3)):
        tracemalloc.start()
        try:
            table = fn.evaluate_table([SAMPLED_POINT], masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * table.nbytes


def test_a_combination_of_one_or_two_terms_makes_a_zero_sum_positive():
    # math.fsum gives 0.0 where the terms are -0.0, so the block must too
    f = expr.ExpressionFunction("-x1", 2)
    g = expr.ExpressionFunction("-(x2 * x1)", 2)
    for terms in ([(1.0, f)], [(1.0, f), (2.0, g)], [(1.0, f), (1.0, g), (-0.0, f)]):
        fn = expr.linear_combine(terms)
        want = [fn(core.project((0.0, 1.5), m)) for m in range(4)]
        assert want == [0.0] * 4 and all(math.copysign(1.0, v) == 1.0 for v in want)
        assert fn.evaluate_table([(0.0, 1.5)], range(4))[0].tobytes() == np.array(want).tobytes()


def test_the_scalar_path_gets_each_projected_point_once_and_validates_anchors_once(
        monkeypatch):
    validated = []
    monkeypatch.setattr(expr, "as_point", lambda x, d=None, check=core.as_point:
                        validated.append(x) or check(x, d))
    anchors = [(1.5, -0.0, 2.0), (-0.0, 3.0, -1.25), (4.0, 1.0, 0.5)]
    masks = [5, 0, 7, 2, 5]
    calls = []
    native = expr.NativeFunction(lambda y: calls.append(y) or y[0] - 2.0 * y[2], 3)
    table = native.evaluate_table(anchors, masks)
    points = [core.project(x, m) for x in anchors for m in masks]
    # the same float tuples as project() gives, signed zeros too, in order
    assert np.array(calls).tobytes() == np.array(points).tobytes()
    assert all(type(y) is tuple and {type(c) for c in y} == {float} for y in calls)
    assert table.tobytes() == np.array([y[0] - 2.0 * y[2] for y in points]).tobytes()
    assert validated == anchors  # each anchor once, no projected point again
    # errors as the one-point call gives them: a callable that raises, and a
    # value that is not finite, at the second anchor's mask 2
    def refuse(y):
        if y == (0.0, 3.0, 0.0):
            raise ValueError(f"no value at {y}")
        return 1.0

    for fn in (expr.NativeFunction(refuse, 3),
               expr.NativeFunction(lambda y: math.inf if y == (0.0, 3.0, 0.0) else 1.0, 3)):
        with pytest.raises(ValueError) as one:
            fn((0.0, 3.0, 0.0))
        with pytest.raises(type(one.value), match=f"^{re.escape(str(one.value))}$"):
            fn.evaluate_table(anchors, masks)


def test_batched_rounding_near_zero_follows_the_scalar_path():
    # x^3 and x*x*x round differently at some points: the scalar path then
    # divides by a tiny value (or by zero) and takes the sign of it (or 0)
    fractions = expr.ExpressionFunction("1/(x1^3 - x1*x1*x1)", 1)
    signs = expr.ExpressionFunction("sign(x1^3 - x1*x1*x1) + relu(x1^3 - x1*x1*x1)", 1)
    xs = np.random.default_rng(3).uniform(0.5, 3.0, size=400).tolist()
    outcomes = set()
    for x in xs:
        assert signs.evaluate_table([(x,)], [0, 1])[0].tolist() == [0.0, signs((x,))]
        try:
            want = fractions((x,))
        except expr.EvaluationError as exc:
            with pytest.raises(expr.EvaluationError, match=str(exc)):
                fractions.evaluate_table([(x,)], [1])[0]
            outcomes.add("error")
        else:
            assert fractions.evaluate_table([(x,)], [1])[0].tolist() == [want]
            outcomes.add("value")
    assert outcomes == {"error", "value"}  # both cases were reached


def test_batched_conventions_zero_power_and_sign():
    fn = D2("x1^0 + sign(x2)")
    got = fn.evaluate_table([(3.0, -2.0)], range(4))[0]
    assert got.tolist() == [1.0, 1.0, 0.0, 0.0]


def test_batched_long_block_keeps_signed_zeros_apart():
    # -0.0 and 0.0 are different operands of ^, each with its own result
    for text, x in (("x1^3", (-0.0,)), ("max(-x1, 0)^3", (2.0,))):
        fn = expr.ExpressionFunction(text, 1)
        masks = [0, 1] * expr.MASK_BLOCK
        want = np.tile([fn(core.project(x, m)) for m in (0, 1)], expr.MASK_BLOCK)
        assert fn.evaluate_table([x], masks)[0].tobytes() == want.tobytes()


def test_batched_recoverable_overflow_takes_scalar_value():
    fn = expr.ExpressionFunction("1/(x1*1e200*1e200)", 1)
    assert fn.evaluate_table([(2.0,)], [1])[0].tolist() == [fn((2.0,))] == [0.0]
    with pytest.raises(expr.EvaluationError, match="division by zero"):
        fn.evaluate_table([(2.0,)], [1, 0])[0]


def test_batched_value_does_not_depend_on_the_block():
    # masks with x1 active overflow an intermediate that min makes finite
    # again: the block keeps the scalar value, whatever block it lands in
    fn = expr.ExpressionFunction("min(x1*1e200*1e200, 5) + x2^3 + exp(x3) - ln(2 + x2)", 3)
    x = (1.5, 0.7, -1.3)
    alone = [fn.evaluate_table([x], [m])[0, 0] for m in range(8)]
    assert alone == [fn(core.project(x, m)) if m & 1 else alone[m] for m in range(8)]
    many = np.tile(np.arange(8), expr.MASK_BLOCK // 8 + 3)  # crosses a block boundary
    assert fn.evaluate_table([x], many)[0].tobytes() == np.tile(alone, len(many) // 8).tobytes()


def test_evaluate_masks_scalar_handles_and_validation():
    native = expr.NativeFunction(lambda y: y[0] - 2 * y[1], 2)
    assert native.evaluate_table([(1.0, 3.0)], [3, 0, 2])[0].tolist() == [-5.0, 0.0, -6.0]
    table = expr.TableFunction(1, [((0.0,), 1.0), ((4.0,), 2.5)])
    assert table.evaluate_table([(4.0,)], [0, 1])[0].tolist() == [1.0, 2.5]
    for fn in (native, D2("x1 + x2")):
        with pytest.raises(DimensionMismatchError):
            fn.evaluate_table([(1.0, 3.0)], [4])[0]
        with pytest.raises(DimensionMismatchError):
            fn.evaluate_table([(1.0, 3.0)], [-1])[0]
        assert fn.evaluate_table([(1.0, 3.0)], [])[0].shape == (0,)


def test_long_sums_and_products_evaluate_without_recursion():
    total = expr.ExpressionFunction(" + ".join(f"{k % 7}*x{k % 3 + 1}" for k in range(5000)), 3)
    product = expr.ExpressionFunction(
        " * ".join(f"(1 + x{k % 3 + 1}/{k + 1})" for k in range(2000)), 3)
    x = (0.3, -1.7, 2.9)
    masks = range(8)
    for fn in (total, product):
        want = np.array([fn(core.project(x, m)) for m in masks])
        assert fn.evaluate_table([x], masks)[0].tobytes() == want.tobytes()
