import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcdecomp import core, decomp, expr
from funcdecomp.core import DimensionMismatchError, permutation_from_ranks

from oracles import close

D2 = lambda text: expr.ExpressionFunction(text, 2)  # noqa: E731


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
    assert expr.ExpressionFunction(expr.format_expression(tree), 2).tree == tree


def test_round_trip_on_paper_style_expressions():
    for text in ["(x1+2)*(x2+3) - 6", "max(x1,0)^2 * max(-x2,0)", "sign(x1) * abs(x2)^1.5"]:
        fn = D2(text)
        printed = expr.format_expression(fn.tree)
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
    assert exact.evaluate_masks((1e16, 1.0, -1e16), [7, 5]).tolist() == [1.0, 0.0]


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
        fn.evaluate_masks(x, masks)
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


@given(_batch_trees, st.tuples(_coordinates, _coordinates, _coordinates),
       st.lists(st.integers(0, 7), min_size=1, max_size=12).map(sorted))
@settings(max_examples=600, deadline=None, derandomize=True)
def test_batched_evaluation_matches_scalar_path(tree, x, masks):
    fn = expr.ExpressionFunction(expr.format_expression(tree), 3)
    values, error = _scalar_table(fn, x, masks)
    assert error is None or error.startswith("EvaluationError: ")
    repeated = masks * (expr._SHORT + 1)  # a block long enough to share operands
    if error is not None:
        first = len(values)  # the mask the scalar path failed on
        assert _raises(fn, x, masks) == error
        assert _raises(fn, x, masks[:first + 1]) == error
        assert _raises(fn, x, masks[:first]) is None
        assert _raises(fn, x, repeated) == error
        return
    assert fn.evaluate_masks(x, masks).tobytes() == np.array(values).tobytes()
    assert fn.evaluate_masks(x, repeated).tobytes() == np.array(values * (expr._SHORT + 1)).tobytes()


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


_expressions = _batch_trees.map(lambda tree: expr.ExpressionFunction(expr.format_expression(tree), 3))
_composed = _compositions(st.one_of(_expressions, _compositions(_expressions)))


@given(_composed, st.tuples(_coordinates, _coordinates, _coordinates),
       st.permutations(range(8)))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_compositions_evaluate_masks_like_their_scalar_path(fn, x, masks):
    for order in (masks, masks[::-1]):  # the zero point first and last
        values, error = _scalar_table(fn, x, order)
        if error is not None:
            assert _raises(fn, x, order) == error
            assert _raises(fn, x, order[:len(values)]) is None
        else:
            assert fn.evaluate_masks(x, order).tobytes() == np.array(values).tobytes()


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
        (expr.linear_combine([(1e308, big_off2), (1e308, big_off2)]), (1.0, -0.8), [3, 1, 0],
         "intermediate overflow in fsum"),
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
        native.evaluate_masks(x, range(16))
    # masks 0-4 once, mask 5 in the block and again in the re-run, none after
    assert calls == [core.project(x, m) for m in (0, 1, 2, 3, 4, 5, 5)]

    # in a linear combination the failing term sends no other row of the
    # block back to the scalar path
    calls.clear()
    other = expr.ExpressionFunction("x2 * x4", 4)
    combined = expr.linear_combine([(1.0, native), (2.0, other)])
    with pytest.raises(ValueError, match="mask 5"):
        combined.evaluate_masks(x, range(16))
    assert calls == [core.project(x, m) for m in (0, 1, 2, 3, 4, 5, 5)]


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
        fn.evaluate_masks(x, range(16))
        decomp.delta_star(fn, x)
    assert calls == []


def test_batched_rounding_near_zero_follows_the_scalar_path():
    # x^3 and x*x*x round differently at some points: the scalar path then
    # divides by a tiny value (or by zero) and takes the sign of it (or 0)
    fractions = expr.ExpressionFunction("1/(x1^3 - x1*x1*x1)", 1)
    signs = expr.ExpressionFunction("sign(x1^3 - x1*x1*x1) + relu(x1^3 - x1*x1*x1)", 1)
    xs = np.random.default_rng(3).uniform(0.5, 3.0, size=400).tolist()
    outcomes = set()
    for x in xs:
        assert signs.evaluate_masks((x,), [0, 1]).tolist() == [0.0, signs((x,))]
        try:
            want = fractions((x,))
        except expr.EvaluationError as exc:
            with pytest.raises(expr.EvaluationError, match=str(exc)):
                fractions.evaluate_masks((x,), [1])
            outcomes.add("error")
        else:
            assert fractions.evaluate_masks((x,), [1]).tolist() == [want]
            outcomes.add("value")
    assert outcomes == {"error", "value"}  # both cases were reached


def test_batched_conventions_zero_power_and_sign():
    fn = D2("x1^0 + sign(x2)")
    got = fn.evaluate_masks((3.0, -2.0), range(4))
    assert got.tolist() == [1.0, 1.0, 0.0, 0.0]


def test_batched_long_block_keeps_signed_zeros_apart():
    # a long block calls ^ once per distinct operand; -0.0 and 0.0 differ
    for text, x in (("x1^3", (-0.0,)), ("max(-x1, 0)^3", (2.0,))):
        fn = expr.ExpressionFunction(text, 1)
        masks = [0, 1] * expr.MASK_BLOCK
        want = np.array([fn(core.project(x, m)) for m in masks])
        assert fn.evaluate_masks(x, masks).tobytes() == want.tobytes()


def test_batched_recoverable_overflow_takes_scalar_value():
    fn = expr.ExpressionFunction("1/(x1*1e200*1e200)", 1)
    assert fn.evaluate_masks((2.0,), [1]).tolist() == [fn((2.0,))] == [0.0]
    with pytest.raises(expr.EvaluationError, match="division by zero"):
        fn.evaluate_masks((2.0,), [1, 0])


def test_batched_value_does_not_depend_on_the_block():
    # masks with x1 active overflow an intermediate and are re-run one by one
    fn = expr.ExpressionFunction("min(x1*1e200*1e200, 5) + x2^3 + exp(x3) - ln(2 + x2)", 3)
    x = (1.5, 0.7, -1.3)
    alone = [fn.evaluate_masks(x, [m])[0] for m in range(8)]
    assert alone == [fn(core.project(x, m)) if m & 1 else alone[m] for m in range(8)]
    many = np.tile(np.arange(8), expr.MASK_BLOCK // 8 + 3)  # crosses a block boundary
    assert fn.evaluate_masks(x, many).tobytes() == np.tile(alone, len(many) // 8).tobytes()


def test_evaluate_masks_scalar_handles_and_validation():
    native = expr.NativeFunction(lambda y: y[0] - 2 * y[1], 2)
    assert native.evaluate_masks((1.0, 3.0), [3, 0, 2]).tolist() == [-5.0, 0.0, -6.0]
    table = expr.TableFunction(1, [((0.0,), 1.0), ((4.0,), 2.5)])
    assert table.evaluate_masks((4.0,), [0, 1]).tolist() == [1.0, 2.5]
    for fn in (native, D2("x1 + x2")):
        with pytest.raises(DimensionMismatchError):
            fn.evaluate_masks((1.0, 3.0), [4])
        with pytest.raises(DimensionMismatchError):
            fn.evaluate_masks((1.0, 3.0), [-1])
        assert fn.evaluate_masks((1.0, 3.0), []).shape == (0,)


def test_long_sums_and_products_evaluate_without_recursion():
    total = expr.ExpressionFunction(" + ".join(f"{k % 7}*x{k % 3 + 1}" for k in range(5000)), 3)
    product = expr.ExpressionFunction(
        " * ".join(f"(1 + x{k % 3 + 1}/{k + 1})" for k in range(2000)), 3)
    x = (0.3, -1.7, 2.9)
    masks = range(8)
    for fn in (total, product):
        want = np.array([fn(core.project(x, m)) for m in masks])
        assert fn.evaluate_masks(x, masks).tobytes() == want.tobytes()
