import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcdecomp import game as gm
from funcdecomp.core import (
    DimensionMismatchError,
    NonzeroOriginError,
    full_mask,
    permute_mask,
)
from funcdecomp.expr import ExpressionFunction, NativeFunction

from oracles import all_close, brute_delta_star, brute_shapley, close


def make_game(d, values):
    return gm.Game(d, tuple(float(v) for v in values))


def random_game(d, rng):
    values = rng.uniform(-5, 5, size=1 << d)
    values[0] = 0.0
    return make_game(d, values)


TWO_PLAYER = make_game(2, [0, 1, 2, 4])


def test_shapley_two_player_example():
    assert gm.shapley(TWO_PLAYER).shares == (1.5, 2.5)


def test_shapley_additive_game_returns_weights():
    w = (1.0, 2.0, 3.0)
    values = [sum(w[i] for i in range(3) if m >> i & 1) for m in range(8)]
    assert all_close(gm.shapley(make_game(3, values)).shares, w)


def test_shapley_symmetric_game_splits_evenly():
    g = lambda size: float(size * size)  # noqa: E731
    values = [g(m.bit_count()) for m in range(16)]
    shares = gm.shapley(make_game(4, values)).shares
    assert all_close(shares, [g(4) / 4] * 4)


def test_oracle_matches_on_worked_examples():
    for g in (TWO_PLAYER,
              make_game(3, [0, 1, 2, 3, 3, 4, 5, 6]),
              make_game(1, [0, 2.5])):
        assert all_close(gm.shapley(g).shares, gm.shapley_permutation_oracle(g).shares)


def test_oracle_unanimity_game():
    for d in (2, 3, 4):
        values = [0.0] * (1 << d)
        values[full_mask(d)] = 1.0
        shares = gm.shapley_permutation_oracle(make_game(d, values)).shares
        assert all_close(shares, [1.0 / d] * d)


def test_oracle_zero_game():
    assert gm.shapley_permutation_oracle(make_game(3, [0.0] * 8)).shares == (0.0,) * 3


def test_oracle_dimension_cap():
    with pytest.raises(Exception):
        gm.shapley_permutation_oracle(make_game(11, [0.0] * (1 << 11)))


def test_shapley_matches_independent_brute_force():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 4, 5):
        g = random_game(d, rng)
        table = {
            frozenset(i for i in range(d) if m >> i & 1): g.values[m]
            for m in range(1 << d)
        }
        assert all_close(gm.shapley(g).shares, brute_shapley(table, d), rel=1e-11, abs_=1e-11)


@given(st.integers(1, 5), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_efficiency_and_oracle_equivalence(d, seed):
    g = random_game(d, np.random.default_rng(seed))
    allocation = gm.shapley(g)
    assert close(allocation.total, g.grand_value, rel=1e-12, abs_=1e-12)
    assert all_close(allocation.shares, gm.shapley_permutation_oracle(g).shares)


@given(st.integers(2, 5), st.integers(0, 10_000), st.data())
@settings(max_examples=60, deadline=None)
def test_symmetry_under_relabeling(d, seed, data):
    g = random_game(d, np.random.default_rng(seed))
    perm = tuple(data.draw(st.permutations(range(d))))
    base = gm.shapley(g).shares
    relabeled = gm.shapley(gm.permute_game(g, perm)).shares
    for i in range(d):
        assert close(relabeled[i], base[perm[i]])


def test_null_player_gets_nothing():
    rng = np.random.default_rng(3)
    d = 4
    # player 4 never changes any payoff
    values = [0.0] * (1 << d)
    for m in range(1 << (d - 1)):
        payoff = float(rng.uniform(-5, 5)) if m else 0.0
        values[m] = payoff
        values[m | 1 << (d - 1)] = payoff
    shares = gm.shapley(make_game(d, values)).shares
    assert abs(shares[d - 1]) < 1e-12


def test_additivity():
    rng = np.random.default_rng(5)
    a, b = random_game(4, rng), random_game(4, rng)
    combined = gm.shapley(gm.add_games(a, b)).shares
    separate = [x + y for x, y in zip(gm.shapley(a).shares, gm.shapley(b).shares)]
    assert all_close(combined, separate)


def test_game_validation():
    with pytest.raises(NonzeroOriginError):
        make_game(2, [0.5, 1, 2, 3])
    with pytest.raises(gm.GameFormatError):
        make_game(2, [0, 1, 2])
    with pytest.raises(gm.GameFormatError):
        make_game(2, [0, 1, 2, math.nan])


def test_game_from_binary_function_product():
    g = gm.game_from_binary_function(ExpressionFunction("x1 * x2", 2))
    assert g.values.tolist() == [0.0, 0.0, 0.0, 1.0]


def test_game_from_binary_function_additive():
    g = gm.game_from_binary_function(ExpressionFunction("x1 + x2 + x3", 3))
    assert g.values[full_mask(3)] == 3.0
    assert all_close(gm.shapley(g).shares, [1.0, 1.0, 1.0])


def test_game_from_binary_function_rejects_shifted_origin():
    with pytest.raises(NonzeroOriginError):
        gm.game_from_binary_function(NativeFunction(lambda x: 0.5, 2))


def test_shapley_weight_sums_to_one_per_player():
    # over the coalitions containing a fixed player the weights add to 1
    for d in range(1, 10):
        total = sum(
            math.comb(d - 1, size - 1) * gm.shapley_weight(d, size)
            for size in range(1, d + 1)
        )
        assert close(total, 1.0)


def test_json_round_trip():
    g = make_game(3, [0, 1, 2, 3, 3, 4, 5, 6.5])
    keys = ["", "1", "2", "1,2", "3", "1,3", "2,3", "1,2,3"]
    data = {"d": 3, "values": dict(zip(keys, g.values.tolist()))}
    assert gm.game_from_json(data) == g


def test_json_missing_empty_defaults_to_zero():
    g = gm.game_from_json({"d": 1, "values": {"1": 2.0}})
    assert g.values.tolist() == [0.0, 2.0]


def test_json_errors():
    with pytest.raises(gm.GameFormatError):
        gm.game_from_json({"d": 2, "values": {"1": 1.0, "2": 2.0}})  # {1,2} missing
    with pytest.raises(NonzeroOriginError):
        gm.game_from_json({"d": 1, "values": {"": 1.0, "1": 2.0}})
    with pytest.raises(gm.GameFormatError):
        gm.game_from_json({"d": 1, "values": {"3": 1.0, "1": 0.0}})
    with pytest.raises(gm.GameFormatError):
        gm.game_from_json({"d": 1, "values": {"1": "high"}})
    with pytest.raises(gm.GameFormatError):
        gm.game_from_json({"values": {}})


def test_json_rejects_a_boolean_dimension():
    with pytest.raises(gm.GameFormatError):
        gm.game_from_json({"d": True, "values": {"1": 2.0}})


def test_oracle_equals_formula_on_dense_small_dims():
    rng = np.random.default_rng(17)
    for d in (1, 2, 3):
        for _ in range(20):
            g = random_game(d, rng)
            assert all_close(gm.shapley(g).shares,
                             gm.shapley_permutation_oracle(g).shares)


def test_weighted_marginals_matches_brute_force_oracles():
    rng = np.random.default_rng(17)
    for d in range(1, 9):
        values = rng.uniform(-5, 5, size=1 << d)  # values[0] != 0: the delta-star split
        ones = (1.0,) * d

        def fn(point):
            return values[sum(1 << j for j, c in enumerate(point) if c != 0.0)]

        kernel = gm.weighted_marginals(values, d)
        assert all_close(kernel + values[0] / d, brute_delta_star(fn, ones), rel=1e-11, abs_=1e-11)
        values[0] = 0.0
        game = make_game(d, values)
        table = {frozenset(i for i in range(d) if m >> i & 1): values[m] for m in range(1 << d)}
        shares = gm.weighted_marginals(values, d)
        assert all_close(shares, brute_shapley(table, d), rel=1e-11, abs_=1e-11)
        assert all_close(shares, gm.shapley_permutation_oracle(game).shares, rel=1e-11, abs_=1e-11)


def test_weighted_marginals_gives_dummy_exactly_zero_for_any_weight():
    rng = np.random.default_rng(19)
    d = 6
    half = rng.uniform(-5, 5, size=1 << (d - 1))
    values = np.concatenate([half, half])  # coordinate d never changes the value
    for weight in (gm.shapley_weight, lambda n, s: gm.shapley_weight(n, s) * (1.0 + 0.1 * s)):
        assert gm.weighted_marginals(values, d, weight)[d - 1] == 0.0
    with pytest.raises(DimensionMismatchError):
        gm.weighted_marginals(values[:-1], d)


def _one_row_kernel(values, d):
    """The kernel on one table as a loop over coordinates, each sum taken
    over the table's own 1-D differences."""
    sizes = np.array([bin(m).count("1") for m in range(1 << d)])
    w = np.array([0.0] + [gm.shapley_weight(d, s) for s in range(1, d + 1)])[sizes]
    out = np.empty(d)
    for i in range(d):
        diff = values.reshape(-1, 2, 1 << i)[:, 1] - values.reshape(-1, 2, 1 << i)[:, 0]
        diff *= w.reshape(-1, 2, 1 << i)[:, 1]
        out[i] = diff.sum()
    return out


def test_batched_kernel_rows_equal_the_one_row_kernel():
    rng = np.random.default_rng(23)
    for d in range(1, 13):
        for n in (1, 2, 5, 33):
            u = rng.uniform(-1.0, 1.0, size=(n, 1 << d))
            table = 1e8 * u ** 5  # magnitudes spread over many binades
            batched = gm.weighted_marginals(table, d)
            assert batched.shape == (n, d)
            for k in range(n):
                assert batched[k].tobytes() == gm.weighted_marginals(table[k], d).tobytes()
                assert batched[k].tobytes() == _one_row_kernel(table[k], d).tobytes()
    assert gm.weighted_marginals(np.empty((0, 8)), 3).shape == (0, 3)
    with pytest.raises(DimensionMismatchError):
        gm.weighted_marginals(np.zeros((2, 7)), 3)


def test_game_from_table_zeroes_a_tolerated_origin_and_rejects_a_large_one():
    g = gm.game_from_table(2, np.array([1e-14, 1.0, 2.0, 4.0]))
    assert g.values.tolist() == [0.0, 1.0, 2.0, 4.0]
    with pytest.raises(NonzeroOriginError, match="a game needs value 0"):
        gm.game_from_table(2, [0.5, 1.0, 2.0, 4.0])


def test_game_values_are_a_read_only_float64_copy():
    source = [0.0, 1.0, 2.0, 4.0]
    g = gm.Game(2, source)
    assert g.values.dtype == np.float64
    with pytest.raises(ValueError):
        g.values[1] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.values = np.zeros(4)
    array = np.array(source)
    h = gm.Game(2, array)
    source[1] = 9.0
    array[2] = 9.0
    assert g.values.tolist() == [0.0, 1.0, 2.0, 4.0]
    assert h.values.tolist() == [0.0, 1.0, 2.0, 4.0]
    assert g == h and g != make_game(2, [0, 1, 2, 5])


def test_non_finite_payoff_error_names_the_first_bad_coalition():
    with pytest.raises(gm.GameFormatError, match=r"non-finite payoff inf for coalition 0b10$"):
        make_game(2, [0, 1, math.inf, math.nan])


def test_permute_game_matches_scalar_permute_mask():
    rng = np.random.default_rng(23)
    for d in range(1, 7):
        g = random_game(d, rng)
        for _ in range(5):
            perm = tuple(int(v) for v in rng.permutation(d))
            permuted = gm.permute_game(g, perm)
            for m in range(1 << d):
                assert permuted.values[m] == g.values[permute_mask(m, perm)]


def test_game_from_binary_function_checks_the_origin_first():
    def fn(point):
        if any(point):
            raise AssertionError("evaluated before the origin was checked")
        return 1.0

    with pytest.raises(NonzeroOriginError):
        gm.game_from_binary_function(NativeFunction(fn, 3))


def test_json_names_duplicate_and_missing_coalitions():
    with pytest.raises(gm.GameFormatError, match=r"coalition '2,1' listed twice"):
        gm.game_from_json({"d": 2, "values": {"1,2": 1.0, "2,1": 1.0}})
    with pytest.raises(gm.GameFormatError,
                       match=r"^3 coalition\(s\) missing from the table \(e\.g\. 1, 1,2, 3\)$"):
        gm.game_from_json({"d": 3, "values": {"2": 1.0, "2,3": 1.0, "1,3": 0.5,
                                              "1,2,3": 4.0}})
