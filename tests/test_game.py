import dataclasses
import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcdecomp import cli
from funcdecomp import game as gm
from funcdecomp.core import (
    DimensionMismatchError,
    NonzeroOriginError,
    full_mask,
    mask_from_indices,
    permute_mask,
    project,
)
from funcdecomp.expr import ExpressionFunction, NativeFunction

from game_axioms import add_games, permute_game
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
    relabeled = gm.shapley(permute_game(g, perm)).shares
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
    combined = gm.shapley(add_games(a, b)).shares
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
    assert gm.weighted_marginals(values, d)[d - 1] == 0.0
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
    assert gm.weighted_marginals(np.empty((0, 1 << 16)), 16).shape == (0, 16)
    with pytest.raises(DimensionMismatchError):
        gm.weighted_marginals(np.zeros((2, 7)), 3)


@pytest.mark.parametrize("d", [16, 20])
def test_kernel_equals_the_one_row_kernel_at_large_d(d):
    rng = np.random.default_rng(29 + d)
    table = 1e8 * rng.uniform(-1.0, 1.0, size=1 << d) ** 5
    assert gm.weighted_marginals(table, d).tobytes() == _one_row_kernel(table, d).tobytes()


def test_kernel_gives_every_dummy_coordinate_exactly_zero():
    rng = np.random.default_rng(31)
    for d in range(1, 11):
        for i in range(d):
            for n in (1, 7):
                table = 1e8 * rng.uniform(-1.0, 1.0, size=(n, 1 << d)) ** 5
                pairs = table.reshape(n, -1, 2, 1 << i)
                pairs[:, :, 1] = pairs[:, :, 0]  # v(S) = v(S \ {i})
                assert (gm.weighted_marginals(table, d)[:, i] == 0.0).all(), (d, i, n)


def test_kernel_memory_stays_within_two_and_a_half_half_tables_at_the_cap():
    d = 20
    table = np.random.default_rng(37).uniform(-1.0, 1.0, size=1 << d)
    gm.weighted_marginals(table, d)  # warm-up: the per-size weights are cached
    tracemalloc.start()
    try:
        gm.weighted_marginals(table, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (1 << (d - 1)) * 8


def game_from_table(d, values):
    """Read a dense table of computed values, indexed by coalition mask, as
    a game.  The empty-coalition entry must vanish within ORIGIN_TOLERANCE;
    the game stores it as exactly zero."""
    values = np.asarray(values, dtype=float)
    gm.check_empty_coalition(values[0])
    return gm.Game(d, np.concatenate(([0.0], values[1:])))


def test_game_from_table_zeroes_a_tolerated_origin_and_rejects_a_large_one():
    g = game_from_table(2, np.array([1e-14, 1.0, 2.0, 4.0]))
    assert g.values.tolist() == [0.0, 1.0, 2.0, 4.0]
    with pytest.raises(NonzeroOriginError, match="a game needs value 0"):
        game_from_table(2, [0.5, 1.0, 2.0, 4.0])


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
            permuted = permute_game(g, perm)
            for m in range(1 << d):
                assert permuted.values[m] == g.values[permute_mask(m, perm)]


def test_game_from_binary_function_checks_the_origin_first():
    def fn(point):
        if any(point):
            raise AssertionError("evaluated before the origin was checked")
        return 1.0

    with pytest.raises(NonzeroOriginError):
        gm.game_from_binary_function(NativeFunction(fn, 3))


def test_induced_game_evaluates_each_point_once_the_origin_first():
    calls = []

    def fn(point):
        calls.append(point)
        return sum(point) + point[0] * point[2]

    g = gm.induced_game(NativeFunction(fn, 3), (1.5, -2.0, 0.5))
    assert len(calls) == 8 and len(set(calls)) == 8
    assert calls[0] == (0.0, 0.0, 0.0)
    assert g == game_from_table(3, [fn(project((1.5, -2.0, 0.5), m)) for m in range(8)])


def test_json_names_duplicate_and_missing_coalitions():
    with pytest.raises(gm.GameFormatError, match=r"coalition '2,1' listed twice"):
        gm.game_from_json({"d": 2, "values": {"1,2": 1.0, "2,1": 1.0}})
    with pytest.raises(gm.GameFormatError,
                       match=r"^3 coalition\(s\) missing from the table \(e\.g\. 1, 1,2, 3\)$"):
        gm.game_from_json({"d": 3, "values": {"2": 1.0, "2,3": 1.0, "1,3": 0.5,
                                              "1,2,3": 4.0}})


def test_json_payoff_beyond_the_float_range_is_a_format_error():
    for key in ("1", ""):
        with pytest.raises(gm.GameFormatError,
                           match=rf"^payoff for '{key}' is not a finite number$"):
            gm.game_from_json({"d": 1, "values": {key: 10 ** 400}})
    # an integer that rounds to a float is still read as one
    g = gm.game_from_json({"d": 1, "values": {"1": 10 ** 300}})
    assert g.values[1] == 1e300


def test_json_reports_the_first_bad_entry_in_key_order():
    with pytest.raises(gm.GameFormatError, match=r"^coalition '01' listed twice$"):
        gm.game_from_json({"d": 2, "values": {"1": 1.0, "01": 2.0, "x": 3.0}})
    with pytest.raises(gm.GameFormatError, match=r"^payoff for '1' is not a number: 'high'$"):
        gm.game_from_json({"d": 2, "values": {"1": "high", "x": 3.0}})
    with pytest.raises(gm.GameFormatError, match=r"^bad coalition key 'x'$"):
        gm.game_from_json({"d": 2, "values": {"x": 3.0, "1": "high"}})
    # a repeated index is named before an index out of range
    with pytest.raises(gm.GameFormatError, match=r"^repeated index in coalition key '9,1,1'$"):
        gm.game_from_json({"d": 2, "values": {"9,1,1": 1.0}})
    # a key that is not a string, where a table in mask order has "1,2"
    with pytest.raises(gm.GameFormatError, match=r"^coalition key must be a string, got \(1, 2\)$"):
        gm.game_from_json({"d": 2, "values": {"": 0, "1": 1, "2": 2, (1, 2): 3}})


def reference_coalition_key(key, d):
    """The coalition-key parser as it was before keys were memoised: one
    int() per index."""
    if not isinstance(key, str):
        raise gm.GameFormatError(f"coalition key must be a string, got {key!r}")
    text = key.strip()
    if not text:
        return 0
    try:
        indices = [int(part) for part in text.split(",")]
    except ValueError:
        raise gm.GameFormatError(f"bad coalition key {key!r}") from None
    if len(set(indices)) != len(indices):
        raise gm.GameFormatError(f"repeated index in coalition key {key!r}")
    try:
        return mask_from_indices(indices, d)
    except DimensionMismatchError as exc:
        raise gm.GameFormatError(f"bad coalition key {key!r}: {exc}") from None


INDEX_SPELLINGS = st.builds(
    lambda space, sign, zeros, i, tail: f"{space}{sign}{'0' * zeros}{i}{tail}{space}",
    st.sampled_from(["", " "]), st.sampled_from(["", "", "", "+", "-"]), st.integers(0, 2),
    st.integers(0, 7), st.sampled_from(["", "", "", "", "", "", "_0", ".0", "a", "_"]))
REPEATED_INDEX_KEYS = st.builds(
    lambda parts, i, a, b: [*parts, "0" * a + str(i), "0" * b + str(i)],
    st.lists(INDEX_SPELLINGS, max_size=2), st.integers(1, 5), st.integers(0, 2),
    st.integers(0, 2)).flatmap(st.permutations).map(",".join)
COALITION_KEYS = st.one_of(
    st.lists(st.one_of(INDEX_SPELLINGS, st.just("")), max_size=4).map(",".join),
    REPEATED_INDEX_KEYS,
    st.text(alphabet="0123456789,+-_. a", max_size=8),
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.lists(COALITION_KEYS, min_size=1, max_size=3))
def test_json_keys_read_as_the_one_int_per_index_parser_reads_them(d, keys):
    # the drawn keys come first; canonical keys complete the table
    raw, seen, want = {}, {}, None
    for n, key in enumerate(keys):
        if key in raw:
            continue
        raw[key] = float(n + 1)
        if want is None:
            try:
                mask = reference_coalition_key(key, d)
                if mask in seen:
                    raise gm.GameFormatError(f"coalition {key!r} listed twice")
                seen[mask] = float(n + 1)
            except gm.GameFormatError as exc:
                want = exc
    for mask in range(1, 1 << d):
        if mask not in seen:
            seen[mask] = raw.setdefault(gm._coalition_key(mask), float(mask))
    if want is None and seen.get(0, 0.0) != 0.0:
        want = NonzeroOriginError(f"empty coalition must be worth 0, got {seen[0]!r}")
    if want is not None:
        with pytest.raises(type(want)) as info:
            gm.game_from_json({"d": d, "values": raw})
        assert str(info.value) == str(want)
    else:
        got = gm.game_from_json({"d": d, "values": raw})
        assert got.values.tolist() == [seen.get(m, 0.0) for m in range(1 << d)]


def test_json_parses_each_index_spelling_once(monkeypatch):
    tail, missing = [], []

    def counted_tail(key, d, parse=gm._parse_coalition_key):
        tail.append(key)
        return parse(key, d)

    def counted_missing(self, part, lookup=gm._IndexBits.__missing__):
        missing.append(part)
        return lookup(self, part)

    monkeypatch.setattr(gm, "_parse_coalition_key", counted_tail)
    monkeypatch.setattr(gm._IndexBits, "__missing__", counted_missing)
    d = 10
    items = [(gm._coalition_key(m), float(m)) for m in range(1 << d)]
    # in mask order the table is read in one pass: no key is parsed
    game = gm.game_from_json({"d": d, "values": dict(items)})
    assert game.values.tolist() == list(range(1 << d))
    assert tail == [] and missing == []
    # shuffled, each index spelling is parsed once and no valid key reaches
    # the one-int-per-index error path
    np.random.default_rng(3).shuffle(items)
    assert gm.game_from_json({"d": d, "values": dict(items)}) == game
    assert tail == []
    assert sorted(missing, key=int) == [str(i) for i in range(1, d + 1)]


def test_json_non_finite_payoff_names_the_first_entry_in_key_order():
    for values, key in [({"2": math.inf, "1": math.nan, "1,2": 1}, "2"),
                        ({"": math.nan, "1": 1}, ""),
                        ({"": 0, "1": -math.inf}, "1"),
                        ({"1": 1, "2": 2, "1,2": math.nan}, "1,2")]:
        d = max(len(k.split(",")) for k in values)
        with pytest.raises(gm.GameFormatError,
                           match=rf"^payoff for '{key}' is not a finite number$"):
            gm.game_from_json({"d": d, "values": values})


ODD_PAYOFFS = st.sampled_from(
    [True, False, "1", None, [1.0], 10 ** 400, -(10 ** 400), math.nan, math.inf, -math.inf,
     2 ** 53 + 1, 2 ** 64 + 1, -0.0])
RESPELLINGS = st.sampled_from([" 1", "01", "1\n", "\n1", "2,1", "1,1", "x", ""])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.booleans(), st.data())
def test_mask_ordered_json_reads_as_the_key_by_key_loop_reads_it(d, with_empty, data):
    keys = [gm._coalition_key(m) for m in range(0 if with_empty else 1, 1 << d)]
    payoffs = data.draw(st.lists(st.one_of(st.floats(-1e6, 1e6), st.integers(-2 ** 70, 2 ** 70)),
                                 min_size=len(keys), max_size=len(keys)))
    if with_empty:
        payoffs[0] = data.draw(st.sampled_from([0, 0.0, 0, 0.0, -0.0, 0.5, 1]))
    for k in data.draw(st.lists(st.integers(0, len(keys) - 1), max_size=2)):
        payoffs[k] = data.draw(ODD_PAYOFFS)
    keys_changed = data.draw(st.sampled_from(["none", "none", "swap", "respell"]))
    if keys_changed == "swap" and len(keys) > 1:
        k = data.draw(st.integers(0, len(keys) - 2))
        keys[k], keys[k + 1] = keys[k + 1], keys[k]
    elif keys_changed == "respell":
        keys[data.draw(st.integers(0, len(keys) - 1))] = data.draw(RESPELLINGS)
    raw = dict(zip(keys, payoffs))

    def outcome():
        try:
            return "game", gm.game_from_json({"d": d, "values": raw}).values.tobytes()
        except (gm.GameFormatError, NonzeroOriginError) as exc:
            return type(exc), str(exc)

    with mock.patch.object(gm, "_mask_ordered_payoffs", return_value=None):
        want = outcome()  # the key-by-key loop alone
    assert outcome() == want
    if want[0] == "game" and keys_changed == "none":  # the one-pass read was taken
        assert gm._mask_ordered_payoffs(raw, d) is not None


def read_outcome(read):
    """The game bytes a reader returns, or the type and text of its error."""
    try:
        return "game", read().values.tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


# the reader's own piece size, and sizes that cut the head, keys,
# separators, numbers and the tail
PIECES = [gm._PIECE, 1, 7, 64]
EDITS = st.sampled_from([*'"{}[],: \n\t\0\\-+.eE0123456789', "NaN", "Infinity", "true", "00",
                         "1.", "[1]"])


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.booleans(), st.sampled_from(["", "\n", " \t\r\n"]), st.data())
def test_a_game_text_reads_as_json_loads_reads_it(tmp_path_factory, d, with_empty, tail, data):
    keys = [gm._coalition_key(m) for m in range(0 if with_empty else 1, 1 << d)]
    payoffs = data.draw(st.lists(st.one_of(st.floats(-1e6, 1e6), st.integers(-2 ** 70, 2 ** 70)),
                                 min_size=len(keys), max_size=len(keys)))
    if with_empty:
        payoffs[0] = data.draw(st.sampled_from([0, 0.0, -0.0, 0.5]))
    for k in data.draw(st.lists(st.integers(0, len(keys) - 1), max_size=2)):
        payoffs[k] = data.draw(ODD_PAYOFFS)
    text = json.dumps({"d": d, "values": dict(zip(keys, payoffs))}) + tail
    edits = data.draw(st.lists(st.tuples(st.sampled_from(["insert", "replace", "delete"]),
                                         st.integers(0, len(text)), EDITS), max_size=3))
    for how, at, token in edits:
        text = text[:at] + ("" if how == "delete" else token) + text[at + (how != "insert"):]
    path = tmp_path_factory.getbasetemp() / "game.json"
    path.write_text(text, encoding="utf-8")
    want = read_outcome(lambda: gm.game_from_json(json.loads(text)))
    for piece in PIECES:
        with mock.patch.object(gm, "_PIECE", piece):
            assert read_outcome(lambda: cli._read_game(str(path))) == want
            fast = gm.mask_ordered_game(io.StringIO(text))
        if fast is not None:
            assert want == ("game", fast.values.tobytes())
        elif not edits:
            assert want[0] != "game"  # a valid file json.dump wrote takes the new reader


def test_a_mask_ordered_file_is_read_in_its_payoff_array_plus_one_piece(tmp_path):
    d = 16  # a file of 2.8 MB, eleven pieces
    values = np.random.default_rng(5).uniform(-2, 2, 1 << d)
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"d": d, "values": {gm._coalition_key(m): float(values[m])
                                                   for m in range(1, 1 << d)}}))
    tracemalloc.start()
    try:
        game = cli._read_game(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert game.values[1:].tolist() == values[1:].tolist()
    # the array read and the game's copy of it, plus one piece: its text, the
    # strings it splits into and its payoffs, 3.2 MB in all as measured on
    # CPython 3.11; reading the whole text took 12.7 MB
    assert peak < 2 * values.nbytes + 12 * gm._PIECE


def test_a_bad_byte_beyond_the_first_piece_is_named_at_its_offset_in_the_file(tmp_path):
    d = 14
    text = json.dumps({"d": d, "values": {gm._coalition_key(m): float(m) for m in range(1 << d)}})
    at = text.index(", ", gm._PIECE + 1000)
    data = text.encode()
    data = data[:at] + b"\xff" + data[at + 1:]
    path = tmp_path / "game.json"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    with pytest.raises(UnicodeDecodeError) as info:
        cli._read_game(str(path))
    assert str(info.value) == str(whole.value)
    assert f"position {at}:" in str(info.value)


@pytest.mark.parametrize("text", [
    '{"d": 2, "values": {"1\n2\n1,2": 1, 2, 3}}',  # three items after one key
    '{"d": 1, "values": {"1\nx": 5}}',  # a key holding a raw newline
    '{"d": 1, "values": {"1\\nx": 5}}',  # and an escaped one
    '{"d": 1, "values": {"1": 5\0}}',
    '{"d": 1, "values": {"1": 5, "1": 6}}',
    '{"d": 1, "values": {"1": "5"}}',
    '{"d": 1, "values": {"1": [5]}}',
    '{"d": 1, "values": {"1": 5}, "x": {"1": 6}}',
    '{"d": 01, "values": {"1": 5}}',
    '{"d": 21, "values": {"1": 5}}',
])
def test_a_text_the_reader_refuses_reads_as_json_loads_reads_it(tmp_path, text):
    path = tmp_path / "game.json"
    path.write_text(text)
    want = read_outcome(lambda: gm.game_from_json(json.loads(text)))
    for piece in PIECES:
        with mock.patch.object(gm, "_PIECE", piece):
            assert gm.mask_ordered_game(io.StringIO(text)) is None
            assert read_outcome(lambda: cli._read_game(str(path))) == want
