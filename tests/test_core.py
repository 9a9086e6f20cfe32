import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcdecomp import core

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def point_and_dim(draw, max_d=6):
    d = draw(st.integers(1, max_d))
    return tuple(draw(st.lists(finite_floats, min_size=d, max_size=d))), d


def test_project_examples():
    assert core.project((3.0, -2.0, 5.0), 0b101) == (3.0, 0.0, 5.0)
    x = (1.5, -2.5, 0.25)
    assert core.project(x, core.full_mask(3)) == x
    assert core.project(x, 0) == (0.0, 0.0, 0.0)


def test_project_rejects_foreign_bits():
    with pytest.raises(core.DimensionMismatchError):
        core.project((1.0, 2.0), 0b100)


def test_hadamard_examples():
    assert core.hadamard((1.0, 2.0), (3.0, 4.0)) == (3.0, 8.0)
    x = (0.5, -3.0, 7.0)
    assert core.hadamard(x, core.ones_point(3)) == x
    # a binary second factor acts like a projection
    assert core.hadamard(x, (1.0, 0.0, 1.0)) == core.project(x, 0b101)
    with pytest.raises(core.DimensionMismatchError):
        core.hadamard((1.0,), (1.0, 2.0))


def test_permute_examples():
    perm = core.permutation_from_ranks((2, 3, 1))
    assert core.permute((7.0, 8.0, 9.0), perm) == (8.0, 9.0, 7.0)
    x = (4.0, 5.0, 6.0)
    assert core.permute(x, core.identity_permutation(3)) == x
    assert core.permute(core.permute(x, perm), core.inverse_permutation(perm)) == x


def test_prefix_indicator_examples():
    assert core.prefix_indicator(0, 3) == (0.0, 0.0, 0.0)
    assert core.prefix_indicator(2, 3) == (1.0, 1.0, 0.0)
    assert core.prefix_indicator(3, 3) == core.ones_point(3)
    with pytest.raises(core.DimensionMismatchError):
        core.prefix_indicator(4, 3)


def test_as_point_rejects_non_finite():
    with pytest.raises(core.NonFiniteCoordinateError):
        core.as_point((1.0, math.nan))
    with pytest.raises(core.NonFiniteCoordinateError):
        core.as_point((math.inf,))
    with pytest.raises(core.DimensionMismatchError):
        core.as_point((1.0, 2.0), d=3)
    with pytest.raises(core.DimensionMismatchError):
        core.as_point(())


def test_validate_dimension_rejects_booleans_and_non_positive_values():
    for bad in (True, False, 0, -3, 2.0):
        with pytest.raises(core.DimensionMismatchError, match="positive integer"):
            core.validate_dimension(bad)
    assert core.validate_dimension(3) == 3


def test_mask_index_round_trip():
    assert core.mask_from_indices((1, 3), 3) == 0b101
    assert core.indices_from_mask(0b101) == (1, 3)
    assert core.mask_cardinality(0b1011) == 3
    with pytest.raises(core.DimensionMismatchError):
        core.mask_from_indices((4,), 3)


def test_permutation_validation():
    with pytest.raises(core.DimensionMismatchError):
        core.permutation_from_ranks((1, 1, 3))
    assert core.ranks_from_permutation(core.permutation_from_ranks((3, 1, 2))) == (3, 1, 2)


@given(point_and_dim(), st.data())
@settings(max_examples=150)
def test_projection_composes_by_intersection(pd, data):
    x, d = pd
    top = (1 << d) - 1
    mask_i = data.draw(st.integers(0, top))
    mask_j = data.draw(st.integers(0, top))
    assert core.project(core.project(x, mask_i), mask_j) == core.project(x, mask_i & mask_j)


@given(point_and_dim(), st.data())
@settings(max_examples=150)
def test_permutation_distributes_over_hadamard(pd, data):
    x, d = pd
    y = tuple(data.draw(st.lists(finite_floats, min_size=d, max_size=d)))
    perm = tuple(data.draw(st.permutations(range(d))))
    assert core.permute(core.hadamard(x, y), perm) == core.hadamard(
        core.permute(x, perm), core.permute(y, perm)
    )


@given(st.integers(1, 6), st.data())
@settings(max_examples=150)
def test_prefix_vector_transport_activates_position(d, data):
    # the activation pattern covering rank perm[i] always contains coordinate i
    perm = tuple(data.draw(st.permutations(range(d))))
    for i in range(d):
        carried = core.permute(core.prefix_indicator(perm[i] + 1, d), perm)
        assert carried[i] == 1.0


@given(st.integers(1, 6), st.data())
@settings(max_examples=100)
def test_permutation_composition_law(d, data):
    p = tuple(data.draw(st.permutations(range(d))))
    q = tuple(data.draw(st.permutations(range(d))))
    x = tuple(float(i) for i in range(d))
    assert core.permute(core.permute(x, p), q) == core.permute(x, core.compose_permutations(p, q))


def test_permute_mask_matches_index_image():
    perm = core.permutation_from_ranks((2, 3, 1))
    # image of {1} under the 1-based map 1->2 is {2}
    assert core.indices_from_mask(core.permute_mask(0b001, perm)) == (2,)
    assert core.permute_mask(0b111, perm) == 0b111


def test_permutation_average_marginals_by_hand():
    # d=2 table: v(empty)=0, v({1})=1, v({2})=2, v(both)=4
    avg = core.permutation_average_marginals([0.0, 1.0, 2.0, 4.0], 2)
    assert np.allclose(avg, [1.5, 2.5], atol=1e-15)


def test_permutation_average_marginals_validates():
    with pytest.raises(core.DimensionMismatchError):
        core.permutation_average_marginals([0.0, 1.0], 2)
    with pytest.raises(core.DimensionMismatchError):
        core.permutation_average_marginals([0.0] * (1 << 11), 11)


def test_permutation_average_marginals_matches_direct_enumeration():
    rng = np.random.default_rng(7)
    for d in (1, 2, 3, 4, 5):
        values = rng.uniform(-5, 5, size=1 << d)
        values[0] = 0.0
        expected = [0.0] * d
        for order in itertools.permutations(range(d)):
            mask, prev = 0, values[0]
            for j in order:
                mask |= 1 << j
                expected[j] += values[mask] - prev
                prev = values[mask]
        expected = [e / math.factorial(d) for e in expected]
        got = core.permutation_average_marginals(values, d)
        assert np.allclose(got, expected, atol=1e-12)
