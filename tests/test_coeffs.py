import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from momentbounds.coeffs import (
    CoefficientVector,
    half_ceil,
    head_count_below,
    head_tail_split,
    norm,
    rearrange,
)

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
vectors = st.lists(finite_floats, min_size=1, max_size=12).map(CoefficientVector)


def test_rearrange_examples():
    assert rearrange(CoefficientVector([3, -1, 2])).values == (3.0, 2.0, 1.0)
    assert rearrange(CoefficientVector([0, 0])).values == (0.0, 0.0)
    assert rearrange(CoefficientVector([1, -5, 2, -2])).values == (5.0, 2.0, 2.0, 1.0)


def test_norm_examples():
    assert norm(CoefficientVector([3, 4]), 2) == pytest.approx(5.0, rel=1e-15)
    assert norm(CoefficientVector([1, -1, 1]), math.inf) == 1.0


@pytest.mark.parametrize("scale", [1e-200, 3e-160, 1e200])
def test_l2_norm_is_scale_safe(scale):
    # the squares of these entries underflow or overflow a double
    assert norm(CoefficientVector([3 * scale, 4 * scale]), 2) == pytest.approx(5 * scale, rel=1e-15, abs=0)


def test_norm_rejects_q_below_one():
    # and every other order but 2 and inf, the ones the bounds use
    for q in (0.5, 1.0, 3.0, 4.0, math.nan):
        with pytest.raises(ValueError, match="q must be 2 or inf"):
            norm(CoefficientVector([1.0]), q)


def test_head_tail_split_examples():
    v = CoefficientVector([5, 2, 2, 1])
    head, tail = head_tail_split(v, 5)
    assert head.values == (5.0, 2.0) and tail.values == (2.0, 1.0)
    head, tail = head_tail_split(v, 2)
    assert head.values == () and tail.values == (5.0, 2.0, 2.0, 1.0)
    head, tail = head_tail_split(v, 4)
    assert head.values == (5.0,) and tail.values == (2.0, 2.0, 1.0)


def test_head_tail_split_rejects_bad_input():
    with pytest.raises(ValueError):
        head_tail_split(CoefficientVector([1, 2]), 3)  # not rearranged
    with pytest.raises(ValueError):
        head_tail_split(CoefficientVector([2, 1]), 1.5)  # p < 2


def test_half_ceil_exact_on_half_integers():
    assert half_ceil(2.0) == 1
    assert half_ceil(3.0) == 2
    assert half_ceil(4.0) == 2
    assert half_ceil(5.0) == 3
    assert half_ceil(4.5) == 3
    assert half_ceil(2.5) == 2
    # a float hair above an even integer must not bump the ceiling down
    assert half_ceil(np.nextafter(4.0, 5.0)) == 3


def test_head_count_below():
    assert head_count_below(3.0, 10) == 2
    assert head_count_below(3.5, 10) == 3
    assert head_count_below(1.0, 10) == 0
    assert head_count_below(8.0, 3) == 3  # clamped to n


def test_half_ceil_and_head_count_match_exact_rationals():
    # the reference takes each ceiling on the exact rational value of the float
    def half_ceil_ref(p):
        return math.ceil(Fraction(p) / 2)

    def head_count_ref(p):
        frac = Fraction(p)
        return math.ceil(frac) - 1 if frac == int(frac) else math.floor(frac)

    rng = np.random.default_rng(23)
    halves = np.arange(2, 2000) / 2.0  # the integers and half-integers from 1 to 999.5
    near = [np.nextafter(x, d) for x in (2.0, 3.0, 4.0, 3.5) for d in (0.0, math.inf)]
    points = [*rng.uniform(1.0, 100.0, 20_000), *halves, *near, 2.0**53 + 1, 2.0**53 + 2, 1e308]
    for p in map(float, points):
        assert half_ceil(p) == half_ceil_ref(p), p
        assert head_count_below(p, 10**400) == head_count_ref(p), p


def test_rejects_non_finite_entries():
    with pytest.raises(ValueError):
        CoefficientVector([1.0, math.nan])
    with pytest.raises(ValueError):
        CoefficientVector([math.inf])


@given(vectors)
def test_rearrange_idempotent(v):
    r = rearrange(v)
    assert rearrange(r).values == r.values
    assert r.is_rearranged()


@given(vectors)
def test_rearrange_is_permutation_of_abs(v):
    assert sorted(rearrange(v).values) == sorted(abs(x) for x in v.values)


@given(vectors, st.sampled_from([2.0, math.inf]))
def test_rearrange_preserves_norms(v, q):
    assert norm(rearrange(v), q) == pytest.approx(norm(v, q), rel=1e-12, abs=1e-12)


@given(vectors)
def test_norm_nonincreasing_in_q(v):
    qs = [2.0, math.inf]
    vals = [norm(v, q) for q in qs]
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi * (1 + 1e-12) + 1e-12


@given(vectors, st.sampled_from([2.0, 2.5, 3.0, 4.0, 7.0]))
def test_split_is_pythagorean_partition(v, p):
    r = rearrange(v)
    head, tail = head_tail_split(r, p)
    assert head.values + tail.values == r.values
    assert norm(head, 2) ** 2 + norm(tail, 2) ** 2 == pytest.approx(
        norm(r, 2) ** 2, rel=1e-12, abs=1e-12
    )
