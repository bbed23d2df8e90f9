"""Symmetric-function primitives: unit values plus the algebraic identities
the moment formulas lean on, checked against brute-force subset sums."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from colorstats.symfun import (
    elementary_symmetric,
    falling_factorial,
    power_sum,
)

int_vectors = st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8)


def e_from_newton(values):
    """(e1, e2, e3) computed from power sums via Newton's identities: an
    independent route to cross-check the DP in `elementary_symmetric`.  The
    divisions are exact for integer inputs; needs len(values) >= 3."""
    if len(values) < 3:
        raise ValueError(f"e_from_newton requires at least 3 values, got {len(values)}")
    p1, p2, p3 = (power_sum(values, k) for k in (1, 2, 3))
    return p1, (p1 * p1 - p2) // 2, (p1**3 - 3 * p1 * p2 + 2 * p3) // 6


def brute_elementary(values, k):
    if k < 0 or k > len(values):
        return 0
    return sum(
        math.prod(sub) for sub in itertools.combinations(values, k)
    ) if k > 0 else 1


class TestFallingFactorial:
    def test_base_cases(self):
        assert falling_factorial(5, 0) == 1
        assert falling_factorial(0, 0) == 1
        assert falling_factorial(3, 5) == 0
        assert falling_factorial(4, 4) == 24
        assert falling_factorial(10, 3) == 720

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            falling_factorial(-1, 2)
        with pytest.raises(ValueError):
            falling_factorial(3, -1)

    @given(st.integers(0, 60), st.integers(0, 60))
    def test_matches_factorial_ratio(self, a, b):
        want = math.factorial(a) // math.factorial(a - b) if b <= a else 0
        assert falling_factorial(a, b) == want


class TestElementarySymmetric:
    def test_conventions(self):
        assert elementary_symmetric([3, 1, 4], 0) == 1
        assert elementary_symmetric([3, 1, 4], 4) == 0
        assert elementary_symmetric([3, 1, 4], -1) == 0
        assert elementary_symmetric([], 0) == 1

    def test_small_values(self):
        assert elementary_symmetric([2, 2], 2) == 4
        assert elementary_symmetric([3, 2, 1], 2) == 3 * 2 + 3 * 1 + 2 * 1

    @given(int_vectors, st.integers(0, 9))
    def test_matches_subset_sums(self, values, k):
        assert elementary_symmetric(values, k) == brute_elementary(values, k)


class TestPowerSum:
    def test_values(self):
        assert power_sum([2, 3], 2) == 13
        assert power_sum([2, 3], 0) == 2
        with pytest.raises(ValueError):
            power_sum([1], -2)


class TestNewtonRoute:
    def test_requires_three_values(self):
        with pytest.raises(ValueError):
            e_from_newton([1, 2])

    @given(st.lists(st.integers(0, 50), min_size=3, max_size=8))
    def test_agrees_with_dp(self, values):
        e1, e2, e3 = e_from_newton(values)
        assert e1 == elementary_symmetric(values, 1)
        assert e2 == elementary_symmetric(values, 2)
        assert e3 == elementary_symmetric(values, 3)


@given(int_vectors)
def test_weighted_subset_identity(values):
    """sum over k-subsets of (subset sum - k) * subset product collapses to
    (E1 - k) Ek - (k+1) E_{k+1}, for every k."""
    s = len(values)
    e = [elementary_symmetric(values, k) for k in range(s + 2)]
    for k in range(1, s + 1):
        lhs = sum(
            (sum(sub) - k) * math.prod(sub)
            for sub in itertools.combinations(values, k)
        )
        assert lhs == (e[1] - k) * e[k] - (k + 1) * e[k + 1]


@given(int_vectors)
def test_squared_entries_identity(values):
    """E2 of the squared vector equals E2^2 - 2 E1 E3 + 2 E4."""
    e1 = elementary_symmetric(values, 1)
    e2 = elementary_symmetric(values, 2)
    e3 = elementary_symmetric(values, 3)
    e4 = elementary_symmetric(values, 4)
    squared = [x * x for x in values]
    assert elementary_symmetric(squared, 2) == e2 * e2 - 2 * e1 * e3 + 2 * e4
