"""Exact symmetric-function primitives over integer vectors.

Everything here is plain Python integer arithmetic, so results are exact for
arbitrarily large inputs.  Falling factorials build the block probabilities
behind the closed-form moments; power sums of a (value, count) law give every
moment of M, and elementary symmetric polynomials the tests' closed forms.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence


def falling_factorial(a: int, b: int) -> int:
    """Product a*(a-1)*...*(a-b+1); 1 when b == 0, 0 when b > a >= 0.

    Both arguments must be non-negative integers.
    """
    if a < 0 or b < 0:
        raise ValueError(f"falling_factorial requires a, b >= 0, got a={a}, b={b}")
    return math.perm(a, b)


def elementary_symmetric(values: Sequence[int], k: int) -> int:
    """k-th elementary symmetric polynomial of `values` (sum over k-subsets).

    Returns 1 for k == 0 and 0 for k < 0 or k > len(values).  One-row DP,
    O(len(values) * k) integer multiplications.
    """
    s = len(values)
    if k < 0 or k > s:
        return 0
    if k == 0:
        return 1
    # row[j] holds e_j of the prefix processed so far; update descending so
    # each value is used at most once per subset
    row = [0] * (k + 1)
    row[0] = 1
    for i, x in enumerate(values):
        for j in range(min(i + 1, k), 0, -1):
            row[j] += x * row[j - 1]
    return row[k]


def power_sum(values: Sequence[int], k: int) -> int:
    """Sum of k-th powers; len(values) when k == 0."""
    if k < 0:
        raise ValueError(f"power_sum requires k >= 0, got k={k}")
    return power_sums(values, [1] * len(values), k)[k]


def power_sums(values: Iterable[int], counts: Iterable[int], k: int) -> list[int]:
    """[s_0, ..., s_k] of a law of the values x with counts cnt: s_j = sum cnt * x^j."""
    terms, values = list(counts), list(values)
    sums = [sum(terms)]
    for _ in range(k):
        terms = [t * x for t, x in zip(terms, values)]
        sums.append(sum(terms))
    return sums
