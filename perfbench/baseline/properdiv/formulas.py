"""Closed-form invariants of order complexes of proper-divisibility posets.

Everything here is exact integer arithmetic.  Two binomial regimes coexist
on purpose: the Betti-rank formula needs the single exceptional value
binom(-1, -1) = 1 (all other out-of-range arguments give 0), whereas the
Euler-characteristic formulas use plain binomials that vanish out of
range.  They are kept as separate functions so the convention cannot leak
from one into the other.
"""

from __future__ import annotations

from math import comb


def binom_conv(n: int, k: int) -> int:
    """Binomial coefficient with the single exception binom(-1, -1) = 1."""
    if n == -1 and k == -1:
        return 1
    if k < 0 or n < 0 or n < k:
        return 0
    return comb(n, k)


def _check_range(a: int, b: int) -> None:
    if not 2 <= a <= b:
        raise ValueError(f"need 2 <= a <= b, got a={a}, b={b}")


def betti_rank(a: int, b: int, i: int) -> int:
    """Rank of the i-th reduced homology group of the order complex of P(a, b).

    Zero above degree a - 2; below that it is twice a convolution of three
    binomials evaluated under the binom(-1, -1) = 1 convention.
    """
    _check_range(a, b)
    if i < 0:
        raise ValueError("degree must be non-negative")
    if i > a - 2:
        return 0
    total = 0
    for t in range(0, i + 1):
        total += binom_conv(a - 3 - i, t - 1) * (
            binom_conv(i, t) * binom_conv(b - 2 - i, i - t)
            + binom_conv(i, t - 1) * binom_conv(b - 3 - i, i - t)
        )
    return 2 * total


def last_nonzero_degree(a: int, b: int) -> int:
    """Largest degree with nonvanishing non-reduced homology; -1 when empty.

    For 4 <= a <= b the answer is a - 2 once b >= 2a - 2, and otherwise
    drops by one for every band of three values of b below that threshold.
    """
    if not 0 <= a <= b:
        raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
    if a <= 1:
        return -1 if b <= 1 else 0
    if a == 2:
        return 0
    if a == 3:
        return 0 if b == 3 else 1
    if b >= 2 * a - 2:
        return a - 2
    k = -((-(2 * a - 2 - b)) // 3)  # ceil((2a - 2 - b) / 3)
    return a - 2 - k


def euler_char(a: int, b: int) -> int:
    """Reduced Euler characteristic of the order complex of P(a, b)."""
    _check_range(a, b)
    sign = 1 if a % 2 == 0 else -1
    total = 0
    for h in range(0, a // 2):
        term = comb(a - 2, h) * _plain_binom(b - a, a - 2 - 2 * h)
        total += term if h % 2 == 0 else -term
    return sign * 2 * total


def _plain_binom(n: int, k: int) -> int:
    if k < 0 or n < 0 or n < k:
        return 0
    return comb(n, k)


def euler_char_table(a_max: int, b_max: int) -> dict[tuple[int, int], int]:
    """Coefficients of 2 u^2 v^2 / (2uv - u - v + 1), filled bottom-up.

    The denominator gives the linear recurrence
    c(a, b) = c(a-1, b) + c(a, b-1) - 2 c(a-1, b-1), seeded with 2 at
    (2, 2); entries with a < 2 or b < 2 are zero.
    """
    table = {}

    def get(a, b):
        if a < 2 or b < 2:
            return 0
        return table[(a, b)]

    for a in range(2, a_max + 1):
        for b in range(2, b_max + 1):
            c = get(a - 1, b) + get(a, b - 1) - 2 * get(a - 1, b - 1)
            if a == 2 and b == 2:
                c += 2
            table[(a, b)] = c
    return table


def euler_char_series_coeff(a: int, b: int) -> int:
    """Coefficient of u^a v^b in the generating function, for 2 <= a <= b.

    Above the diagonal the series drops a correction term that only touches
    monomials with a > b, which is why the region is restricted.
    """
    _check_range(a, b)
    return euler_char_table(a, b)[(a, b)]


def euler_char_diagonal(a: int) -> int:
    """Reduced Euler characteristic on the diagonal: 0 for odd a."""
    if a < 2:
        raise ValueError(f"need a >= 2, got {a}")
    if a % 2 == 1:
        return 0
    h = (a - 2) // 2
    sign = 1 if h % 2 == 0 else -1
    return sign * 2 * comb(a - 2, h)
