"""Truncated power series with exact integer coefficients.

This is the independent route to the partition moments: the Euler product
carries p(n) at x^n, the Lambert-type series F_m carries the divisor power
sums sigma_m(n), and the coefficient of x^n in their product equals p(n)
times the expected m-th power sum of a uniform random partition of n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients a_0..a_N of a power series, exact modulo x^(N+1).

    A product keeps the weaker of the two truncation degrees, so it never
    claims coefficients that were not fully determined.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a truncated series needs at least the constant term")

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        deg = min(len(self.coeffs), len(other.coeffs)) - 1
        a = self.coeffs
        b = other.coeffs
        out = [0] * (deg + 1)
        for i in range(deg + 1):
            ai = a[i]
            if not ai:
                continue
            for j in range(deg + 1 - i):
                out[i + j] += ai * b[j]
        return TruncatedSeries(tuple(out))


@lru_cache(maxsize=8)
def euler_series(degree: int) -> TruncatedSeries:
    """The partition generating function: product over j of (1 - x^j)^(-1).

    Built by successive multiplication with each geometric factor, which is
    the in-place sparse update c[i] += c[i - j].  The coefficient of x^n is
    p(n).
    """
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    c = [0] * (degree + 1)
    c[0] = 1
    for j in range(1, degree + 1):
        for i in range(j, degree + 1):
            c[i] += c[i - j]
    return TruncatedSeries(tuple(c))


@lru_cache(maxsize=32)
def f_m_series(m: int, degree: int) -> TruncatedSeries:
    """The series sum_j j^m x^j / (1 - x^j); coefficient of x^n is the
    divisor power sum sigma_m(n) = sum of d^m over divisors d of n."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    c = [0] * (degree + 1)
    for j in range(1, degree + 1):
        jm = j**m
        for i in range(j, degree + 1, j):
            c[i] += jm
    return TruncatedSeries(tuple(c))


def moment_coefficient(m: int, n: int) -> int:
    """Coefficient of x^n in euler_series * f_m_series.

    Equals p(n) times the expected m-th power sum of the parts of a uniform
    random partition of n; for m = 1 it is n * p(n) identically.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    g = euler_series(n).coeffs
    f = f_m_series(m, n).coeffs
    return sum(f[k] * g[n - k] for k in range(1, n + 1))
