"""Truncated power series with exact integer coefficients.

This is the independent route to the partition moments: the Euler product
carries p(n) at x^n, the Lambert-type series F_m carries the divisor power
sums sigma_m(n), and the coefficient of x^n in their product equals p(n)
times the expected m-th power sum of a uniform random partition of n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator


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
        """The product by Kronecker substitution: each operand is packed
        into one integer, coefficient i at bit i * w, the two integers are
        multiplied once, and the product's coefficients are read back from
        its slots, negative ones too.

        With A = max(1, |a_i|) and B = max(1, |b_j|), a product coefficient,
        a sum of at most deg + 1 terms, and every operand coefficient are
        below bound = (deg + 1) A B + 1; the slot width w is the bits of
        bound plus a sign bit, rounded up to whole bytes (w = 8 width).
        """
        deg = min(len(self.coeffs), len(other.coeffs)) - 1
        a = self.coeffs[: deg + 1]
        b = other.coeffs[: deg + 1]
        bound = (deg + 1) * max(1, *map(abs, a)) * max(1, *map(abs, b)) + 1
        width = bound.bit_length() // 8 + 1  # bytes per slot
        half = 1 << (8 * width - 1)
        # every slot of product + bias holds c_k + half, in [0, 2 half)
        bias = int.from_bytes((bytes(width - 1) + b"\x80") * (deg + 1), "little")
        product = _pack(a, width) * _pack(b, width) + bias
        return TruncatedSeries(tuple(c - half for c in _unpack(product, width, deg + 1)))


def _pack(coeffs: tuple[int, ...], width: int) -> int:
    """sum_i coeffs[i] 2^(8 width i), for slots of width bytes that hold
    every |coeffs[i]|."""
    zero = bytes(width)
    pos = b"".join(c.to_bytes(width, "little") if c > 0 else zero for c in coeffs)
    neg = b"".join((-c).to_bytes(width, "little") if c < 0 else zero for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(packed: int, width: int, count: int) -> Iterator[int]:
    """The first count slots of width bytes of a nonnegative packed int, as
    unsigned integers from slot 0 up; the slots above them, which every
    higher term of a product fills, are ignored."""
    size = width * count
    raw = (packed & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    return (int.from_bytes(raw[k : k + width], "little") for k in range(0, size, width))


def _euler_slot_bytes(degree: int) -> int:
    """Bytes per slot of euler_series: the bits of the a-priori bound
    p(n) < exp(pi sqrt(2n/3)) (Apostol, Introduction to Analytic Number
    Theory, ch. 14) at n = degree, rounded up to whole bytes."""
    return int(math.pi * math.sqrt(2 * degree / 3) / math.log(2)) // 8 + 1


@lru_cache(maxsize=8)
def euler_series(degree: int) -> TruncatedSeries:
    """The partition generating function: product over j of (1 - x^j)^(-1).

    The coefficients are packed into one integer, x^i in slot i of w =
    8 _euler_slot_bytes(degree) bits.  Each factor 1 / (1 - x^j) is applied
    as (1 + x^j)(1 + x^2j)(1 + x^4j)... up to x^degree, by doubling: one
    shift-add c += c << (w j 2^k) per binomial, of only the slots that land
    at or below x^degree.  Every partial product has nonnegative
    coefficients, at most p(i) <= p(degree) at x^i, so each fits its slot
    and none carries into the next.  The coefficient of x^n is p(n).
    """
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    width = _euler_slot_bytes(degree)
    w = 8 * width
    c = 1
    for j in range(1, degree + 1):
        s = j
        while s <= degree:
            c += (c & ((1 << w * (degree + 1 - s)) - 1)) << w * s
            s <<= 1
    return TruncatedSeries(tuple(_unpack(c, width, degree + 1)))


def f_m_series(m: int, degree: int) -> TruncatedSeries:
    """The series sum_j j^m x^j / (1 - x^j); coefficient of x^n is the
    divisor power sum sigma_m(n) = sum of d^m over divisors d of n, and
    the constant term is 0."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
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
