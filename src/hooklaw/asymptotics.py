"""Saddle-point asymptotics for the partition generating function.

All series over j are evaluated at a real argument x = exp(-d) with an
explicit truncation.  The three series (a, b and log g) share one cutoff
rule and one summation kernel, _series, which adds the terms in fixed-size
blocks, so memory stays flat however many terms a small d needs, and
certifies the tail on every call with one integral bound for terms of at
most j^p x^j / (1 - x)^q, raising ToleranceError if it cannot be met.
Quantities that would overflow a double (anything carrying exp(n d)) are
handled in the log domain.

log_partition_counts gives log p(m) in floats from the first term of the
Hardy-Ramanujan-Rademacher series, within a stated error budget, evaluated
in slices of the same fixed size, so its only n-length array is its output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceError
from .exact import partition_counts

_TAIL_RTOL = 1e-12
# a cutoff J with d J = 46 + 2 log(1/d) gives x^J = e^(-46) d^2 ~ 1e-20 d^2;
# the d^2 cancels the growth of b's relative tail bound, which scales like
# d^-2 and would pass 1e-12 near d ~ 3e-3 (n ~ 2e5) with 46/d alone
_CUTOFF_SCALE = 46.0
# terms per block of the series kernel, and values per slice of
# log_partition_counts: bounds their arrays at any n
_BLOCK = 1 << 14
# Newton steps stop once they move d by less than this fraction of d
_SADDLE_RTOL = 1e-10


def default_cutoff(d: float) -> int:
    return int((_CUTOFF_SCALE + 2.0 * max(0.0, math.log(1.0 / d))) / d) + 1


def _series(what: str, d: float, term, p: int, q: int) -> float:
    """sum_{j=1..J} term(j, e^(-j d)) with J = default_cutoff(d), summed in
    blocks of _BLOCK terms, for a term of at most j^p x^j / (1 - x)^q.

    t^p e^(-dt) decreases past p/d < J, so the tail past J is at most
    (1 - x)^-q times its integral from J, which is e^(-dJ) I_p with

        I_0 = 1/d,  I_k = (J^k + k I_(k-1)) / d   (by parts),

    that is e^(-dJ) sum_{i=0..p} p!/(p-i)! J^(p-i) / d^(i+1); a
    ToleranceError names `what` unless this is within _TAIL_RTOL of the sum.
    """
    if d <= 0:
        raise ValueError(f"saddle parameter must be positive, got {d}")
    cutoff = default_cutoff(d)
    value = 0.0
    for start in range(1, cutoff + 1, _BLOCK):
        j = np.arange(start, min(start + _BLOCK, cutoff + 1), dtype=float)
        value += float(np.sum(term(j, np.exp(-j * d))))
    tail = 1.0 / d
    for k in range(1, p + 1):
        tail = (cutoff**k + k * tail) / d
    tail *= math.exp(-d * cutoff) / (-math.expm1(-d)) ** q
    if not tail <= _TAIL_RTOL * abs(value):
        raise ToleranceError(
            f"{what}: certified tail bound {tail:.3e} exceeds "
            f"{_TAIL_RTOL:.0e} of the partial sum {value:.6e}"
        )
    return value


def saddle_a(d: float) -> float:
    """The logarithmic-derivative sum a(e^(-d)) = sum_j j x^j / (1 - x^j).

    Strictly decreasing in d.
    """
    return _series("saddle_a", d, lambda j, x: j * x / (1.0 - x), 1, 1)


def saddle_b(d: float) -> float:
    """The variance-like sum b(e^(-d)) = sum_j j^2 x^j / (1 - x^j)^2.

    Equals minus the derivative of saddle_a with respect to d, which the
    Newton refinement in solve_saddle relies on.
    """
    return _series("saddle_b", d, lambda j, x: j * j * x / ((1.0 - x) * (1.0 - x)), 2, 2)


@dataclass(frozen=True)
class SaddleSolution:
    """Solution of a(e^(-d)) = n with the associated curvature value and the
    residual |a(e^(-d)) - n|."""

    n: int
    d_n: float
    b_val: float
    residual: float


def solve_saddle(n: int) -> SaddleSolution:
    """Root of a(e^(-d)) = n by Newton's method on d, using a'(d) = -b(d).

    a is strictly decreasing and convex in d, so each tangent meets the
    level n at or left of the root: Newton steps started left of the root
    rise monotonically to it, with no bracket needed.  The start is
    d_n_expansion(n), which lies below the root for every supported n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > 10**8:
        raise ValueError(f"n={n} beyond the supported saddle range (1e8)")
    d = d_n_expansion(n)
    for _ in range(60):
        f = saddle_a(d) - n
        step = f / saddle_b(d)
        d += step
        if abs(step) <= _SADDLE_RTOL * d:
            break
    b_val = saddle_b(d)
    if not (d > 0 and b_val > 0):
        raise RuntimeError(f"saddle at n={n} left the domain: d={d}, b={b_val}")
    return SaddleSolution(n=n, d_n=d, b_val=b_val, residual=abs(saddle_a(d) - n))


def d_n_expansion(n: int) -> float:
    """Two-term expansion of the saddle parameter: pi/sqrt(6n) - 1/(4n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.pi / math.sqrt(6 * n) - 1.0 / (4 * n)


def log_hardy_ramanujan(n: int) -> float:
    """log of the classical first-order estimate exp(pi sqrt(2n/3))/(4n sqrt(3))."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.pi * math.sqrt(2 * n / 3) - math.log(4 * n * math.sqrt(3))


# from this m on, log_partition_counts takes Rademacher's first term in place
# of the exact count
RADEMACHER_FROM = 1000


def log_partition_counts(n: int) -> np.ndarray:
    """log p(m) for m = 0..n in floats, with no big integer past p(999):
    math.log of the exact p(m) below RADEMACHER_FROM, and from there the
    k = 1 term of the Hardy-Ramanujan-Rademacher series,

        log p(m) ~ x - log 2 + log(x - 1) - 3 log(lam) - log(2 pi sqrt 2),
        lam = sqrt(m - 1/24),  x = pi sqrt(2m/3 - 1/36) = pi lam sqrt(2/3).

    The error budget, log_partition_error, has two parts:

    * the omitted terms k >= 2, relatively O(e^(-x/2)) (Lehmer, "On the
      series for the partition function", Trans. AMS 1938).  Measured
      against the exact p(m), they are 0.70 e^(-x/2) for 50 <= m <= 1200;
      from m = 1000 on, x >= 81 and they are below 1e-17.
    * the float error of the evaluation, which grows with x: x carries
      about three roundings relative to its size and each of the four
      sums one more at the scale of x, so the error is below x 2^-50.
      Measured: at most 2.3e-13, or 4.0 x 2^-53, over every
      1000 <= m <= 1e5 against math.log of the exact p(m), and at most
      4.9 x 2^-53 against the first term in 40-digit arithmetic at
      about 21,000 m up to 1.3e6.
    Below RADEMACHER_FROM the error is math.log's, under log p(m) 2^-52.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    log_p = np.empty(n + 1)
    log_p[: min(n, RADEMACHER_FROM - 1) + 1] = [
        math.log(v) for v in partition_counts(min(n, RADEMACHER_FROM - 1))
    ]
    # in slices of _BLOCK values, so that no temporary grows with n
    for lo in range(RADEMACHER_FROM, n + 1, _BLOCK):
        m = np.arange(lo, min(lo + _BLOCK, n + 1), dtype=float)
        x = math.pi * np.sqrt(2 * m / 3 - 1 / 36)
        log_p[lo : lo + len(m)] = (
            x - math.log(2) + np.log(x - 1) - 3 * np.log(np.sqrt(m - 1 / 24))
            - math.log(2 * math.pi * math.sqrt(2))
        )
    return log_p


def log_partition_error(n: int) -> float:
    """The error budget of log_partition_counts(n), over every m <= n:
    x 2^-50 + 1e-17 at x = pi sqrt(2n/3), which bounds both parts."""
    return math.pi * math.sqrt(2 * n / 3) * 2.0**-50 + 1e-17


def log_euler_product(d: float) -> float:
    """log of the partition generating function at x = e^(-d):
    -sum_j log(1 - x^j), truncated with a certified tail; its terms are at
    most x^j / (1 - x), since -log(1 - y) <= y / (1 - y)."""
    return _series("log_euler_product", d, lambda j, x: -np.log1p(-x), 0, 1)


def log_hayman_pn_estimate(n: int) -> float:
    """log of the saddle-point coefficient estimate
    exp(n d) g(e^(-d)) / sqrt(2 pi b(e^(-d))) at the solved saddle."""
    sol = solve_saddle(n)
    d = sol.d_n
    return n * d + log_euler_product(d) - 0.5 * math.log(2 * math.pi * sol.b_val)


# Bernoulli numbers B_2, B_4, B_6, B_8 for the Euler-Maclaurin tail
_B2K = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30)


def zeta(m: int) -> float:
    """zeta(m) for integer m >= 2 by direct summation with an
    Euler-Maclaurin tail correction; good to 12 significant digits."""
    m = int(m)
    if m < 2:
        raise ValueError(f"zeta is only provided for integer m >= 2, got {m}")
    N = 40
    s = sum(k ** (-float(m)) for k in range(1, N))
    # tail from N: integral + half term + Bernoulli corrections
    s += N ** (1.0 - m) / (m - 1.0)
    s += 0.5 * N ** (-float(m))
    poch = float(m)
    npow = float(N) ** (-(m + 1))
    fact = 1.0
    for k, b2k in enumerate(_B2K, start=1):
        fact *= (2 * k - 1) * (2 * k)
        s += b2k / fact * poch * npow
        poch *= (m + 2 * k - 1) * (m + 2 * k)
        npow /= N * N
    return s


ZETA2 = math.pi**2 / 6


_SHAPE_RATE = math.pi / math.sqrt(6.0)


def limit_shape(t: float) -> float:
    """The scaled boundary curve of a typical diagram, defined by the
    symmetric relation exp(-pi s / sqrt(6)) + exp(-pi t / sqrt(6)) = 1:
    s(t) = -(sqrt(6)/pi) log(1 - exp(-pi t / sqrt(6))), for t > 0.

    The relation is symmetric in (s, t), so the curve is an involution.
    """
    if t <= 0:
        raise ValueError(f"the limit-shape curve diverges at t <= 0, got {t}")
    return -math.log(-math.expm1(-_SHAPE_RATE * t)) / _SHAPE_RATE
