"""Saddle-point asymptotics for the partition generating function.

All series over j are evaluated at a real argument x = exp(-d) with an
explicit truncation and a certified geometric/integral tail bound; the
bound is checked on every call and a ToleranceError is raised if it cannot
be met.  Quantities that would overflow a double (anything carrying
exp(n d)) are handled in the log domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceError

_TAIL_RTOL = 1e-12
# exp(-46) ~ 1e-20 leaves the integral-comparison tail bounds comfortably
# below the relative target at every n of interest
_CUTOFF_SCALE = 46.0
# Newton steps stop once they move d by less than this fraction of d
_SADDLE_RTOL = 1e-10


def default_cutoff(d: float) -> int:
    return int(_CUTOFF_SCALE / d) + 1


def _check_tail(tail: float, value: float, what: str) -> None:
    if not tail <= _TAIL_RTOL * abs(value):
        raise ToleranceError(
            f"{what}: certified tail bound {tail:.3e} exceeds "
            f"{_TAIL_RTOL:.0e} of the partial sum {value:.6e}"
        )


def saddle_a(d: float) -> float:
    """The logarithmic-derivative sum a(e^(-d)) = sum_j j x^j / (1 - x^j).

    Strictly decreasing in d.  The tail beyond the cutoff is bounded by
    the integral of t x^t divided by (1 - x) and certified below 1e-12
    relative.
    """
    if d <= 0:
        raise ValueError(f"saddle parameter must be positive, got {d}")
    cutoff = default_cutoff(d)
    j = np.arange(1, cutoff + 1, dtype=float)
    x = np.exp(-j * d)
    value = float(np.sum(j * x / (1.0 - x)))
    # integral bound: sum_{j>J} j x^j <= int_J^inf t e^(-dt) dt, valid since
    # t e^(-dt) decreases for t > 1/d
    tail = math.exp(-d * cutoff) * (cutoff / d + 1.0 / (d * d))
    tail /= -math.expm1(-d)
    _check_tail(tail, value, "saddle_a")
    return value


def saddle_b(d: float) -> float:
    """The variance-like sum b(e^(-d)) = sum_j j^2 x^j / (1 - x^j)^2.

    Equals minus the derivative of saddle_a with respect to d, which the
    Newton refinement in solve_saddle relies on.
    """
    if d <= 0:
        raise ValueError(f"saddle parameter must be positive, got {d}")
    cutoff = _saddle_b_cutoff(d)
    j = np.arange(1, cutoff + 1, dtype=float)
    x = np.exp(-j * d)
    om = 1.0 - x
    value = float(np.sum(j * j * x / (om * om)))
    _check_tail(_saddle_b_tail(d, cutoff), value, "saddle_b")
    return value


def _saddle_b_tail(d: float, cutoff: int) -> float:
    # integral bound on sum_{j>J} j^2 x^j, times the (1 - x)^-2 that bounds
    # 1 / (1 - x^j)^2
    tail = math.exp(-d * cutoff) * (
        cutoff * cutoff / d + 2.0 * cutoff / (d * d) + 2.0 / (d**3)
    )
    return tail / (-math.expm1(-d)) ** 2


def _saddle_b_cutoff(d: float) -> int:
    """default_cutoff(d), unless its tail bound fails against the lower
    bound sum_j j^2 x^j = x (1 + x) / (1 - x)^3 of b.

    At the fixed cutoff the relative tail grows like d^-2 and passes 1e-12
    below d ~ 3e-3 (n ~ 2e5); adding 2 log(1/d) / d to the cutoff
    multiplies the tail by d^2 and cancels that growth.
    """
    cutoff = default_cutoff(d)
    x = math.exp(-d)
    if _saddle_b_tail(d, cutoff) > _TAIL_RTOL * x * (1.0 + x) / (-math.expm1(-d)) ** 3:
        cutoff = int((_CUTOFF_SCALE + 2.0 * math.log(1.0 / d)) / d) + 1
    return cutoff


@dataclass(frozen=True)
class SaddleSolution:
    """Solution of a(e^(-d)) = n with the associated curvature value."""

    n: int
    d_n: float
    a_val: float
    b_val: float
    residual: float


def solve_saddle(n: int) -> SaddleSolution:
    """Root of a(e^(-d)) = n: geometric bisection to a tight bracket, then
    Newton refinement using a'(d) = -b(d).

    a is strictly decreasing in d and spans (far) past both ends of the
    bracket [1e-8, 10] for every supported n, so bracketing cannot fail.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > 10**8:
        raise ValueError(f"n={n} beyond the supported saddle range (1e8)")
    lo, hi = 1e-8, 10.0  # a(1e-8) ~ 1.6e16 > n; a(10) ~ 5e-5 < 1 <= n
    while hi > 1.01 * lo:
        mid = math.sqrt(lo * hi)
        if saddle_a(mid) > n:
            lo = mid
        else:
            hi = mid
    d = math.sqrt(lo * hi)
    for _ in range(60):
        f = saddle_a(d) - n
        step = f / saddle_b(d)
        d += step
        if abs(step) <= _SADDLE_RTOL * d:
            break
    a_val = saddle_a(d)
    b_val = saddle_b(d)
    if not (d > 0 and b_val > 0):
        raise RuntimeError(f"saddle at n={n} left the domain: d={d}, b={b_val}")
    return SaddleSolution(n=n, d_n=d, a_val=a_val, b_val=b_val, residual=abs(a_val - n))


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


def log_euler_product(d: float) -> float:
    """log of the partition generating function at x = e^(-d):
    -sum_j log(1 - x^j), truncated with a certified tail."""
    if d <= 0:
        raise ValueError(f"saddle parameter must be positive, got {d}")
    cutoff = default_cutoff(d)
    j = np.arange(1, cutoff + 1, dtype=float)
    value = float(-np.sum(np.log1p(-np.exp(-j * d))))
    # -log(1-y) <= y/(1-y); geometric sum of x^j beyond the cutoff
    xj = math.exp(-d * (cutoff + 1))
    tail = xj / ((-math.expm1(-d)) * (1.0 - xj))
    _check_tail(tail, value, "log_euler_product")
    return value


def _log_euler_product_expansion(d: float) -> float:
    """Closed-form small-d expansion of log_euler_product, used only as a
    cross-check: zeta(2)/d + (1/2) log d - (1/2) log(2 pi).

    The two constants are the zeta values at 0 (-1/2, multiplying -log d)
    and the derivative there (-(1/2) log 2 pi).
    """
    return ZETA2 / d + 0.5 * math.log(d) - 0.5 * math.log(2 * math.pi)


def log_hayman_pn_estimate(n: int) -> float:
    """log of the saddle-point coefficient estimate
    exp(n d) g(e^(-d)) / sqrt(2 pi b(e^(-d))) at the solved saddle."""
    return _log_hayman_at(solve_saddle(n))


def _log_hayman_at(sol: SaddleSolution) -> float:
    d = sol.d_n
    return sol.n * d + log_euler_product(d) - 0.5 * math.log(2 * math.pi * sol.b_val)


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


def moment_Y_asymptotic(n: int, m: int) -> float:
    """Leading-order expected m-th power sum of the parts:
    (n / zeta(2))^((m+1)/2) * m! * zeta(m+1)."""
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    scale = (n / ZETA2) ** ((m + 1) / 2)
    if m == 1:
        return scale * ZETA2  # zeta(2) exactly; the estimate is exact here
    return scale * math.factorial(m) * zeta(m + 1)


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
