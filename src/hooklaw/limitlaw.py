"""The limiting law of the scaled hook length, and goodness-of-fit tools.

The limit of pi * Z_n / sqrt(6 n) has density 6u / (pi^2 (e^u - 1)) on
(0, inf).  The CDF is evaluated through the exponential expansion of
1/(e^u - 1), integrated term by term, because the Kolmogorov-Smirnov
statistic evaluates it tens of thousands of times per report; adaptive
quadrature of the density is kept in the tests as the independent oracle
for that series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .asymptotics import ZETA2, zeta
from .errors import ToleranceError
from .exact import hook_distribution_via_part_counts

SIX_OVER_PI2 = 6.0 / math.pi**2
LIMIT_MEAN = 12.0 * zeta(3) / math.pi**2  # ~ 1.4616
_QUANTILE_RTOL = 1e-12
# ends of the log-spaced shape grid; s(t) spans ~2.2 down to ~3e-5 here
SHAPE_LO, SHAPE_HI = 0.05, 8.0


def density(u: float) -> float:
    """6u / (pi^2 (e^u - 1)) for u > 0, zero at and below 0.

    The singularity at 0 is removable; below 1e-8 the limit value 6/pi^2
    is returned directly.  The general form would not do there: below
    about 3.7e-308 its first product (6/pi^2) u is subnormal (at u =
    5e-324 the form gives 1.0), and the grouping (6/pi^2) (u / expm1(u)),
    which avoids that, rounds other values differently.
    """
    if u <= 0.0:
        return 0.0
    if u < 1e-8:
        return SIX_OVER_PI2
    if u > 700.0:  # e^u overflows a double; the density is ~ u e^-u here
        return 0.0
    return SIX_OVER_PI2 * u / math.expm1(u)


def cdf(y: float) -> float:
    """(6/pi^2) * integral of u/(e^u - 1) from 0 to y.

    Expanding 1/(e^u - 1) into exp(-k u) and integrating term by term gives
    (6/pi^2) * sum_k [1/k^2 - e^{-ky}(y/k + 1/k^2)]; with the closed value
    of sum 1/k^2 only the exponentially decaying part needs truncation, at
    k ~ 40/y with a certified geometric tail below 1e-12.  Tiny arguments
    (y < 0.01) use the alternating Taylor polynomial of the integrand
    instead, whose next omitted term is already below 1e-12 there.
    """
    if y <= 0.0:
        return 0.0
    if y < 0.01:
        return SIX_OVER_PI2 * (y - y * y / 4.0 + y**3 / 36.0 - y**5 / 3600.0)
    kmax = int(40.0 / y) + 10
    k = np.arange(1.0, kmax + 1.0)
    remainder = float(np.sum(np.exp(-k * y) * (y / k + 1.0 / (k * k))))
    # geometric tail certificate
    knext = kmax + 1.0
    tail = math.exp(-knext * y) * (y / knext + 1.0 / (knext * knext))
    tail /= -math.expm1(-y)
    if not tail <= 1e-12:
        raise ToleranceError(f"cdf tail bound {tail:.3e} not below 1e-12 at y={y}")
    return 1.0 - SIX_OVER_PI2 * remainder


def scale_hook(hook: int, n: int) -> float:
    """The paper's scaling of a hook length: pi * hook / sqrt(6 n)."""
    return math.pi * hook / math.sqrt(6.0 * n)


def exact_sup_distance(n: int) -> float:
    """Sup distance of the exact law of scale_hook(Z_n, n) to the limit CDF,
    taken on both sides of every atom.  The law comes from the counting
    table, so the figure carries no sampling noise: it is the lattice bias
    alone."""
    dist = hook_distribution_via_part_counts(n)
    # the law's CDF from exact integer partial sums, each rounded once
    upto = [acc / dist.total for acc in accumulate(dist.weights.get(k, 0) for k in range(1, n + 1))]
    return _sup_gap([scale_hook(k, n) for k in range(1, n + 1)], [0.0] + upto[:-1], upto)[1]


def _sup_gap(values: Sequence[float], below: Sequence[float], upto: Sequence[float]) -> tuple[int, float]:
    """The sup distance of the limit CDF to a step function, over both
    sides of each of its steps: the steps at ascending values, with the
    step function's value below[i] just left of values[i] and upto[i] at
    it.  Returns the index of the largest gap and that gap."""
    model = np.array([cdf(v) for v in values])
    gaps = np.maximum(np.abs(model - upto), np.abs(model - below))
    at = int(np.argmax(gaps))
    return at, float(gaps[at])


def limit_moment(m: int) -> float:
    """m-th moment of the limit law: (m+1)! zeta(m+2) / zeta(2)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return math.factorial(m + 1) * zeta(m + 2) / ZETA2


def quantile(prob: float) -> float:
    """Inverse CDF by bisection; the bracket [0, 120] covers all of (0, 1)
    doubles since 1 - cdf(120) underflows."""
    if not 0.0 < prob < 1.0:
        raise ValueError(f"quantile needs a probability in (0,1), got {prob}")
    lo, hi = 0.0, 120.0
    while hi - lo > _QUANTILE_RTOL * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class GofReport:
    """Goodness-of-fit summary of a batch of scaled hook observations.
    ks_reference is 1.95/sqrt(sample_count), the KS distance that a sample
    of that size from the law it is compared with exceeds with chance about
    0.001 (Kolmogorov's limit law)."""

    n: int | None
    sample_count: int
    ks_distance: float
    ks_location: float
    ks_reference: float
    mean_scaled: float
    moment_ratios: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.ks_distance <= 1.0:
            raise ValueError(f"KS distance must be in [0,1], got {self.ks_distance}")


def ks_statistic(sample: Sequence[float], n: int | None = None) -> GofReport:
    """Two-sided Kolmogorov-Smirnov distance between the empirical law of
    the sample and the limit CDF, with the location of the supremum and the
    first two sample-to-limit moment ratios.

    No p-value is attached: at finite n the sample is not drawn from the
    limit law, so the report leaves significance to the caller, with the
    reference line ks_reference to compare against.
    """
    if len(sample) == 0:
        raise ValueError("ks_statistic requires a nonempty sample")
    data = np.asarray(sample, dtype=float)
    count = data.size
    values, multiplicity = np.unique(data, return_counts=True)
    ecdf_hi = np.cumsum(multiplicity) / count
    at, gap = _sup_gap(values, ecdf_hi - multiplicity / count, ecdf_hi)
    mean = float(data.mean())
    msq = float(np.mean(data**2))
    return GofReport(
        n=n,
        sample_count=count,
        ks_distance=gap,
        ks_location=float(values[at]),
        ks_reference=1.95 / math.sqrt(count),
        mean_scaled=mean,
        moment_ratios=(mean / limit_moment(1), msq / limit_moment(2)),
    )


def shape_grid(points: int = 400) -> np.ndarray:
    """Log-spaced abscissas from SHAPE_LO to SHAPE_HI on which diagram
    profiles are compared to the limit curve."""
    return np.geomspace(SHAPE_LO, SHAPE_HI, points)
