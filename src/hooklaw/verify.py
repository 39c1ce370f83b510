"""End-to-end verification checks, shared by `hooklaw verify` and the
acceptance test suite, on numpy alone: the chi-square tail and the
quadrature oracle are computed in closed form here.

Each check returns (passed, detail).  Quick mode runs reduced-scale
variants (target: under a minute); full mode runs every check at its
contractual scale (target: well under thirty minutes).
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import asymptotics, exact, limitlaw, sampling, series
from .partitions import Cell, Partition, conjugate, hook_length

VERIFY_SEED = 20250810

CheckFn = Callable[[int | None, bool], tuple[bool, str]]


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    detail: str
    seconds: float


def check_hook_powersum_identity(threads: int | None, quick: bool) -> tuple[bool, str]:
    """Sum of h^m over all (partition, cell) pairs equals the sum of
    lambda_j^(m+1) over all partitions, exactly."""
    nmax = 8 if quick else 12
    for n in range(1, nmax + 1):
        hooks = exact.exact_hook_distribution(n)
        for m in range(1, 5):
            if n * hooks.moment(m) != exact.moment_Y(n, m + 1):
                return False, f"identity broken at n={n}, m={m}"
    return True, f"exact for n <= {nmax}, m <= 4"


def check_series_moment_oracle(threads: int | None, quick: bool) -> tuple[bool, str]:
    """Series coefficients against enumeration moments, and the m=1
    coefficient identity [x^n](g F_1) = n p(n) on a long range."""
    nmax = 10 if quick else 12
    for n in range(1, nmax + 1):
        pn = exact.partition_count(n)
        for m in range(1, 5):
            coeff = series.moment_coefficient(m, n)
            if Fraction(coeff, pn) != exact.moment_Y(n, m):
                return False, f"coefficient mismatch at n={n}, m={m}"
    deg = 300 if quick else 2000
    product = series.euler_series(deg) * series.f_m_series(1, deg)
    for n in range(1, deg + 1):
        if product.coeffs[n] != n * exact.partition_count(n):
            return False, f"[x^{n}](g*F_1) != n p(n)"
    return True, f"enumeration match to n={nmax}, m<=4; n p(n) identity to n={deg}"


def check_conjugate_hook_example(threads: int | None, quick: bool) -> tuple[bool, str]:
    """The worked 22-cell example: conjugate and one hook value."""
    lam = Partition((5, 4, 3, 3, 2, 2, 2, 1))
    if conjugate(lam).parts != (8, 7, 4, 2, 1):
        return False, f"conjugate gave {conjugate(lam).parts}"
    h = hook_length(lam, Cell(3, 2))
    if h != 6:
        return False, f"hook of (3,2) gave {h}"
    return True, "conjugate (8,7,4,2,1) and hook 6 reproduced"


def check_partition_count_routes(threads: int | None, quick: bool) -> tuple[bool, str]:
    """Recurrence vs enumeration, the pinned p(100), and the first-order
    estimate overshooting by a few percent and shrinking."""
    nmax = 25 if quick else 40
    for n in range(nmax + 1):
        if exact.partition_count(n) != sum(1 for _ in exact.iter_partitions(n)):
            return False, f"recurrence != enumeration at n={n}"
    if exact.partition_count(100) != 190569292:
        return False, f"p(100) = {exact.partition_count(100)}"
    ratios = []
    for n in (100, 1000, 10000):
        ratio = math.exp(
            asymptotics.log_hardy_ramanujan(n) - math.log(exact.partition_count(n))
        )
        ratios.append(ratio)
    if not 1.0 < ratios[0] < 1.10:
        return False, f"first-order ratio at n=100 is {ratios[0]:.4f}"
    if not ratios[0] > ratios[1] > ratios[2] > 1.0:
        return False, f"ratios not decreasing toward 1: {ratios}"
    return True, (
        f"enumeration match to n={nmax}; p(100) pinned; "
        f"estimate ratios {ratios[0]:.4f} > {ratios[1]:.4f} > {ratios[2]:.4f} > 1"
    )


def check_saddle_machinery(threads: int | None, quick: bool) -> tuple[bool, str]:
    """Saddle residuals, the two-term expansion gap, the curvature scaling,
    and the coefficient estimate against exact counts."""
    sizes = (100, 1000) if quick else (100, 1000, 10000)
    for n in sizes:
        sol = asymptotics.solve_saddle(n)
        if sol.residual > 1e-8 * n:
            return False, f"saddle residual {sol.residual} at n={n}"
    gap_sizes = (100, 1000, 10000) if quick else (100, 1000, 10000, 100000)
    scaled_gaps = [
        n * abs(asymptotics.solve_saddle(n).d_n - asymptotics.d_n_expansion(n))
        for n in gap_sizes
    ]
    if not all(a > b for a, b in zip(scaled_gaps, scaled_gaps[1:])):
        return False, f"expansion gap not o(1/n): n*gap = {scaled_gaps}"
    target = 2.0 * math.sqrt(6.0) / math.pi
    bn = asymptotics.solve_saddle(10000).b_val / 10000**1.5
    if abs(bn / target - 1.0) > 0.05:
        return False, f"b scaling {bn:.4f} vs {target:.4f} off by >5%"
    est100 = math.exp(
        asymptotics.log_hayman_pn_estimate(100) - math.log(exact.partition_count(100))
    )
    est1000 = math.exp(
        asymptotics.log_hayman_pn_estimate(1000) - math.log(exact.partition_count(1000))
    )
    if abs(est100 - 1.0) > 0.02:
        return False, f"coefficient estimate at n=100 off by {abs(est100-1):.4f}"
    if abs(est1000 - 1.0) >= abs(est100 - 1.0):
        return False, "coefficient estimate not improving at n=1000"
    return True, (
        f"residuals ok; n*gap decreasing {['%.4f' % g for g in scaled_gaps]}; "
        f"b/n^1.5 = {bn:.4f}; estimate ratios {est100:.4f} -> {est1000:.4f}"
    )


def check_moment_asymptotic_gf(threads: int | None, quick: bool) -> tuple[bool, str]:
    """Exact scaled mean hook at a fixed large n against the limit mean,
    through the generating-function route."""
    n = 500 if quick else 2000
    coeff = series.moment_coefficient(2, n)
    pn = exact.partition_count(n)
    mean_scaled = math.pi * coeff / (pn * n * math.sqrt(6.0 * n))
    rel = abs(mean_scaled / limitlaw.LIMIT_MEAN - 1.0)
    if rel > 0.10:
        return False, f"scaled mean {mean_scaled:.5f} off the limit by {rel:.2%}"
    return True, f"scaled mean at n={n}: {mean_scaled:.5f} vs {limitlaw.LIMIT_MEAN:.5f} ({rel:.2%})"


def check_limit_monte_carlo(threads: int | None, quick: bool) -> tuple[bool, str]:
    """The weak-convergence property test: KS distance to the limit law
    strictly decreasing in n, and the scaled sample mean at the largest n
    within 3% of the limit mean with its 3-sigma band."""
    if quick:
        sizes, count, mean_n = (100, 1000), 20000, 1000
    else:
        sizes, count, mean_n = (100, 1000, 10000), 100000, 100000
    # one sample per distinct n, read by both the KS distances and the mean
    samples = {}
    for n in dict.fromkeys(sizes + (mean_n,)):
        cfg = sampling.SamplerConfig(n=n, algorithm=sampling.EXACT_RECURSIVE, seed=VERIFY_SEED)
        samples[n] = np.array([o.scaled for o in sampling.sample_hooks(cfg, count, threads=threads)])
    distances = [limitlaw.ks_statistic(samples[n]).ks_distance for n in sizes]
    if not all(a > b for a, b in zip(distances, distances[1:])):
        return False, f"KS not strictly decreasing: {distances}"
    scaled = samples[mean_n]
    mean = float(scaled.mean())
    band = 3.0 * float(scaled.std(ddof=1)) / math.sqrt(len(scaled))
    target = limitlaw.LIMIT_MEAN
    if abs(mean - target) + band > 0.03 * target:
        return False, (
            f"mean {mean:.5f} +- {band:.5f} not within 3% of {target:.5f}"
        )
    ks_txt = ", ".join(f"KS(n={n})={d:.4f}" for n, d in zip(sizes, distances))
    return True, f"{ks_txt}; mean(n={mean_n}) = {mean:.5f} +- {band:.5f} vs {target:.5f}"


def _partition_chisq(algorithm: str, count: int) -> float:
    classes = [p.parts for p in exact.iter_partitions(5)]
    cfg = sampling.SamplerConfig(n=5, algorithm=algorithm, seed=VERIFY_SEED)
    freq = Counter(
        sampling.sample_partition(cfg, sampling.stream(cfg.seed, trial)).parts
        for trial in range(count)
    )
    expected = count / len(classes)
    stat = sum((freq.get(c, 0) - expected) ** 2 / expected for c in classes)
    return _chi2_tail(stat, len(classes) - 1)


def _chi2_tail(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with an even dof 2r: the chance that a
    Poisson count of mean x/2 is below r, e^(-x/2) sum_{i<r} (x/2)^i / i!."""
    if dof <= 0 or dof % 2:
        raise ValueError(f"the closed-form tail needs an even dof, got {dof}")
    h = x / 2.0
    return math.exp(-h) * math.fsum(h**i / math.factorial(i) for i in range(dof // 2))


def _integral(f: Callable[[float], float], a: float, b: float) -> float:
    """The integral of f over [a, b] by 32-node Gauss-Legendre on equal
    panels at most 5 long, exact to rounding for the limit density, which
    is analytic for |Im y| < 2 pi."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(a, b, math.ceil((b - a) / 5.0) + 1)
    half = np.diff(edges)[:, None] / 2
    points = edges[:-1, None] + half * (1 + nodes)
    return float(np.sum(half * weights * np.vectorize(f)(points)))


def check_sampler_uniformity(threads: int | None, quick: bool) -> tuple[bool, str]:
    """Chi-square of sampled partitions against the uniform law on the
    seven partitions of 5, for both algorithms; plus the conditioning
    property of accepted rejection draws."""
    count = 20000 if quick else 100000
    p_exact = _partition_chisq(sampling.EXACT_RECURSIVE, count)
    p_frist = _partition_chisq(sampling.FRISTEDT_REJECTION, count)
    if p_exact <= 0.001 or p_frist <= 0.001:
        return False, f"chi-square p-values {p_exact:.5f} / {p_frist:.5f}"
    cfg = sampling.SamplerConfig(n=37, algorithm=sampling.FRISTEDT_REJECTION, seed=VERIFY_SEED)
    for trial in range(100 if quick else 500):
        p = sampling.sample_partition(cfg, sampling.stream(cfg.seed, trial))
        if p.n != 37:
            return False, f"accepted rejection draw sums to {p.n} != 37"
    return True, f"chi-square p-values: table {p_exact:.4f}, rejection {p_frist:.4f}; conditioning holds"


def check_limit_law_internals(threads: int | None, quick: bool) -> tuple[bool, str]:
    """CDF series vs quadrature, density normalization, the closed second
    moment, and the shape-curve identity."""
    for y in (0.5, 1.0, 2.0, 5.0):
        oracle = _integral(limitlaw.density, 0.0, y)
        if abs(limitlaw.cdf(y) - oracle) > 1e-9:
            return False, f"cdf series vs quadrature differ at y={y}"
    mass = _integral(limitlaw.density, 0.0, 60.0)
    if abs(mass - 1.0) > 1e-10:
        return False, f"density mass {mass} != 1"
    want = 2.0 * math.pi**2 / 5.0
    if abs(limitlaw.limit_moment(2) - want) > 1e-8:
        return False, f"second moment {limitlaw.limit_moment(2)} vs {want}"
    rate = math.pi / math.sqrt(6.0)
    for t in limitlaw.shape_grid(points=50):
        s = asymptotics.limit_shape(float(t))
        resid = abs(math.exp(-rate * s) + math.exp(-rate * t) - 1.0)
        if resid >= 1e-12:
            return False, f"shape identity residual {resid} at t={t}"
    return True, "cdf/quadrature to 1e-9; mass to 1e-10; moment closed form; shape identity to 1e-12"


def check_cli_determinism(threads: int | None, quick: bool) -> tuple[bool, str]:
    """Byte-identical sample output for a repeated invocation and across
    thread counts."""
    count = 200 if quick else 1000
    n = 200 if quick else 1000
    base = [
        sys.executable,
        "-m",
        "hooklaw",
        "sample",
        "--n",
        str(n),
        "--count",
        str(count),
        "--seed",
        "42",
    ]
    runs = []
    for extra in (["--threads", "1"], ["--threads", "1"], ["--threads", "2"]):
        proc = subprocess.run(base + extra, capture_output=True, timeout=600)
        if proc.returncode != 0:
            return False, f"sample exited {proc.returncode}: {proc.stderr[-300:]!r}"
        runs.append(proc.stdout)
    if runs[0] != runs[1]:
        return False, "repeated run differs"
    if runs[0] != runs[2]:
        return False, "output depends on --threads"
    return True, f"byte-identical across repeats and thread counts ({len(runs[0])} bytes)"


CHECKS: tuple[tuple[str, CheckFn], ...] = (
    ("hook-powersum-identity", check_hook_powersum_identity),
    ("series-moment-oracle", check_series_moment_oracle),
    ("conjugate-hook-worked-example", check_conjugate_hook_example),
    ("partition-count-routes", check_partition_count_routes),
    ("saddle-point-machinery", check_saddle_machinery),
    ("moment-asymptotic-gf", check_moment_asymptotic_gf),
    ("scaled-hook-limit-monte-carlo", check_limit_monte_carlo),
    ("sampler-uniformity", check_sampler_uniformity),
    ("limit-law-internals", check_limit_law_internals),
    ("cli-determinism", check_cli_determinism),
)


def run_checks(level: str, threads: int | None) -> list[CheckOutcome]:
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    quick = level == "quick"
    outcomes = []
    for name, fn in CHECKS:
        start = time.perf_counter()
        try:
            passed, detail = fn(threads, quick)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        outcomes.append(CheckOutcome(name, passed, detail, seconds))
        status = "PASS" if passed else "FAIL"
        print(f"{status}  {name:<32} {seconds:7.1f}s  {detail}")
    return outcomes


def verify_all(level: str, threads: int | None) -> int:
    outcomes = run_checks(level, threads)
    failed = [o for o in outcomes if not o.passed]
    if failed:
        print(f"FAILED: {', '.join(o.name for o in failed)}")
        return 1
    print(f"all {len(outcomes)} checks passed ({level})")
    return 0
