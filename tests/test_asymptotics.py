import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from hooklaw import asymptotics
from hooklaw.asymptotics import (
    ZETA2,
    d_n_expansion,
    limit_shape,
    log_euler_product,
    log_hardy_ramanujan,
    log_hayman_pn_estimate,
    saddle_a,
    saddle_b,
    solve_saddle,
    zeta,
)
from hooklaw.errors import ToleranceError
from hooklaw.exact import partition_count, partition_counts
from hooklaw.series import f_m_series

RATE = math.pi / math.sqrt(6.0)


def test_zeta_closed_forms():
    assert zeta(2) == pytest.approx(math.pi**2 / 6, rel=1e-12)
    assert zeta(4) == pytest.approx(math.pi**4 / 90, rel=1e-12)
    assert ZETA2 * 6 / math.pi**2 == pytest.approx(1.0, abs=1e-10)


def test_zeta_against_mpmath():
    for m in range(2, 12):
        assert zeta(m) == pytest.approx(float(mpmath.zeta(m)), rel=1e-12)


def test_zeta_domain():
    with pytest.raises(ValueError):
        zeta(1)
    with pytest.raises(ValueError):
        zeta(0)


def test_saddle_a_monotone_and_vanishing():
    assert saddle_a(0.2) > saddle_a(0.3)
    assert saddle_a(40.0) < 1e-15
    with pytest.raises(ValueError):
        saddle_a(0.0)


def test_saddle_a_leading_order():
    # integral comparison: a(e^-d) ~ zeta(2)/d^2; at d = pi/sqrt(6) that is 1
    d = math.pi / math.sqrt(6)
    assert saddle_a(d) == pytest.approx(ZETA2 / d**2, rel=0.35)


def test_saddle_a_equals_lambert_series_route():
    # two-route check: the logarithmic-derivative sum equals the
    # divisor-sum series sum sigma_1(k) x^k at a real argument
    for d in (0.5, 0.2, 0.1):
        x = math.exp(-d)
        deg = int(60 / d)
        f1 = f_m_series(1, deg)
        other = sum(f1.coeffs[k] * x**k for k in range(1, deg + 1))
        assert saddle_a(d) == pytest.approx(other, rel=1e-10)


def test_saddle_a_cutoff_tolerance(monkeypatch):
    # a cutoff of 20 terms at d = 0.1 leaves a tail far above 1e-12 relative
    monkeypatch.setattr(asymptotics, "default_cutoff", lambda d: 20)
    with pytest.raises(ToleranceError):
        saddle_a(0.1)
    with pytest.raises(ToleranceError):
        log_euler_product(0.1)
    with pytest.raises(ToleranceError):
        saddle_b(0.1)


SERIES_TERMS = (
    (saddle_a, lambda j, x: j * x / (1.0 - x)),
    (saddle_b, lambda j, x: j * j * x / (1.0 - x) ** 2),
    (log_euler_product, lambda j, x: -np.log1p(-x)),
)


@pytest.mark.parametrize("n", [1, 10, 10**3, 10**5])
def test_tail_certificate_bounds_the_true_tail(monkeypatch, n):
    # with the tolerance set to the true tail's share of the sum, a
    # certificate that bounds the tail exceeds it and raises; the true tail
    # is the fsum of the terms past the cutoff, to e^-60 of its first term
    d = solve_saddle(n).d_n
    cutoff = asymptotics.default_cutoff(d)
    j = np.arange(cutoff + 1, cutoff + 2 + math.ceil(60 / d), dtype=float)
    x = np.exp(-j * d)
    for series, term in SERIES_TERMS:
        true_tail = math.fsum(term(j, x))
        assert true_tail > 0, series.__name__
        monkeypatch.setattr(asymptotics, "_TAIL_RTOL", true_tail / series(d))
        with pytest.raises(ToleranceError, match=series.__name__):
            series(d)
        monkeypatch.undo()


def test_series_memory_flat_at_largest_n():
    # the cutoff at n = 1e8 is about 5e5 terms; summed in blocks, no series
    # holds more than a block's arrays at once
    d = d_n_expansion(10**8)
    for series, _ in SERIES_TERMS:
        tracemalloc.start()
        try:
            series(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, (series.__name__, peak)


def test_series_block_edges_match_fsum():
    # about 1.5e5 terms, about ten blocks: a term dropped or repeated at a
    # block edge moves a by about 2e-6 relative
    d = solve_saddle(10**7).d_n
    j = np.arange(1, asymptotics.default_cutoff(d) + 1, dtype=float)
    x = np.exp(-j * d)
    for series, term in SERIES_TERMS:
        reference = math.fsum(term(j, x))
        assert series(d) == pytest.approx(reference, rel=1e-13), series.__name__


def test_solve_saddle_residuals():
    for n in (10, 100, 1000, 10000):
        sol = solve_saddle(n)
        assert sol.residual <= 1e-8 * n


@pytest.mark.parametrize("n", [3 * 10**5, 10**6, 10**7])
def test_solve_saddle_certified_at_large_n(n):
    # a cutoff of 46/d alone would not certify saddle_b's tail here
    sol = solve_saddle(n)
    assert sol.residual <= 1e-8 * n
    assert abs(sol.d_n / d_n_expansion(n) - 1.0) <= 1.0 / n
    assert abs(log_hayman_pn_estimate(n) - log_hardy_ramanujan(n)) <= 1.0 / math.sqrt(n)


def test_d_n_expansion_lies_below_the_saddle():
    # solve_saddle starts Newton at d_n_expansion(n): a is decreasing and
    # convex in d, so the iteration rises monotonically to the root only
    # from a start left of it
    sizes = list(range(1, 201)) + [round(10 ** (2.5 + k / 4)) for k in range(23)]
    assert sizes[-1] == 10**8
    for n in sizes:
        assert d_n_expansion(n) < solve_saddle(n).d_n, n


def test_solve_saddle_monotone_in_n():
    ds = [solve_saddle(n).d_n for n in (10, 30, 100, 300, 1000)]
    assert all(a > b for a, b in zip(ds, ds[1:]))


def test_d_100_near_expansion():
    assert d_n_expansion(100) == pytest.approx(0.12576, abs=1e-4)
    assert abs(solve_saddle(100).d_n - d_n_expansion(100)) < 2e-3


def test_d_n_expansion_values():
    assert d_n_expansion(1) == pytest.approx(math.pi / math.sqrt(6) - 0.25, rel=1e-12)
    assert d_n_expansion(60000) == pytest.approx(
        math.pi / 600 - 1 / 240000, rel=1e-12
    )


def test_expansion_gap_shrinks_faster_than_1_over_n():
    gaps = [
        n * abs(solve_saddle(n).d_n - d_n_expansion(n))
        for n in (100, 1000, 10000, 100000)
    ]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_b_scaling():
    sol = solve_saddle(10000)
    assert sol.b_val / 10000**1.5 == pytest.approx(2 * math.sqrt(6) / math.pi, rel=0.05)
    assert sol.b_val > 0
    # b equals the negated derivative of a (finite difference check)
    d = sol.d_n
    eps = 1e-6 * d
    fd = (saddle_a(d - eps) - saddle_a(d + eps)) / (2 * eps)
    assert saddle_b(d) == pytest.approx(fd, rel=1e-5)


def test_hardy_ramanujan_ratios():
    r100 = math.exp(log_hardy_ramanujan(100) - math.log(partition_count(100)))
    assert 1.00 < r100 < 1.10
    ratios = [
        math.exp(log_hardy_ramanujan(n) - math.log(partition_count(n)))
        for n in (100, 1000, 10000)
    ]
    assert ratios[0] > ratios[1] > ratios[2] > 1.0


def test_hardy_ramanujan_log_dominant_term():
    rels = [
        abs(log_hardy_ramanujan(n) / (math.pi * math.sqrt(2 * n / 3)) - 1.0)
        for n in (10**4, 10**6, 10**8)
    ]
    assert rels[0] > rels[1] > rels[2]
    assert rels[1] < 1e-2


def test_hayman_estimate_accuracy():
    est = math.exp(log_hayman_pn_estimate(100) - math.log(partition_count(100)))
    assert abs(est - 1.0) < 0.02
    est1000 = math.exp(log_hayman_pn_estimate(1000) - math.log(partition_count(1000)))
    assert abs(est1000 - 1.0) < abs(est - 1.0)


def test_hayman_agrees_with_hardy_ramanujan_asymptotically():
    ratios = [
        math.exp(log_hayman_pn_estimate(n) - log_hardy_ramanujan(n))
        for n in (100, 1000, 10000)
    ]
    assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)
    assert ratios[-1] == pytest.approx(1.0, abs=0.02)


def test_hayman_ratio_window():
    for n in (50, 200, 800, 2000):
        ratio = math.exp(log_hayman_pn_estimate(n) - math.log(partition_count(n)))
        assert 0.9 < ratio < 1.1


def test_log_partition_counts_within_budget_to_1e5():
    # below 1000 the values are math.log of the exact counts; from there
    # every m up to 1e5 is within the stated budget of math.log(p(m))
    n = 10**5
    log_p = asymptotics.log_partition_counts(n)
    table = partition_counts(n)
    assert log_p[:1000].tolist() == [math.log(v) for v in table[:1000]]
    for m in range(1000, n + 1):
        assert abs(log_p[m] - math.log(table[m])) <= asymptotics.log_partition_error(m), m


@pytest.mark.parametrize("n", [999, 1000 + 2**14, 200_000])
def test_log_partition_counts_slices_are_the_one_shot_table(n):
    # the Rademacher values, computed in slices of 2^14, are bit for bit
    # the one-shot expression over all of 1000..n: none, exactly one slice,
    # and a partial last slice
    m = np.arange(1000, n + 1, dtype=float)
    x = math.pi * np.sqrt(2 * m / 3 - 1 / 36)
    whole = (x - math.log(2) + np.log(x - 1) - 3 * np.log(np.sqrt(m - 1 / 24))
             - math.log(2 * math.pi * math.sqrt(2)))
    log_p = asymptotics.log_partition_counts(n)
    assert len(log_p) == n + 1
    assert np.array_equal(log_p[1000:], whole)


def test_log_partition_float_error_within_budget_to_1_3e6():
    # past the exact table, the float evaluation against the Rademacher
    # first term in 40-digit arithmetic; the omitted terms are below 1e-17
    n = 1_300_000
    log_p = asymptotics.log_partition_counts(n)
    rng = np.random.default_rng(5)
    ms = sorted({1000, n, *rng.integers(1000, n, 300).tolist(), *range(n - 100, n)})
    with mpmath.workdps(40):
        for m in ms:
            lam = mpmath.sqrt(mpmath.mpf(m) - mpmath.mpf(1) / 24)
            x = mpmath.pi * mpmath.sqrt(mpmath.mpf(2) / 3) * lam
            ref = x - mpmath.log(2) + mpmath.log(x - 1) - 3 * mpmath.log(lam)
            ref -= mpmath.log(2 * mpmath.pi * mpmath.sqrt(2))
            assert abs(log_p[m] - ref) <= asymptotics.log_partition_error(m), m


def test_log_euler_product_closed_expansion():
    # the truncated series approaches its closed small-d expansion
    # zeta(2)/d + (1/2) log d - (1/2) log(2 pi) as d -> 0; the constants are
    # the zeta values at 0 (-1/2, multiplying -log d) and the derivative
    # there (-(1/2) log 2 pi)
    def expansion(d):
        return ZETA2 / d + 0.5 * math.log(d) - 0.5 * math.log(2 * math.pi)

    gaps = []
    for n in (100, 1000, 10000):
        d = solve_saddle(n).d_n
        gaps.append(abs(log_euler_product(d) - expansion(d)))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_limit_shape_symmetry_point():
    t0 = math.sqrt(6) * math.log(2) / math.pi
    assert limit_shape(t0) == pytest.approx(t0, rel=1e-12)


def test_limit_shape_identity_residual():
    for t in (0.1, 1.0, 5.0):
        s = limit_shape(t)
        resid = abs(math.exp(-RATE * s) + math.exp(-RATE * t) - 1.0)
        assert resid < 1e-12


def test_limit_shape_involution():
    for t in (0.05, 0.3, 1.0, 2.5):
        assert limit_shape(limit_shape(t)) == pytest.approx(t, rel=1e-9)


def test_limit_shape_domain():
    with pytest.raises(ValueError):
        limit_shape(0.0)
    with pytest.raises(ValueError):
        limit_shape(-1.0)
