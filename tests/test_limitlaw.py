import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstwobign

from hooklaw.asymptotics import limit_shape, zeta
from hooklaw.exact import hook_distribution_via_part_counts
from hooklaw.limitlaw import (
    LIMIT_MEAN,
    SIX_OVER_PI2,
    GofReport,
    cdf,
    density,
    exact_sup_distance,
    ks_statistic,
    limit_moment,
    quantile,
    scale_hook,
    shape_grid,
)
from hooklaw.partitions import Partition, conjugate, profile
from hooklaw.sampling import SamplerConfig, sample_partition, stream


def test_density_at_zero_limit():
    assert density(1e-9) == pytest.approx(SIX_OVER_PI2, rel=1e-8)
    # expm1 is exact to rounding here, so u / expm1(u) is exactly 1
    assert density(1e-300) == density(5e-324) == SIX_OVER_PI2
    assert density(0.0) == 0.0
    assert density(-1.0) == 0.0


def test_density_far_tail_underflows_to_zero():
    assert density(1000.0) == 0.0
    assert density(699.0) > 0.0


def test_density_normalizes():
    mass, err = quad(density, 0, 60, limit=400)
    assert abs(mass - 1.0) < 1e-10


def test_cdf_endpoints():
    assert cdf(0.0) == 0.0
    assert cdf(-3.0) == 0.0
    assert cdf(40.0) > 1 - 1e-10
    assert cdf(40.0) <= 1.0


def test_cdf_matches_quadrature():
    for y in (0.5, 1.0, 2.0, 5.0):
        oracle, err = quad(density, 0, y, limit=200)
        assert abs(cdf(y) - oracle) < 1e-9
    # small-argument branch against quadrature as well
    for y in (1e-4, 1e-3, 5e-3):
        oracle, err = quad(density, 0, y)
        assert cdf(y) == pytest.approx(oracle, rel=1e-9)


def test_cdf_monotone_on_grid():
    ys = np.linspace(1e-3, 25.0, 1000)
    vals = [cdf(float(y)) for y in ys]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_limit_moments():
    assert limit_moment(1) == pytest.approx(12 * zeta(3) / math.pi**2, rel=1e-12)
    assert limit_moment(1) == pytest.approx(LIMIT_MEAN, rel=1e-12)
    assert limit_moment(2) == pytest.approx(2 * math.pi**2 / 5, abs=1e-8)
    with pytest.raises(ValueError):
        limit_moment(0)


def test_limit_moments_against_quadrature():
    for m in range(1, 5):
        oracle, err = quad(lambda u, m=m: u ** (m + 1) / math.expm1(u), 0, 120, limit=400)
        assert limit_moment(m) == pytest.approx(SIX_OVER_PI2 * oracle, abs=1e-8)


def test_quantile_inverts_cdf():
    for p in (0.05, 0.3, 0.5, 0.9, 0.999):
        assert cdf(quantile(p)) == pytest.approx(p, abs=1e-10)
    with pytest.raises(ValueError):
        quantile(1.5)


def test_ks_null_self_consistency():
    # a sample drawn from the limit law itself by inverse-CDF bisection
    # should sit below the 0.001-level reference line
    rng = np.random.Generator(np.random.Philox(key=np.array([9, 9], dtype=np.uint64)))
    uniforms = rng.random(10000)
    sample = [quantile(float(u)) for u in uniforms]
    report = ks_statistic(sample)
    threshold = kstwobign.isf(0.001) / math.sqrt(len(sample))
    assert report.ks_distance < threshold
    assert report.moment_ratios[0] == pytest.approx(1.0, abs=0.05)


def test_ks_degenerate_sample():
    report = ks_statistic([1.0, 1.0, 1.0])
    assert report.ks_distance == pytest.approx(max(cdf(1.0), 1 - cdf(1.0)))
    assert report.ks_location == 1.0
    with pytest.raises(ValueError):
        ks_statistic([])


def test_ks_matches_scipy():
    from scipy.stats import kstest

    rng = np.random.Generator(np.random.Philox(key=np.array([4, 2], dtype=np.uint64)))
    sample = rng.exponential(1.5, size=400)
    ours = ks_statistic(sample.tolist()).ks_distance
    theirs = kstest(sample, lambda y: np.array([cdf(float(v)) for v in np.atleast_1d(y)])).statistic
    assert ours == pytest.approx(float(theirs), abs=1e-12)


def _exact_sup_distance_per_atom(n):
    # the per-atom loop that exact_sup_distance once ran, kept as its
    # reference: the exact CDF on both sides of every atom, in floats from
    # exact integer partial sums
    dist = hook_distribution_via_part_counts(n)
    acc, worst = 0, 0.0
    for k in range(1, n + 1):
        lo = acc / dist.total
        acc += dist.weights.get(k, 0)
        model = cdf(scale_hook(k, n))
        worst = max(worst, abs(model - lo), abs(model - acc / dist.total))
    return worst


@pytest.mark.parametrize("n", [1, 2, 4, 12, 100, 3000])
def test_exact_sup_distance_matches_per_atom_loop(n):
    assert exact_sup_distance(n) == _exact_sup_distance_per_atom(n)


def test_exact_cdf_distance_decreases_in_n():
    # no sampling noise: exact finite-n laws move toward the limit law
    d4, d8, d12 = (exact_sup_distance(n) for n in (4, 8, 12))
    assert d4 > d8 > d12


def test_gof_report_validation():
    with pytest.raises(ValueError):
        GofReport(
            n=1,
            sample_count=1,
            ks_distance=1.5,
            ks_location=0.0,
            ks_reference=1.95,
            mean_scaled=1.0,
            moment_ratios=(1.0,),
        )


def shape_distance(p):
    # sup over the shape grid of |X(t sqrt(n))/sqrt(n) - s(t)|: the scaled
    # diagram profile against the limit-shape curve, as the shape_profile
    # script prints them
    root = math.sqrt(p.n)
    return max(abs(profile(p, t * root) / root - limit_shape(t)) for t in shape_grid().tolist())


def test_shape_distance_self_conjugate_exact():
    # for a self-conjugate shape the conjugate distance matches exactly
    staircase = Partition((6, 5, 4, 3, 2, 1))
    assert conjugate(staircase) == staircase
    assert shape_distance(conjugate(staircase)) == shape_distance(staircase)


def test_shape_distance_median_shrinks():
    def median_distance(n, count=60):
        cfg = SamplerConfig(n=n, seed=31337)
        vals = sorted(
            shape_distance(sample_partition(cfg, stream(cfg.seed, trial)))
            for trial in range(count)
        )
        return vals[count // 2]

    assert median_distance(10000) < median_distance(100)


def test_shape_grid_span():
    grid = shape_grid()
    assert grid[0] == pytest.approx(0.05)
    assert grid[-1] == pytest.approx(8.0)
    assert len(grid) == 400
    assert limit_shape(float(grid[0])) > 2.0
    assert limit_shape(float(grid[-1])) < 1e-4
