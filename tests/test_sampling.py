import math
import random
from collections import Counter

import pytest
from scipy.stats import chi2, chi2_contingency

from hooklaw.errors import ResourceError
from hooklaw.exact import enumerate_all, hook_distribution_via_part_counts, partition_counts
from hooklaw.partitions import Cell, Partition
from hooklaw.sampling import (
    EXACT_RECURSIVE,
    FRISTEDT_REJECTION,
    SamplerConfig,
    _ExactRecursiveSampler,
    _FristedtSampler,
    cell_from_index,
    default_algorithm,
    make_sampler,
    sample_cell,
    sample_hooks,
    sample_partition,
    stream,
)

SEED = 20250810


def _draws(n, algorithm, count, seed=SEED):
    cfg = SamplerConfig(n=n, algorithm=algorithm, seed=seed)
    sampler = make_sampler(cfg)
    return [sampler.draw(stream(seed, trial)) for trial in range(count)]


def _uniform_chisq_pvalue(n, algorithm, count):
    classes = [p.parts for p in enumerate_all(n)]
    freq = Counter(p.parts for p in _draws(n, algorithm, count))
    expected = count / len(classes)
    stat = sum((freq.get(c, 0) - expected) ** 2 / expected for c in classes)
    return chi2.sf(stat, len(classes) - 1)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(n=0)
    with pytest.raises(ValueError):
        SamplerConfig(n=5, algorithm="bogus")


def test_default_algorithm_switchover():
    assert default_algorithm(10) == EXACT_RECURSIVE
    assert default_algorithm(100_000) == EXACT_RECURSIVE
    assert default_algorithm(100_001) == FRISTEDT_REJECTION


def test_n1_is_always_the_single_partition():
    for algorithm in (EXACT_RECURSIVE, FRISTEDT_REJECTION):
        for p in _draws(1, algorithm, 10):
            assert p.parts == (1,)


def test_sampled_partitions_have_size_n():
    for algorithm in (EXACT_RECURSIVE, FRISTEDT_REJECTION):
        for p in _draws(23, algorithm, 50):
            assert p.n == 23
            assert p.parts == tuple(sorted(p.parts, reverse=True))


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("algorithm", [EXACT_RECURSIVE, FRISTEDT_REJECTION])
def test_uniformity_chisq(n, algorithm):
    assert _uniform_chisq_pvalue(n, algorithm, 20000) > 0.001


@pytest.mark.parametrize(
    "algorithm, n, count",
    [
        pytest.param(EXACT_RECURSIVE, 100, 40000, id="100"),
        pytest.param(EXACT_RECURSIVE, 1000, 40000, id="1000"),
        pytest.param(FRISTEDT_REJECTION, 100, 40000, id="fristedt-rejection-100"),
        pytest.param(FRISTEDT_REJECTION, 1000, 40000, id="fristedt-rejection-1000"),
        pytest.param(FRISTEDT_REJECTION, 10000, 6000, id="fristedt-rejection-10000"),
    ],
)
def test_exact_sampler_matches_hook_law(algorithm, n, count):
    # the reference law comes from the counting table, not from sampling
    cfg = SamplerConfig(n=n, algorithm=algorithm, seed=SEED)
    obs = sample_hooks(cfg, count, threads=2)
    freq = Counter(o.hook for o in obs)
    dist = hook_distribution_via_part_counts(n)
    total = dist.total
    # pool hooks into bins with expected count >= 10
    stat = 0.0
    got = expect = 0.0
    bins = 0
    for k in range(1, n + 1):
        got += freq.get(k, 0)
        expect += dist.weights.get(k, 0) / total * count
        if expect >= 10:
            stat += (got - expect) ** 2 / expect
            got = expect = 0.0
            bins += 1
    assert chi2.sf(stat, bins - 1) > 0.001


def test_two_algorithms_agree_at_n30():
    # one two-sample chi-square over all hook values, not one test per bin
    n, count = 30, 100_000
    he = Counter(o.hook for o in sample_hooks(SamplerConfig(n, EXACT_RECURSIVE, SEED), count, threads=2))
    hf = Counter(o.hook for o in sample_hooks(SamplerConfig(n, FRISTEDT_REJECTION, SEED), count, threads=2))
    hooks = sorted(set(he) | set(hf))
    table = [[he.get(k, 0) for k in hooks], [hf.get(k, 0) for k in hooks]]
    assert chi2_contingency(table).pvalue > 0.001


def test_hook_length_matches_arm_leg_count():
    # the kernel observe_hook uses, against a direct count: the arm is the
    # cells right of c in its row, the leg the rows above t reaching column s
    from hooklaw.partitions import cells, hook_length

    for trial in range(20):
        p = sample_partition(SamplerConfig(n=60, seed=8), stream(8, trial))
        for t, s in cells(p):
            arm = p.parts[t - 1] - s
            leg = sum(1 for row in p.parts[t:] if row >= s)
            assert hook_length(p, Cell(t, s)) == arm + leg + 1


def test_cell_index_map():
    lam = Partition((2, 1))
    assert cell_from_index(lam, 1) == Cell(1, 1)
    assert cell_from_index(lam, 2) == Cell(1, 2)
    assert cell_from_index(lam, 3) == Cell(2, 1)
    with pytest.raises(ValueError):
        cell_from_index(lam, 4)


def test_sample_cell_single():
    rng = stream(0, 0)
    assert sample_cell(Partition((1,)), rng) == Cell(1, 1)
    with pytest.raises(ValueError):
        sample_cell(Partition(()), rng)


def test_sample_cell_uniform():
    lam = Partition((2, 1))
    rng = stream(SEED, 1)
    freq = Counter(sample_cell(lam, rng) for _ in range(30000))
    for c, count in freq.items():
        assert abs(count / 30000 - 1 / 3) <= 3 * math.sqrt((1 / 3) * (2 / 3) / 30000)


def test_hook_observations_match_exact_law():
    for n, count in ((2, 40000), (3, 60000)):
        obs = sample_hooks(SamplerConfig(n=n, seed=SEED), count)
        freq = Counter(o.hook for o in obs)
        dist = hook_distribution_via_part_counts(n)
        for k, w in dist.weights.items():
            p = w / dist.total
            sigma = math.sqrt(p * (1 - p) / count)
            assert abs(freq.get(k, 0) / count - p) <= 3.5 * sigma


def test_observation_fields():
    obs = sample_hooks(SamplerConfig(n=40, seed=1), 200)
    assert len(obs) == 200
    for o in obs:
        assert 1 <= o.hook <= 40
        assert o.scaled == pytest.approx(math.pi * o.hook / math.sqrt(240.0))


def test_determinism_same_seed():
    a = sample_hooks(SamplerConfig(n=200, seed=77), 300)
    b = sample_hooks(SamplerConfig(n=200, seed=77), 300)
    assert a == b
    c = sample_hooks(SamplerConfig(n=200, seed=78), 300)
    assert a != c


def test_thread_independence():
    a = sample_hooks(SamplerConfig(n=150, seed=5), 301, threads=1)
    b = sample_hooks(SamplerConfig(n=150, seed=5), 301, threads=2)
    assert a == b


def test_worker_count_capped_at_cpu_count(monkeypatch):
    # a fake pool records the worker count and maps inline: no process starts
    import concurrent.futures
    import os

    started = []

    class InlinePool:
        def __init__(self, max_workers, mp_context=None):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg = SamplerConfig(n=40, seed=4)
    obs = sample_hooks(cfg, 10, threads=10**6)
    assert started == [3]
    assert obs == sample_hooks(cfg, 10, threads=1)


def test_algorithms_share_the_stream_contract():
    # different algorithms may consume differently but each is reproducible
    cfg = SamplerConfig(n=12, algorithm=FRISTEDT_REJECTION, seed=3)
    p1 = sample_partition(cfg, stream(3, 9))
    p2 = sample_partition(cfg, stream(3, 9))
    assert p1 == p2


def test_fristedt_budget_error():
    sampler = _FristedtSampler(100_000, budget=64)
    with pytest.raises(ResourceError, match="budget"):
        # about 88 trials per acceptance at n = 1e5: one batch of 64 misses
        # about half the time
        for trial in range(50):
            sampler.draw(stream(1, trial))


def test_fristedt_acceptance_matches_theory():
    # a trial is accepted with chance P(T = n) / (1 - w), T = sum_j j l_j
    # over the unpinned j, so trials per acceptance are geometric with mean
    # (1 - w) / (p(n) w^n prod_{j <= jcut} (1 - w^j))
    n, draws = 1000, 400
    sampler = _FristedtSampler(n)
    for trial in range(draws):
        sampler.draw(stream(SEED, trial))
    assert sampler.accepted == draws
    log_w = -math.pi / math.sqrt(6 * n)
    log_hit = math.log(partition_counts(n)[n]) + n * log_w
    log_hit += sum(math.log(-math.expm1(j * log_w)) for j in range(1, sampler.jcut + 1))
    mean = -math.expm1(log_w) / math.exp(log_hit)
    stderr = math.sqrt(mean * (mean - 1) / draws)
    assert abs(sampler.trials / sampler.accepted - mean) <= 4 * stderr


def test_fristedt_conditioning():
    cfg = SamplerConfig(n=37, algorithm=FRISTEDT_REJECTION, seed=SEED)
    sampler = make_sampler(cfg)
    for trial in range(200):
        assert sampler.draw(stream(SEED, trial)).n == 37


def test_fristedt_large_n_conditioning():
    # the multiplicity cutoff sits well below n here; conditioning must
    # still hold exactly on accepted draws
    sampler = make_sampler(SamplerConfig(n=10000, algorithm=FRISTEDT_REJECTION, seed=SEED))
    assert sampler.jcut < 10000
    for trial in range(2):
        assert sampler.draw(stream(SEED, trial)).n == 10000
    assert sampler.trials > sampler.accepted  # rejection actually happened


def test_exact_sampler_rejects_short_table():
    with pytest.raises(ValueError, match="table too short"):
        make_sampler(SamplerConfig(n=50), ptable=partition_counts(10))


def _exact_walk(sampler, m, u):
    acc = 0
    for q in range(1, m + 1):
        acc += sampler.sigma[q] * sampler.p[m - q]
        if acc > u:
            return q


def test_float_walk_agrees_with_exact_walk():
    n = 3000
    p = partition_counts(n)
    sampler = _ExactRecursiveSampler(n, p)
    rnd = random.Random(SEED)
    answered = 0
    for _ in range(400):
        m = rnd.randint(sampler._EXACT_WALK_MAX + 1, n)
        total = m * p[m]
        u = rnd.randrange(total)
        q = sampler._float_walk(m, u / total)
        if q:
            answered += 1
            assert q == _exact_walk(sampler, m, u)
    assert answered >= 398
    # u on an exact cumulative boundary lies within the slack: the float
    # walk declines and leaves the draw to the exact walk
    m = 2500
    total = m * p[m]
    for q0 in (1, 7, 60):
        boundary = sum(sampler.sigma[q] * p[m - q] for q in range(1, q0 + 1))
        assert _exact_walk(sampler, m, boundary) == q0 + 1
        assert sampler._float_walk(m, boundary / total) == 0
