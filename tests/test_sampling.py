import copy
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2, chi2_contingency

from hooklaw import asymptotics, exact, sampling
from hooklaw.errors import ResourceError
from hooklaw.exact import hook_distribution_via_part_counts, iter_partitions, partition_counts
from hooklaw.partitions import Cell, Partition, hook_length
from hooklaw.sampling import (
    EXACT_RECURSIVE,
    FRISTEDT_REJECTION,
    SamplerConfig,
    _ExactRecursiveSampler,
    _draw_seed,
    _FristedtSampler,
    _pair_j,
    _pairs_hooks,
    _partition,
    cell_from_index,
    default_algorithm,
    make_sampler,
    observe_hook,
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
    classes = [p.parts for p in iter_partitions(n)]
    freq = Counter(p.parts for p in _draws(n, algorithm, count))
    expected = count / len(classes)
    stat = sum((freq.get(c, 0) - expected) ** 2 / expected for c in classes)
    return chi2.sf(stat, len(classes) - 1)


def _binned_chisq_pvalue(freq, probs, count):
    # the chi-square p-value of the observed value counts freq against the
    # law whose probabilities of the values 0, 1, 2, ... probs lists: values
    # pool into bins with expected count >= 10, and the partial bin left at
    # the top of the range joins the last full one, so the tail is tested
    got, expect = [0.0], [0.0]
    for value, prob in enumerate(probs):
        got[-1] += freq.get(value, 0)
        expect[-1] += prob * count
        if expect[-1] >= 10:
            got.append(0.0)
            expect.append(0.0)
    got[-2] += got.pop()
    expect[-2] += expect.pop()
    stat = sum((g - e) ** 2 / e for g, e in zip(got, expect))
    return chi2.sf(stat, len(got) - 1)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(n=0)
    with pytest.raises(ValueError):
        SamplerConfig(n=5, algorithm="bogus")
    # the stream's key holds 64 bits of seed: any other seed is a usage
    # error, which the CLI reports with exit 2
    for seed in (-1, 1 << 64, -(1 << 64)):
        with pytest.raises(ValueError, match="seed"):
            SamplerConfig(n=5, seed=seed)
    assert SamplerConfig(n=5, seed=(1 << 64) - 1).seed == (1 << 64) - 1


def test_default_algorithm_switchover():
    assert default_algorithm(10) == EXACT_RECURSIVE
    assert default_algorithm(100_000) == EXACT_RECURSIVE
    assert default_algorithm(100_001) == FRISTEDT_REJECTION


def test_config_algorithm_follows_n():
    assert SamplerConfig(n=100).algorithm == EXACT_RECURSIVE
    assert SamplerConfig(n=10**6).algorithm == FRISTEDT_REJECTION


def test_one_sampler_per_n_and_algorithm(monkeypatch):
    # the sampler cache is keyed by (n, algorithm): seeds share one sampler
    built = []
    make = sampling.make_sampler

    def counting_make(cfg, ptable=None):
        built.append(cfg)
        return make(cfg, ptable)

    monkeypatch.setattr(sampling, "make_sampler", counting_make)
    for seed in (1, 2, 3):
        sample_partition(SamplerConfig(n=97, seed=seed), stream(seed, 0))
    assert len(built) == 1


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
        pytest.param(EXACT_RECURSIVE, 10000, 6000, id="10000"),
        pytest.param(EXACT_RECURSIVE, 100000, 6000, id="100000"),
        pytest.param(FRISTEDT_REJECTION, 100, 40000, id="fristedt-rejection-100"),
        pytest.param(FRISTEDT_REJECTION, 1000, 40000, id="fristedt-rejection-1000"),
        pytest.param(FRISTEDT_REJECTION, 10000, 6000, id="fristedt-rejection-10000"),
        pytest.param(FRISTEDT_REJECTION, 100000, 6000, id="fristedt-rejection-100000"),
    ],
)
def test_exact_sampler_matches_hook_law(algorithm, n, count):
    # the reference law comes from the counting table, not from sampling
    cfg = SamplerConfig(n=n, algorithm=algorithm, seed=SEED)
    obs = sample_hooks(cfg, count, threads=2)
    freq = Counter(o.hook for o in obs)
    dist = hook_distribution_via_part_counts(n)
    probs = [dist.weights.get(h, 0) / dist.total for h in range(n + 1)]
    assert _binned_chisq_pvalue(freq, probs, count) > 0.001


@pytest.mark.parametrize(
    "algorithm, n",
    [(EXACT_RECURSIVE, 10000), (EXACT_RECURSIVE, 100000), (FRISTEDT_REJECTION, 10000)],
    ids=["10000", "100000", "fristedt-rejection-10000"],
)
def test_part_multiplicities_match_exact_law(algorithm, n):
    # the multiplicity m_k of the part k has P(m_k >= j) = p(n - jk) / p(n);
    # the exact route draws through draw_block, as sample_hooks does
    count = 2000
    if algorithm == EXACT_RECURSIVE:
        sampler = make_sampler(SamplerConfig(n, algorithm, SEED))
        seeds = [_draw_seed(stream(SEED, trial)) for trial in range(count)]
        draws = [_partition(d.tolist(), j.tolist()) for _, d, j in sampler.draw_block(seeds)]
    else:
        draws = _draws(n, algorithm, count)
    table = partition_counts(n)
    for k in (1, 2):
        # P(m_k >= j) at j = 0, 1, ..., n // k + 1, the last one 0
        tail = [table[n - j * k] for j in range(n // k + 1)] + [0]
        probs = [(a - b) / table[n] for a, b in zip(tail, tail[1:])]
        freq = Counter(p.parts.count(k) for p in draws)
        assert _binned_chisq_pvalue(freq, probs, count) > 0.001, k


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


def test_stream_rejects_keys_outside_64_bits():
    # reduced modulo 2^64, stream(2^64, 0) would give the bytes of stream(0, 0)
    top = (1 << 64) - 1
    for seed, trial in ((1 << 64, 0), (0, 1 << 64), (-1, 0), (0, -1)):
        with pytest.raises(OverflowError):
            stream(seed, trial)
    assert stream(top, top).bytes(8) != stream(0, 0).bytes(8)
    assert stream(0, 0).bytes(8).hex() == "9bd8e40864baf402"


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

        def map(self, fn, items, chunksize=1):
            return [fn(item) for item in items]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg = SamplerConfig(n=40, seed=4)
    obs = sample_hooks(cfg, 10, threads=10**6)
    assert started == [3]
    assert obs == sample_hooks(cfg, 10, threads=1)
    # None means one worker per CPU; 0, like 1, starts no pool
    assert sample_hooks(cfg, 10, threads=None) == obs
    assert started == [3, 3]
    assert sample_hooks(cfg, 10, threads=0) == obs
    assert started == [3, 3]


def test_algorithms_share_the_stream_contract():
    # different algorithms may consume differently but each is reproducible
    cfg = SamplerConfig(n=12, algorithm=FRISTEDT_REJECTION, seed=3)
    p1 = sample_partition(cfg, stream(3, 9))
    p2 = sample_partition(cfg, stream(3, 9))
    assert p1 == p2


def test_fristedt_budget_error(monkeypatch):
    monkeypatch.setattr(sampling, "FRISTEDT_TRIAL_BUDGET", 64)
    sampler = _FristedtSampler(100_000)
    with pytest.raises(ResourceError, match="budget"):
        # about 71 trials per acceptance at n = 1e5: a draw needs more than
        # 64 trials about 40 % of the time
        for trial in range(50):
            sampler.draw(stream(1, trial))


def test_fristedt_acceptance_matches_theory():
    # a trial is accepted with chance P(T = n) / (1 - w), T = sum_j j l_j,
    # so trials per acceptance are geometric with mean
    # (1 - w) / (p(n) w^n prod_{j >= 1} (1 - w^j)); the product stops where
    # w^j < e^-50
    n, draws = 1000, 400
    sampler = _FristedtSampler(n)
    for trial in range(draws):
        sampler.draw(stream(SEED, trial))
    assert sampler.accepted == draws
    log_w = -math.pi / math.sqrt(6 * n)
    log_hit = math.log(partition_counts(n)[n]) + n * log_w
    log_hit += sum(math.log(-math.expm1(j * log_w)) for j in range(1, int(50 / -log_w) + 1))
    mean = -math.expm1(log_w) / math.exp(log_hit)
    stderr = math.sqrt(mean * (mean - 1) / draws)
    assert abs(sampler.trials / sampler.accepted - mean) <= 4 * stderr


@pytest.mark.parametrize("n", [1, 30, 10**4, 10**6, 10**8])
def test_fristedt_r_table_tail_below_2_to_minus_64(n):
    # the table keeps every r with w^(2r) >= 2^-64, and the intensity
    # sum_{r > R} w^(2r) / (r (1 - w^r)) it leaves out is below 2^-64
    sampler = _FristedtSampler(n)
    d = sampler.d
    big_r = len(sampler.r_cum)
    assert math.exp(-2 * d * big_r) >= 2.0**-64 > math.exp(-2 * d * (big_r + 1))
    r = np.arange(big_r + 1, 4 * big_r + 2)
    tail = float(np.sum(np.exp(-2 * d * r) / (r * -np.expm1(-d * r))))
    assert 0 < tail < 2.0**-64
    # the table is the same intensity, summed
    lam = sum(math.exp(-2 * d * r) / (r * -math.expm1(-d * r)) for r in range(1, big_r + 1))
    assert sampler.r_cum[-1] == pytest.approx(lam, rel=1e-12)


def test_fristedt_conditioning():
    cfg = SamplerConfig(n=37, algorithm=FRISTEDT_REJECTION, seed=SEED)
    sampler = make_sampler(cfg)
    for trial in range(200):
        assert sampler.draw(stream(SEED, trial)).n == 37


def test_fristedt_large_n_conditioning():
    # the r table stops well below n here; conditioning must still hold
    # exactly on accepted draws
    sampler = make_sampler(SamplerConfig(n=10000, algorithm=FRISTEDT_REJECTION, seed=SEED))
    assert len(sampler.r_cum) < 10000
    for trial in range(2):
        assert sampler.draw(stream(SEED, trial)).n == 10000
    assert sampler.trials > sampler.accepted  # rejection actually happened


def test_exact_sampler_rejects_short_table():
    with pytest.raises(ValueError, match="table too short"):
        make_sampler(SamplerConfig(n=50), ptable=partition_counts(10))


def test_exact_sampler_rejects_n_past_its_margin(monkeypatch):
    # rho_m must bound p(m-1)/p(m) despite the error of both log p values
    monkeypatch.setattr(asymptotics, "log_partition_error", lambda n: 1e-9 * (n > 40))
    assert make_sampler(SamplerConfig(n=40, algorithm=EXACT_RECURSIVE)).n == 40
    with pytest.raises(ValueError, match="margin"):
        make_sampler(SamplerConfig(n=41, algorithm=EXACT_RECURSIVE))


def test_envelope_bounds_every_step():
    # p(m - q) <= p(m) rho_m^q, the bound that keeps every acceptance
    # chance at most 1
    n = 3000
    p = partition_counts(n + 1)
    sampler = _ExactRecursiveSampler(n)
    rho = sampler._rho.tolist()
    # m <= 128, where rho_m comes from the exact table: in exact rationals
    for m in range(2, sampler._SMALL + 1):
        r = Fraction(rho[m])
        for q in range(1, m + 1):
            assert r**q * p[m] >= p[m - q], (m, q)
    # past 128, in math.log of the exact counts, with at least half the
    # 1e-9 margin per unit of q left over
    lp = np.array([math.log(v) for v in p])
    for m in range(sampler._SMALL + 1, n + 1):
        q = np.arange(1, m + 1)
        spare = q * math.log(rho[m]) - (lp[m - q] - lp[m])
        assert (spare >= 0.5e-9 * q).all(), m
    # the finite steps behind the envelope at every larger m, in exact
    # integers: log-concavity from 26 on, which makes p(k-1)/p(k) rise with
    # k there, and the drop below 26 against the ratio at 129
    for k in range(26, n + 1):
        assert p[k] ** 2 > p[k - 1] * p[k + 1], k
    for s in range(26):
        assert p[s] * p[129] ** (26 - s) <= p[26] * p[128] ** (26 - s), s


def test_draw_path_builds_no_big_table(monkeypatch):
    # no step needs p(m) past the exact p(0..999), and n has no float-range
    # limit: p(n) itself overflows a double from n of about 8e4 on
    for n in (10**6, 2 * 10**6):
        monkeypatch.setattr(exact, "_PTABLE", [1])
        sampler = make_sampler(SamplerConfig(n, EXACT_RECURSIVE))
        for trial in range(20):
            assert sampler.draw(stream(SEED, trial)).n == n
        assert len(exact._PTABLE) <= 1001, n


@pytest.mark.parametrize("n, count", [(3000, 50), (20000, 10)])
def test_exact_route_draws_what_the_float_route_draws(monkeypatch, n, count):
    # a caller's table changes nothing; and with the decision tolerance
    # raised past any use every comparison is settled in exact rationals,
    # reading the same bits and giving the same draws
    default = make_sampler(SamplerConfig(n, EXACT_RECURSIVE))
    given = make_sampler(SamplerConfig(n, EXACT_RECURSIVE), ptable=partition_counts(n))
    want = [default.draw(stream(SEED, trial)) for trial in range(count)]
    assert [given.draw(stream(SEED, trial)) for trial in range(count)] == want
    monkeypatch.setattr(_ExactRecursiveSampler, "_TOL", 1e9)
    for sampler in (default, given):
        assert [sampler.draw(stream(SEED, trial)) for trial in range(count)] == want


def test_exact_route_reads_counts_at_a_point(monkeypatch):
    # with every comparison on the exact route, a draw reads p(m) and
    # p(m - dj) through exact.partition_count: the module table grows to n
    # at the first step, and nothing copies it
    n, count = 20000, 10
    sampler = make_sampler(SamplerConfig(n, EXACT_RECURSIVE))
    want = [sampler.draw(stream(SEED, trial)) for trial in range(count)]
    monkeypatch.setattr(_ExactRecursiveSampler, "_TOL", 1e9)
    monkeypatch.setattr(exact, "_PTABLE", [1])

    def copied(limit):
        raise AssertionError("table copied on the draw path")

    monkeypatch.setattr(exact, "partition_counts", copied)
    monkeypatch.setattr(sampling, "partition_counts", copied, raising=False)
    assert [sampler.draw(stream(SEED, trial)) for trial in range(count)] == want
    assert len(exact._PTABLE) == n + 1


def test_draws_leave_exact_sampler_unchanged():
    sampler = _ExactRecursiveSampler(3000)
    before = copy.deepcopy(vars(sampler))
    for trial in range(50):
        sampler.draw(stream(SEED, trial))
    for _ in sampler.draw_block(list(range(2 * sampler._FEW))):
        pass
    after = vars(sampler)
    assert after.keys() == before.keys()
    for name, value in before.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(after[name], value), name
        else:
            assert after[name] == value, name


def _block_draws_match_per_trial_draws(n):
    # the lockstep block path of sample_hooks gives, byte for byte, what
    # observe_hook gives trial by trial, for every block split and worker
    # split; a count of 1 runs its one lane through the scalar step alone
    block = sampling._BLOCK
    cfg = SamplerConfig(n, EXACT_RECURSIVE, SEED)
    want = [observe_hook(cfg, trial) for trial in range(2 * block + 3)]
    for count in (1, block - 1, block + 1, 2 * block + 3):
        for threads in (1, 2):
            assert sample_hooks(cfg, count, threads=threads) == want[:count], (count, threads)


@pytest.mark.parametrize("n", [1, 2, 5, 100, 129, 3000, 20000, 100000])
def test_block_draws_match_per_trial_draws(monkeypatch, n):
    # at blocks of 256, so that the per-trial reference stays cheap at large
    # n; the forked workers inherit the block size
    monkeypatch.setattr(sampling, "_BLOCK", 256)
    _block_draws_match_per_trial_draws(n)


@pytest.mark.parametrize("n", [5, 3000])
def test_full_block_draws_match_per_trial_draws(n):
    _block_draws_match_per_trial_draws(n)


@pytest.mark.parametrize(
    "n, ptable, tol",
    [(3000, False, 1e9), (3000, True, 1e9), (20000, False, 1e9), (20000, False, 1e-5)],
    ids=["3000-False", "3000-True", "20000-False", "20000-False-1e-05"],
)
def test_block_draws_through_the_exact_route(monkeypatch, n, ptable, tol):
    # a lane whose proposal the floats leave undecided leaves the lockstep,
    # and the scalar step takes it up from that proposal's first word,
    # re-seeding its generator and skipping the words read before.  With a
    # tolerance of 1e9 every lane leaves at its first proposal, settled in
    # exact rationals, with or without a table; with 1e-5 some lanes leave
    # mid-block, after a refill of their buffered words
    count = 2 * _ExactRecursiveSampler._FEW + 3
    cfg = SamplerConfig(n, EXACT_RECURSIVE, SEED)
    sampler = make_sampler(cfg, ptable=partition_counts(n) if ptable else None)
    want = [sampler.draw(stream(SEED, trial)) for trial in range(count)]
    monkeypatch.setattr(_ExactRecursiveSampler, "_TOL", tol)
    got = [None] * count
    for i, d, j in sampler.draw_block([_draw_seed(stream(SEED, trial)) for trial in range(count)]):
        got[i] = _partition(d.tolist(), j.tolist())
    assert got == want


def test_sample_hooks_draws_the_exact_route_in_blocks(monkeypatch):
    # sample_hooks on the exact route never falls back to per-trial draws
    def per_trial(self, rng):
        raise AssertionError("per-trial draw on the block path")

    cfg = SamplerConfig(3000, EXACT_RECURSIVE, SEED)
    want = [observe_hook(cfg, trial) for trial in range(40)]
    monkeypatch.setattr(_ExactRecursiveSampler, "draw", per_trial)
    for count in (2, 40):
        assert sample_hooks(cfg, count, threads=1) == want[:count]


def test_pair_j_is_exact():
    # min(2^128 // (V + 1), m + 1) from the two 64-bit words of V, on random
    # V, on V + 1 at and next to 2^128 // k for k around m, where the float
    # quotient lands on or beside an integer, and on V + 1 a power of two
    big = 1 << 128
    gen = random.Random(SEED)
    values, bounds = [], []
    for m in (1, 2, 3, 100, 129, 4097, 10**5, 10**6, 10**8):
        near = [big // k + e for k in range(max(1, m - 3), m + 4) for e in (-2, -1, 0, 1, 2)]
        near += [1 << e for e in range(0, 129, 7)]
        picked = [gen.getrandbits(128) + 1 for _ in range(200)]
        picked += [gen.randrange(big // (m + 2), big // max(m - 2, 1)) for _ in range(200)]
        for v1 in near + picked:
            values.append(min(max(v1, 1), big) - 1)
            bounds.append(m)
    lo = np.array([v % 2**64 for v in values], np.uint64)
    hi = np.array([v >> 64 for v in values], np.uint64)
    want = [min(big // (v + 1), m + 1) for v, m in zip(values, bounds)]
    assert _pair_j(lo, hi, np.array(bounds, np.int64)).tolist() == want


def test_pairs_hooks_match_hook_length():
    # every cell of every partition of n <= 12, each partition written as
    # shuffled pairs (d, j): a part of multiplicity c > 1 as (d, 1) and
    # (d, c - 1), and a part 1 as a remainder pair (1, 1) of its own
    gen = random.Random(SEED)
    for n in range(1, 13):
        ds, js, sizes, cells, want = [], [], [], [], []
        for p in iter_partitions(n):
            pairs = []
            for d, c in Counter(p.parts).items():
                if d == 1:
                    pairs.append((1, 1))
                    c -= 1
                if c > 1:
                    pairs.append((d, 1))
                    c -= 1
                if c:
                    pairs.append((d, c))
            for u in range(1, n + 1):
                gen.shuffle(pairs)
                ds += [d for d, _ in pairs]
                js += [c for _, c in pairs]
                sizes.append(len(pairs))
                cells.append(u)
                want.append(hook_length(p, cell_from_index(p, u)))
        got = _pairs_hooks(np.array(ds), np.array(js), sizes, cells)
        assert got.tolist() == want, n


class _Words:
    """random.Random's getrandbits over the words of random.Random(seed),
    for a stub of sampling.random.Random: each instance logs the size of
    every call in calls, and its words at the places in zeros[seed] are 0.
    getrandbits(64 k) joins k words, the first least significant."""

    random = random.Random
    zeros: dict[int, set[int]] = {}
    made: list["_Words"] = []

    def __init__(self, seed):
        self.seed, self.words, self.calls, self.at = seed, self.random(seed).getrandbits, [], 0
        self.made.append(self)

    def getrandbits(self, k):
        assert k >= 0 and k % 64 == 0
        zeros, out = self.zeros.get(self.seed, ()), 0
        for i in range(k // 64):
            word = self.words(64)
            out |= (0 if self.at in zeros else word) << (64 * i)
            self.at += 1
        self.calls.append(k)
        return out


@pytest.mark.parametrize("role", ["j", "geometric", "acceptance"])
def test_block_draws_catch_zero_words(monkeypatch, role):
    # a zero word makes a float log -inf; draw settles its comparison in
    # exact rationals, and draw_block leaves that proposal to _finish.  A
    # lane gets zeros at its third proposal that reads all 5 words: both j
    # words (V = 0, so j = 2^128, past m), G1, or the acceptance word
    n, count = 3000, _ExactRecursiveSampler._FEW + 8
    sampler = make_sampler(SamplerConfig(n, EXACT_RECURSIVE))
    monkeypatch.setattr(sampling.random, "Random", _Words)
    monkeypatch.setattr(_Words, "zeros", {})
    monkeypatch.setattr(_Words, "made", [])
    seeds = [_draw_seed(stream(SEED, trial)) for trial in range(count)]
    # every third lane, since a zero geometric word is slow to settle exactly
    for seed in seeds[::3]:
        sampler._finish(seed, 0, n)
        calls = _Words.made[-1].calls
        # a 128-bit call followed by three 64-bit calls, the third such
        full = [i for i in range(len(calls) - 4) if calls[i : i + 5] == [128, 64, 64, 64, 128]]
        at = sum(calls[: full[2]]) // 64
        _Words.zeros[seed] = {"j": {at, at + 1}, "geometric": {at + 2}, "acceptance": {at + 4}}[role]
    want = [sampler.draw(stream(SEED, trial)) for trial in range(count)]
    got = [None] * count
    for i, d, j in sampler.draw_block(seeds):
        got[i] = _partition(d.tolist(), j.tolist())
    assert got == want


def test_block_lanes_draw_words_for_their_n(monkeypatch):
    # a lane draws its words in refills sized to what a draw at n reads:
    # at n = 3, where a draw reads 28 words on average, a lane draws at most
    # a few dozen more than it reads, not a 256-word buffer
    n, count = 3, 200
    sampler = make_sampler(SamplerConfig(n, EXACT_RECURSIVE))
    monkeypatch.setattr(sampling.random, "Random", _Words)
    monkeypatch.setattr(_Words, "made", [])
    seeds = [_draw_seed(stream(SEED, trial)) for trial in range(count)]
    for _ in sampler.draw_block(seeds):
        pass
    drawn = [sum(w.calls) // 64 for w in _Words.made[:count]]
    del _Words.made[:]
    read = []
    for seed in seeds:
        sampler._finish(seed, 0, n)
        read.append(sum(_Words.made[-1].calls) // 64)
    assert all(d - r <= 96 for d, r in zip(drawn, read)), max(d - r for d, r in zip(drawn, read))
    assert sum(drawn) <= 3 * sum(read)
