"""Uniform random partitions, uniform random cells, and hook observations.

Two interchangeable partition samplers draw from the uniform law on the
partitions of n, the first exactly, the second up to two stated
approximations:

* ``exact-recursive`` — the pair recursion: draw a (part d, repetition j)
  pair with probability d * p(m - j*d) / (m * p(m)), append j copies of d,
  recurse on the remainder.  The removed total q = j*d is located by an
  inverse-CDF walk of a uniform big integer below m * p(m).  Each step is
  decided in floats built from Rademacher's first term for log p(m)
  (asymptotics.log_partition_counts) wherever a margin of ten times the
  float error bound certifies the answer, and otherwise in exact big
  integers, so the law is exact; the big-integer table p(0..n) is built
  only when such an undecided step needs it.  The part d is then picked
  among the divisors of q with weight d, largest first over the cofactors
  j = 1, 2, ..., on the reflected uniform.  Its uniform big integers come
  from one Mersenne Twister per draw, seeded from 128 bits of the trial's
  stream.

* ``fristedt-rejection`` — independent geometric multiplicities l_j with
  success parameter 1 - w^j at w = exp(-pi / sqrt(6 n)) (Fristedt 1993),
  drawn as a Poisson process of (part j, count r) points for j >= 2 and
  accepted by the deterministic second half of probabilistic
  divide-and-conquer (Arratia & DeSalvo 2016): the parts of size >= 2
  leave k = n - sum_{j>=2} j*l_j, and the trial is accepted with chance
  w^k = P(l_1 >= k) when k >= 0; then l_1 = k.  Conditioned on acceptance
  the law is uniform for every w.  The acceptance rate falls like
  n^(-1/4), against n^(-3/4) for waiting until sum j*l_j hits n: about 40
  trials per draw at n = 1e4.  Two approximations stand between this and
  the exact law: the point count, each r and j and the acceptance are
  drawn in floating point from double uniforms, and the points whose r
  has w^(2r) below 2^-64 are left out, a total intensity below 2^-64.

Randomness comes from counter-based streams keyed by (seed, trial index),
so worker processes reproduce the serial observation sequence exactly no
matter how trials are split.
"""

from __future__ import annotations

import concurrent.futures
import functools
import math
import multiprocessing
import os
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import isqrt

import numpy as np

from . import asymptotics
from .errors import ResourceError
from .exact import partition_counts
from .limitlaw import scale_hook
from .partitions import Cell, Partition, hook_length

EXACT_RECURSIVE = "exact-recursive"
FRISTEDT_REJECTION = "fristedt-rejection"
ALGORITHMS = (EXACT_RECURSIVE, FRISTEDT_REJECTION)

# the largest n that default_algorithm (--algo auto) sends to the exact
# sampler; above it the default is rejection sampling
EXACT_DEFAULT_LIMIT = 100_000

FRISTEDT_TRIAL_BUDGET = 10_000_000


def default_algorithm(n: int) -> str:
    return EXACT_RECURSIVE if n <= EXACT_DEFAULT_LIMIT else FRISTEDT_REJECTION


@dataclass(frozen=True)
class SamplerConfig:
    """Target size, algorithm choice, and the 64-bit stream seed.  The
    algorithm defaults to default_algorithm(n)."""

    n: int
    algorithm: str | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.algorithm is None:
            object.__setattr__(self, "algorithm", default_algorithm(self.n))
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}"
            )


@dataclass(frozen=True)
class HookObservation:
    """One outcome of the two-step experiment at size n."""

    n: int
    hook: int
    scaled: float

    def __post_init__(self) -> None:
        if not 1 <= self.hook <= self.n:
            raise ValueError(f"hook {self.hook} outside [1, {self.n}]")


def stream(seed: int, trial: int) -> np.random.Generator:
    """The counter-based stream for one trial: Philox keyed by (seed, trial)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, trial & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _pick_divisor(q: int, sigma_q: int, u: int) -> int:
    """The divisor d of q picked with weight d by a uniform u below
    sigma_q = sigma(q): the d whose interval holds u when the divisors,
    smallest first, tile [0, sigma_q).  The walk takes d = q // j over the
    cofactors j = 1, 2, ..., largest d first, on the reflected uniform
    sigma_q - 1 - u, which gives each d that same interval."""
    w = sigma_q - 1 - u
    j = 0
    while w >= 0:
        j += 1
        if q % j == 0:
            w -= q // j
    return q // j


def _exact_walk(p, sigma, m: int, u: int) -> int:
    """The inverse-CDF walk in exact big integers: the first q with
    sum_{i <= q} sigma(i) p(m - i) > u, for u below m p(m)."""
    acc = 0
    for q in range(1, m + 1):
        acc += sigma[q] * p[m - q]
        if acc > u:
            return q
    raise RuntimeError(f"uniform {u} not below m p(m) at m={m}")


class _ExactRecursiveSampler:
    """Uniform sampler, shared across trials at fixed n.

    Per step at remainder m, the removed total q = j*d is drawn with weight
    sigma(q) * p(m - q) (sigma = divisor sum), then d is picked among the
    divisors of q with weight d; this is exactly the (d, j) pair law above.
    The pick is _pick_divisor's largest-first cofactor walk on the
    reflected uniform, so the sampler keeps no divisor lists and is not
    written to after construction.

    The weights of q sum to m * p(m), so q is located by inverse CDF: a
    uniform big integer v below m * p(m), drawn by masked rejection on
    (m p(m) - 1).bit_length() bits, against the cumulative weights, walked
    from q = 1.  Past m = 128 a step needs no exact p(m): the float tables
    come from asymptotics.log_partition_counts, scaled by exp(-beta k) to
    stay in range, and give per m the bit length and the scaled value of
    the unit of v's top 53 bits.  Those bits decide the rejection test
    v < m p(m), and place v for the float walk, which runs vectorized over
    blocks of q.  Each float comparison answers only when it clears its
    error bound ten times over: asymptotics.log_partition_error, the
    roundings of the tables and, in the walk, those of the sums.  A
    comparison that does not is settled in exact big integers: from a
    caller's table, from the exact p(0..999) the sampler keeps, or from
    exact.partition_counts, fetched at most once per draw, which builds the
    module's table the first time it is needed.  Both routes read the same
    bits and pick the same q, so the law is exact and the output does not
    depend on which answered.
    Past n of about 1.26e6 the scaled tables leave float range and every
    step is exact.
    """

    # at or below this remainder the exact walk is cheaper than numpy calls
    _EXACT_WALK_MAX = 128
    # every float comparison keeps this multiple of its error bound in hand
    _HEADROOM = 10

    def __init__(self, n: int, ptable: list[int] | None = None):
        self.n = n
        if ptable is not None and len(ptable) < n + 1:
            raise ValueError(f"partition table too short for n={n}")
        small = min(n, asymptotics.RADEMACHER_FROM - 1)
        self._p = ptable if ptable is not None else partition_counts(small)
        # sigma(q) by divisor pairs (d, q // d) with d <= sqrt(q)
        sigma = np.zeros(n + 1, dtype=np.int64)
        for d in range(1, isqrt(n) + 1):
            j = np.arange(d, n // d + 1)
            sigma[d * j] += d + j
            sigma[d * d] -= d
        self.sigma = sigma
        self._sigma_list = sigma[: small + 1].tolist()
        # float tables, scaled by exp(-beta k) to stay in range:
        # sigma(q) p(m - q) = e^(beta m) sigma_scaled[q] p_rev[n - m + q],
        # with p_rev reversed so that both slices of a walk are contiguous
        log_p = asymptotics.log_partition_counts(n)
        beta = log_p[n] / max(n, 1)
        k = np.arange(n + 1)
        # each entry below is within err, relative, of its exact scaled
        # value: log p's budget, plus roundings of beta k and the exps; the
        # walk's comparisons err by at most 4 err plus the sums' roundings
        err = asymptotics.log_partition_error(n) + (float(log_p[n]) + 2) * 2.0**-51
        self._tol = self._HEADROOM * 4 * err
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            self._p_rev = np.exp(log_p - beta * k)[::-1].copy()
            self._sigma_scaled = sigma * np.exp(-beta * k)
            # the bit length of m p(m) - 1, where log2(m p(m)) is clear of
            # an integer; 0 sends the step to exact integers
            log2_total = (np.log(k) + log_p) / math.log(2)
            frac = log2_total - np.floor(log2_total)
            clear = (frac > self._tol) & (frac < 1 - self._tol)
            width = np.where(clear, np.floor(log2_total) + 1, 0)
            width[: self._EXACT_WALK_MAX + 1] = 0
            if not np.isfinite(self._p_rev).all():
                width[:] = 0  # out of float range (n past about 1.26e6)
            self._width = width.astype(np.int64)
            # 2^max(width - 53, 0), scaled: the unit of v's top 53 bits
            self._unit = np.exp(np.maximum(width - 53, 0) * math.log(2) - beta * k)

    def _float_walk(self, m: int, rest: float, total: float) -> int:
        """The q whose float cumulative interval holds the scaled uniform
        rest, with the slack to spare at both ends, else 0; total is the
        scaled m p(m)."""
        p_rev, sigma_scaled = self._p_rev, self._sigma_scaled
        off = self.n - m
        lo = 0
        width = 3 * isqrt(m) + 16
        while lo < m:
            hi = min(m, lo + width)
            cum = np.add.accumulate(sigma_scaled[lo + 1 : hi + 1] * p_rev[off + lo + 1 : off + hi + 1])
            i = int(cum.searchsorted(rest, side="right"))
            if i < hi - lo:
                # the sums of up to hi terms and the block carries add
                # (hi + 4) 2^-52 of total to the error bound
                slack = (self._tol + self._HEADROOM * (hi + 4) * 2.0**-52) * total
                left = float(cum[i - 1]) if i else 0.0
                return lo + i + 1 if left + slack <= rest < float(cum[i]) - slack else 0
            rest -= float(cum[-1])
            lo = hi
            width *= 2
        return 0

    def draw(self, rng: np.random.Generator) -> Partition:
        # one Mersenne Twister per draw, seeded from 128 bits of the trial's
        # stream; getrandbits is used directly because randrange's
        # algorithm may change between Python versions
        bits = random.Random(int.from_bytes(rng.bytes(16), "little")).getrandbits

        def below(m: int) -> int:
            # masked rejection: (m - 1).bit_length() random bits until one
            # is below m; no bits are drawn when m == 1
            width = (m - 1).bit_length()
            while True:
                v = bits(width)
                if v < m:
                    return v

        n, tol = self.n, self._tol
        # memoryviews index as Python ints and floats, cheaper per step
        # than numpy scalars
        tables = (self._width, self._unit, self._p_rev, self.sigma)
        widths, units, p_rev, sigma = map(memoryview, tables)
        p = self._p

        def exact(m: int):
            # p(0..m) and sigma(0..m), or longer, indexable as Python ints;
            # past the sampler's own p, the module table is fetched at the
            # first undecided step and kept: m only falls within a draw, so
            # one fetch covers every later step
            nonlocal p
            if m < len(self._sigma_list):
                return self._p, self._sigma_list
            if m >= len(p):
                p = partition_counts(m)
            return p, sigma

        parts: list[int] = []
        m = n
        while m > 0:
            # sum_q sigma(q) p(m - q) = m p(m): walk the cumulative past v
            w = widths[m]
            if w:
                # below(m p(m)) with each test decided in floats if it can
                total = m * p_rev[n - m]
                unit = units[m]
                margin = tol * total
                while True:
                    v = bits(w)
                    rest = (v >> (w - 53) if w > 53 else v) * unit
                    if rest + unit + margin <= total:
                        break
                    if rest - margin < total and v < m * exact(m)[0][m]:
                        break
                q = self._float_walk(m, rest, total) or _exact_walk(*exact(m), m, v)
            else:
                table, sig = exact(m)
                q = _exact_walk(table, sig, m, below(m * table[m]))
            # the part d among the divisors of q, with weight d; j = q // d
            s = sigma[q]
            d = _pick_divisor(q, s, below(s))
            parts.extend([d] * (q // d))
            m -= q
        parts.sort(reverse=True)
        return Partition(tuple(parts))


class _FristedtSampler:
    """Rejection sampler on Fristedt's independent geometric multiplicities.

    Each l_j is geometric with P(l_j >= a) = w^(j a), w = e^(-d).  A
    geometric variable is a sum of Poissons (Arratia, Barbour & Tavare
    2003): l_j = sum_r r X_jr with X_jr ~ Poisson(w^(j r) / r).  So the
    parts of size >= 2 are the points (j, r) of a Poisson process with
    intensity w^(j r) / r, each point adding r parts of size j.  A trial
    draws the point count as Poisson(Lambda), Lambda = sum_r w^(2r) /
    (r (1 - w^r)); each point's r from that marginal; and its j as 2 plus
    a geometric variable of ratio w^r.

    The parts of size >= 2 leave k = n - sum j*r ones.  Since
    P(l_1 >= k) = w^k, accepting with chance w^k and then setting l_1 = k
    weighs each outcome of the other l_j exactly as P(l_1 = k) does, up to
    the constant 1 - w, so the accepted law is that of conditioning on
    sum_j j*l_j = n.  Trials per acceptance are geometric with mean
    (1 - w) / P(sum_j j*l_j = n).

    The r table stops at the last r with w^(2r) >= 2^-64.  The intensity
    left out beyond it is below 2^-64, so a trial differs from one of the
    untruncated process with chance below 2^-64.
    """

    def __init__(self, n: int):
        self.n = n
        self.d = d = math.pi / math.sqrt(6.0 * n)
        r = np.arange(1, int(32 * math.log(2.0) / d) + 1)
        # cumulative intensity of r, summed over j >= 2
        self.r_cum = np.cumsum(np.exp(-2 * d * r) / (r * -np.expm1(-d * r)))
        self.trials = 0
        self.accepted = 0

    def draw(self, rng: np.random.Generator) -> Partition:
        n, d, r_cum = self.n, self.d, self.r_cum
        lam = float(r_cum[-1])
        for _ in range(FRISTEDT_TRIAL_BUDGET):
            self.trials += 1
            u = rng.random((2, rng.poisson(lam)))
            r = 1 + r_cum[:-1].searchsorted(u[0] * lam, side="right")
            # j - 2 by inversion of a geometric of ratio w^r; 1-U avoids log(0)
            j = 2 + np.floor(np.log1p(-u[1]) / (-d * r)).astype(np.int64)
            k = n - int(j @ r)
            if k >= 0 and rng.random() < math.exp(-d * k):
                self.accepted += 1
                parts = sorted(np.repeat(j, r).tolist(), reverse=True) + [1] * k
                if sum(parts) != n:
                    raise RuntimeError(f"accepted fristedt draw does not sum to n={n}")
                return Partition(tuple(parts))
        raise ResourceError(
            f"fristedt rejection exhausted its {FRISTEDT_TRIAL_BUDGET} trial budget at n={n}"
        )


def make_sampler(cfg: SamplerConfig, ptable: list[int] | None = None):
    if cfg.algorithm == EXACT_RECURSIVE:
        return _ExactRecursiveSampler(cfg.n, ptable)
    return _FristedtSampler(cfg.n)


# one sampler per (n, algorithm), shared by every seed: a draw reads only
# the stream it is given, and the Fristedt trials/accepted counters that
# every draw advances never feed back into the output
@functools.lru_cache(maxsize=4)
def _sampler_for(n: int, algorithm: str):
    return make_sampler(SamplerConfig(n, algorithm))


def sample_partition(cfg: SamplerConfig, rng: np.random.Generator) -> Partition:
    """One uniform partition of cfg.n drawn from the given stream."""
    return _sampler_for(cfg.n, cfg.algorithm).draw(rng)


def cell_from_index(p: Partition, u: int) -> Cell:
    """The u-th cell (1-based) in row-major cells() order, through the
    cumulative row lengths."""
    if not 1 <= u <= p.n:
        raise ValueError(f"cell index {u} outside [1, {p.n}]")
    prefix = list(accumulate(p.parts))
    t = bisect_right(prefix, u - 1) + 1
    s = u - (prefix[t - 2] if t > 1 else 0)
    return Cell(t, s)


def sample_cell(p: Partition, rng: np.random.Generator) -> Cell:
    """A uniform cell of a nonempty partition: a uniform index in [1, n]
    mapped through the cumulative row lengths, in cells() order."""
    n = p.n
    if n < 1:
        raise ValueError("cannot sample a cell of the empty partition")
    return cell_from_index(p, int(rng.integers(1, n + 1)))


def observe_hook(cfg: SamplerConfig, trial: int) -> HookObservation:
    """Run the two-step experiment for one trial index."""
    # the sampler, and on first use its tables, comes before the stream:
    # building the n = 1e5 tables after the stream's allocation raised the
    # process's peak RSS by 1.4 MiB (Linux, glibc malloc)
    sampler = _sampler_for(cfg.n, cfg.algorithm)
    rng = stream(cfg.seed, trial)
    p = sampler.draw(rng)
    c = sample_cell(p, rng)
    hook = hook_length(p, c)
    return HookObservation(n=cfg.n, hook=hook, scaled=scale_hook(hook, cfg.n))


def sample_hooks(cfg: SamplerConfig, count: int, threads: int | None = 1) -> list[HookObservation]:
    """count independent observations of the pair experiment, in trial
    order.  threads=None means one worker per CPU; the worker count is
    clamped to [1, min(count, CPU count)], so threads <= 1 runs serially.
    The result is identical for every thread count."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    cpus = os.cpu_count() or 1
    threads = max(1, min(cpus if threads is None else threads, count, cpus))
    # built before forking, so worker processes inherit the cached sampler
    # (and its tables) copy-on-write
    _sampler_for(cfg.n, cfg.algorithm)
    if threads == 1:
        return [observe_hook(cfg, trial) for trial in range(count)]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork rebuild tables per worker
        ctx = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(max_workers=threads, mp_context=ctx) as pool:
        # one contiguous block of trials per worker, returned in trial order
        chunk = math.ceil(count / threads)
        return list(pool.map(functools.partial(observe_hook, cfg), range(count), chunksize=chunk))
