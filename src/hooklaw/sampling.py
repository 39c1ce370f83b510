"""Uniform random partitions, uniform random cells, and hook observations.

Two interchangeable partition samplers draw from the uniform law on the
partitions of n, the first exactly, the second up to two stated
approximations:

* ``exact-recursive`` — the table-driven pair recursion: draw a (part d,
  repetition j) pair with probability d * p(m - j*d) / (m * p(m)), append j
  copies of d, recurse on the remainder.  The selection is done entirely in
  big-integer arithmetic (cumulative weights against a uniform big-integer
  draw); no floating point touches the exact path.

* ``fristedt-rejection`` — independent geometric multiplicities l_j with
  success parameter 1 - w^j at w = exp(-pi / sqrt(6 n)) (Fristedt 1993),
  accepted by the deterministic second half of probabilistic
  divide-and-conquer (Arratia & DeSalvo 2016): the parts of size >= 2
  leave k = n - sum_{j>=2} j*l_j, and the trial is accepted when k >= 0
  and l_1 >= k, an event of chance w^k; then l_1 = k.  Conditioned on
  acceptance the law is uniform for every w.  The acceptance rate falls
  like n^(-1/4), against n^(-3/4) for waiting until sum j*l_j hits n:
  about 40 trials per draw at n = 1e4.  Two approximations stand between
  this and the exact law: each l_j is drawn by float inversion of a double
  uniform, and multiplicities whose chance of being nonzero is below 2^-64
  are pinned to 0.

Randomness comes from counter-based streams keyed by (seed, trial index),
so worker processes reproduce the serial observation sequence exactly no
matter how trials are split.
"""

from __future__ import annotations

import concurrent.futures
import logging
import math
import multiprocessing
import os
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import isqrt

import numpy as np

from .errors import ResourceError
from .exact import partition_counts
from .partitions import Cell, Partition, hook_length

log = logging.getLogger(__name__)

EXACT_RECURSIVE = "exact-recursive"
FRISTEDT_REJECTION = "fristedt-rejection"
ALGORITHMS = (EXACT_RECURSIVE, FRISTEDT_REJECTION)

# above this size the p(n) table stops being worth building and rejection
# sampling takes over as the default
EXACT_DEFAULT_LIMIT = 100_000

FRISTEDT_TRIAL_BUDGET = 10_000_000


def default_algorithm(n: int) -> str:
    return EXACT_RECURSIVE if n <= EXACT_DEFAULT_LIMIT else FRISTEDT_REJECTION


@dataclass(frozen=True)
class SamplerConfig:
    """Target size, algorithm choice, and the 64-bit stream seed."""

    n: int
    algorithm: str = EXACT_RECURSIVE
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
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


class _BitStream:
    """Buffered random bits from a Generator, consumed in a fixed order.

    below(m) draws a uniform integer in [0, m) of any size by masked
    rejection: take bit_length(m) random bits, retry while >= m.
    """

    __slots__ = ("rng", "buf", "pos", "size")

    _REFILL_WORDS = 2048

    def __init__(self, rng: np.random.Generator, words: int):
        self.rng = rng
        self.buf = rng.integers(0, 1 << 64, size=words, dtype=np.uint64).tobytes()
        self.size = len(self.buf)
        self.pos = 0

    def _take(self, nbytes: int) -> bytes:
        if self.pos + nbytes > self.size:
            extra = self.rng.integers(
                0, 1 << 64, size=max(self._REFILL_WORDS, nbytes // 8 + 1), dtype=np.uint64
            ).tobytes()
            self.buf = self.buf[self.pos :] + extra
            self.size = len(self.buf)
            self.pos = 0
        out = self.buf[self.pos : self.pos + nbytes]
        self.pos += nbytes
        return out

    def below(self, m: int) -> int:
        if m == 1:
            return 0
        bits = m.bit_length()
        nbytes = (bits + 7) >> 3
        shift = (nbytes << 3) - bits
        while True:
            v = int.from_bytes(self._take(nbytes), "little") >> shift
            if v < m:
                return v


class _ExactRecursiveSampler:
    """Table-driven uniform sampler, shared across trials at fixed n.

    Per step at remainder m, the removed total q = j*d is drawn with weight
    sigma(q) * p(m - q) (sigma = divisor sum), then d is picked among the
    divisors of q with weight d; this is exactly the (d, j) pair law above.

    The weights of q sum to m * p(m), so q is located by inverse CDF: a
    uniform big integer u below m * p(m) against the cumulative weights,
    walked from q = 1.  The walk first runs in floats, vectorized over
    blocks of q; it answers only when u / (m p(m)) clears both ends of its
    interval by _SLACK, which bounds the float error with a wide margin.
    Otherwise, and at small m, the walk runs in exact big integers.  Both
    walks give the same q for the same u, so the law is exact and the
    output does not depend on which walk answered.
    """

    # at or below this remainder the exact walk is cheaper than numpy calls
    _EXACT_WALK_MAX = 128
    # the float tables are exps of arguments below ~1e3 in size, within
    # ~1e-11 relative of exact, so each float cumulative over m p(m) is
    # within 1e-11 + q 2^-52 of the exact one
    _SLACK = 1e-9

    def __init__(self, n: int, ptable: list[int] | None = None):
        self.n = n
        if ptable is None:
            ptable = partition_counts(n)
        if len(ptable) < n + 1:
            raise ValueError(f"partition table too short for n={n}")
        self.p = ptable
        sigma = np.zeros(n + 1, dtype=np.int64)
        for d in range(1, n + 1):
            sigma[d::d] += d
        self.sigma = sigma.tolist()
        # float walk tables, scaled by exp(-beta k) to stay in range:
        # sigma(q) p(m - q) = e^(beta m) sigma_scaled[q] p_rev[n - m + q],
        # with p_rev reversed so that both slices of a walk are contiguous
        log_p = np.array([math.log(v) for v in ptable[: n + 1]])
        beta = log_p[n] / max(n, 1)
        k = np.arange(n + 1)
        with np.errstate(over="ignore", under="ignore"):
            self._p_rev = np.exp(log_p - beta * k)[::-1].copy()
            self._sigma_scaled = sigma * np.exp(-beta * k)
        if not np.isfinite(self._p_rev).all():
            self._p_rev = None  # out of float range (n past ~1e6)
        self._divisors: dict[int, list[int]] = {}

    def _divisor_list(self, q: int) -> list[int]:
        dv = self._divisors.get(q)
        if dv is None:
            small = [d for d in range(1, isqrt(q) + 1) if q % d == 0]
            dv = sorted(small + [q // d for d in small if q // d != d])
            self._divisors[q] = dv
        return dv

    def _float_walk(self, m: int, x: float) -> int:
        """The q whose float cumulative interval holds x with the slack to
        spare at both ends, else 0."""
        p_rev, sigma_scaled = self._p_rev, self._sigma_scaled
        off = self.n - m
        total = m * float(p_rev[off])
        rest = x * total  # the target, less the cumulative of earlier blocks
        slack = (self._SLACK + m * 1e-15) * total
        lo = 0
        width = 4 * isqrt(m) + 16
        while lo < m:
            hi = min(m, lo + width)
            cum = np.add.accumulate(sigma_scaled[lo + 1 : hi + 1] * p_rev[off + lo + 1 : off + hi + 1])
            i = int(cum.searchsorted(rest, side="right"))
            if i < hi - lo:
                left = float(cum[i - 1]) if i else 0.0
                return lo + i + 1 if left + slack <= rest < float(cum[i]) - slack else 0
            rest -= float(cum[-1])
            lo = hi
            width *= 2
        return 0

    def draw(self, rng: np.random.Generator) -> Partition:
        bits = _BitStream(rng, words=min(4096, max(64, self.n // 16)))
        below = bits.below
        p = self.p
        sigma = self.sigma
        counts: dict[int, int] = {}
        m = self.n
        while m > 0:
            # sum_q sigma(q) p(m - q) = m p(m): walk the cumulative past u
            total = m * p[m]
            u = below(total)
            q = 0
            if m > self._EXACT_WALK_MAX and self._p_rev is not None:
                q = self._float_walk(m, u / total)
            if not q:
                acc = 0
                for q in range(1, m + 1):
                    acc += sigma[q] * p[m - q]
                    if acc > u:
                        break
            # pick the divisor d of q with weight d; repetition j = q // d
            sq = sigma[q]
            w = below(sq) if sq > 1 else 0
            acc_d = 0
            d = q
            for d in self._divisor_list(q):
                acc_d += d
                if acc_d > w:
                    break
            counts[d] = counts.get(d, 0) + q // d
            m -= q
        parts: list[int] = []
        for d in sorted(counts, reverse=True):
            parts.extend([d] * counts[d])
        return Partition(tuple(parts))


class _FristedtSampler:
    """Rejection sampler from independent geometric multiplicities.

    A trial draws every l_j; the parts of size >= 2 leave k = n -
    sum_{j>=2} j*l_j for the ones.  Since P(l_1 >= k) = w^k, accepting
    when l_1 >= k and then setting l_1 = k weighs each outcome of the
    other l_j exactly as P(l_1 = k) does, up to the constant 1 - w, so the
    accepted law is that of conditioning on sum j*l_j = n.  Trials per
    acceptance are geometric with mean (1 - w) / P(sum_j j*l_j = n).
    """

    _BATCH = 64

    def __init__(self, n: int, budget: int = FRISTEDT_TRIAL_BUDGET):
        self.n = n
        self.budget = budget
        d = math.pi / math.sqrt(6.0 * n)
        # beyond this index the success probability w^j of a nonzero
        # multiplicity is below 2^-64 and the multiplicity is pinned to 0
        jcut = min(n, int(64 * math.log(2.0) / d) + 1)
        self.jcut = jcut
        self.jvec = np.arange(1, jcut + 1, dtype=np.int64)
        self.log_wj = -d * self.jvec.astype(float)
        self.trials = 0
        self.accepted = 0

    def draw(self, rng: np.random.Generator) -> Partition:
        n = self.n
        jvec = self.jvec
        used = 0
        while used < self.budget:
            # one batch of independent trials; the first hit in batch order
            # is the accepted one, the rest of the batch is discarded
            uniforms = rng.random((self._BATCH, self.jcut))
            # inversion per j: floor(log(1-U) / log(w^j)); 1-U avoids log(0)
            mults = np.floor(np.log1p(-uniforms) / self.log_wj).astype(np.int64)
            # parts of size >= 2 leave k ones; P(l_1 >= k) = w^k accepts
            k = n - mults[:, 1:] @ jvec[1:]
            used += self._BATCH
            hits = np.nonzero((k >= 0) & (mults[:, 0] >= k))[0]
            if hits.size:
                self.trials += int(hits[0]) + 1
                self.accepted += 1
                if self.accepted % 1000 == 0:
                    log.debug(
                        "fristedt n=%d acceptance rate %.3e",
                        n,
                        self.accepted / max(1, self.trials),
                    )
                row = mults[hits[0]]
                row[0] = k[hits[0]]
                nz = np.nonzero(row)[0]
                parts: list[int] = []
                for idx in nz[::-1]:
                    parts.extend([int(idx) + 1] * int(row[idx]))
                if sum(parts) != n:
                    raise RuntimeError(f"accepted fristedt draw does not sum to n={n}")
                return Partition(tuple(parts))
            self.trials += self._BATCH
        raise ResourceError(
            f"fristedt rejection exhausted its {self.budget} trial budget at n={n}"
        )


def make_sampler(cfg: SamplerConfig, ptable: list[int] | None = None):
    if cfg.algorithm == EXACT_RECURSIVE:
        return _ExactRecursiveSampler(cfg.n, ptable)
    return _FristedtSampler(cfg.n)


def sample_partition(cfg: SamplerConfig, rng: np.random.Generator) -> Partition:
    """One uniform partition of cfg.n drawn from the given stream."""
    return _sampler_for(cfg).draw(rng)


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


def observe_hook(cfg: SamplerConfig, trial: int, sampler=None) -> HookObservation:
    """Run the two-step experiment for one trial index."""
    if sampler is None:
        sampler = _sampler_for(cfg)
    rng = stream(cfg.seed, trial)
    p = sampler.draw(rng)
    c = sample_cell(p, rng)
    hook = hook_length(p, c)
    return HookObservation(n=cfg.n, hook=hook, scaled=scale_hook(hook, cfg.n))


def scale_hook(hook: int, n: int) -> float:
    return math.pi * hook / math.sqrt(6.0 * n)


def _run_block(args: tuple[SamplerConfig, int, int]) -> list[int]:
    cfg, lo, hi = args
    sampler = _sampler_for(cfg)
    hooks = []
    for trial in range(lo, hi):
        hooks.append(observe_hook(cfg, trial, sampler).hook)
    return hooks


def sample_hooks(cfg: SamplerConfig, count: int, threads: int = 1) -> list[HookObservation]:
    """count independent observations of the pair experiment, in trial
    order.  The result is identical for every thread count, which is
    capped at the CPU count."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    threads = max(1, min(threads, count, os.cpu_count() or 1))
    # built before forking, so worker processes inherit the cached sampler
    # (and its tables) copy-on-write
    sampler = _sampler_for(cfg)
    if threads == 1:
        return [observe_hook(cfg, trial, sampler) for trial in range(count)]

    blocks = []
    base, extra = divmod(count, threads)
    lo = 0
    for b in range(threads):
        hi = lo + base + (1 if b < extra else 0)
        blocks.append((cfg, lo, hi))
        lo = hi
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork rebuild tables per worker
        ctx = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(max_workers=threads, mp_context=ctx) as pool:
        results = list(pool.map(_run_block, blocks))
    out: list[HookObservation] = []
    for hooks in results:
        for hook in hooks:
            out.append(HookObservation(n=cfg.n, hook=hook, scaled=scale_hook(hook, cfg.n)))
    return out


# small cache so repeated sample_partition / observe_hook calls at one size
# do not rebuild tables; read-only after construction
_SAMPLER_CACHE: dict[SamplerConfig, object] = {}


def _sampler_for(cfg: SamplerConfig):
    sampler = _SAMPLER_CACHE.get(cfg)
    if sampler is None:
        if len(_SAMPLER_CACHE) > 4:
            _SAMPLER_CACHE.clear()
        sampler = make_sampler(cfg)
        _SAMPLER_CACHE[cfg] = sampler
    return sampler


def resolve_threads(requested: int | None) -> int:
    """--threads flag, HOOKLAW_THREADS, or machine parallelism, in that order."""
    if requested is not None:
        return max(1, requested)
    env = os.environ.get("HOOKLAW_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1
