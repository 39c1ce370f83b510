"""Uniform random partitions, uniform random cells, and hook observations.

Two interchangeable partition samplers draw from the uniform law on the
partitions of n, the first exactly, the second up to two stated
approximations:

* ``exact-recursive`` — the pair recursion: draw a (part d, repetition j)
  pair with probability d * p(m - j*d) / (m * p(m)), append j copies of d,
  recurse on the remainder.  Each pair is drawn in O(1) expected time by
  rejection from an envelope p(m - q) <= p(m) rho_m^q, which holds because
  p is log-concave from 25 on (DeSalvo & Pak 2015): j from a fixed
  proposal of tail about 1/j, d as 1 plus two geometric variables of ratio
  rho_m^j, accepted with the exact ratio of target to proposal, about
  pi^2/12 of the time.  rho_m comes from Rademacher's first term for
  log p(m) (asymptotics.log_partition_counts) with a margin of 1e-9.  Each
  comparison of a uniform is decided in floats when it clears a tolerance
  of 1e-9 in log units, and otherwise in exact rationals, so the law is
  exact; such an undecided acceptance reads the two counts p(m) and
  p(m - j*d) at a point from exact.partition_count.  The uniforms come
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

On the exact route, sample_hooks draws its trials in blocks of at most
_BLOCK = 1024, in lockstep (_ExactRecursiveSampler.draw_block), and each
worker takes one contiguous range of trials.  A trial is a lane: its
Mersenne Twister is seeded as draw seeds it, and its 64-bit words are read
ahead in refills of getrandbits(64 * k), which holds the words that k calls
of getrandbits(64) return, in order (getrandbits(128) is two of them, low
word first); k grows with n, to about what a draw reads, up to 256.  One
numpy iteration makes one proposal (j, G1, G2, acceptance) for every
unfinished lane and decides each comparison in floats by draw's rule, in
float forms of its own whose error stays far below the rule's tolerance.
That rule answers only where the exact route gives the same answer from
the same bits, so neither those forms nor the last-bit differences between
numpy's and math's log or expm1 can change a decision.  A lane leaves the
lockstep one way, through draw's own loop (_finish): when it is done, when
its floats leave a proposal undecided (as a zero word does), or when few
lanes remain.  _finish seeds the lane's generator again and skips the
words the lane has read, so it takes the lane up at its next unread word
(a lane that is done reads no word).  Every lane thus reads the words draw
reads and decides as draw decides.  A lane's result is its pairs (d, j),
and sample_hooks reads each hook from them (_pairs_hooks) without building
the partition, so the observations are byte for byte those of
observe_hook, trial by trial.
"""

from __future__ import annotations

import functools
import math
import os
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterator

import numpy as np

from . import asymptotics
from .errors import ResourceError
from .exact import partition_count
from .limitlaw import scale_hook
from .partitions import Cell, Partition, hook_length

EXACT_RECURSIVE = "exact-recursive"
FRISTEDT_REJECTION = "fristedt-rejection"
ALGORITHMS = (EXACT_RECURSIVE, FRISTEDT_REJECTION)

# the largest n that default_algorithm (--algo auto) sends to the exact
# sampler; above it the default is rejection sampling
EXACT_DEFAULT_LIMIT = 100_000

FRISTEDT_TRIAL_BUDGET = 10_000_000

# the most trials sample_hooks draws in lockstep on the exact route
_BLOCK = 1024

# sample_hooks reads the hooks of finished lanes once they hold this many
# pairs, so that its numpy calls serve many lanes at small n, and its
# arrays stay small at large n
_HOOK_PAIRS = 2048


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


class _ExactRecursiveSampler:
    """Uniform sampler, shared across trials at fixed n.

    A step at remainder m draws the pair (d, j) with probability
    d p(m - dj) / (m p(m)) by rejection from a log-concave envelope.  p is
    log-concave from 25 on (DeSalvo & Pak, Ramanujan J. 2015), so the ratio
    p(k-1)/p(k) does not fall with k there, and p(m - q) <= p(m) rho_m^q for
    every q <= m whenever rho_m >= p(m-1)/p(m) and m > 128.  The remaining
    case, m - q < 26, follows from p(s)/p(26) <= (p(128)/p(129))^(26-s) for
    s < 26, which the tests check with the envelope itself.  rho_m is
    exp(log p(m-1) - log p(m) + 1e-9) with log p from
    asymptotics.log_partition_counts; the margin exceeds twice
    log_partition_error(n), 4.6e-11 at n = 1e8.  For m <= 128, rho_m is the
    largest (p(m-q)/p(m))^(1/q), rounded up by 1 + 2^-40.

    The proposal is j = 2^128 // (V + 1) for a uniform 128-bit V, of pmf
    g(j) = (N//j - N//(j+1)) / N with N = 2^128, and d = 1 + G1 + G2 with
    geometric G of ratio r = rho_m^j, P(G >= a) = r^a.  A pair with
    dj <= m is accepted with chance

        A = p(m - dj) / (p(m) rho_m^(dj)) * r / ((1 - r)^2 K_m g(j)),

    K_m = 2 (1 + 2^-40) / tau^2, tau = -log rho_m.  The first factor is at
    most 1 by the envelope; the second because r/(1-r)^2 <= (j tau)^-2 and
    g(j) >= (1 - j(j+1)/N) / (j(j+1)).  Each accepted pair then has exactly
    the target law, and a step takes K_m / m proposals, about 12/pi^2.

    Every comparison of a uniform against a geometric boundary r^a or
    against A is first made in floats on the uniform's top 64 bits, and it
    answers when it clears _TOL in log units (the float error is below
    1e-10 up to n = 1e8).  Otherwise it is settled in exact rationals:
    rho_m is a float, so rho_m^k is rational, and the acceptance reads the
    two counts p(m) and p(m - dj) at a point, from the caller's table or
    from exact.partition_count.  The uniform is then refined 64 bits at a
    time while the boundary lies inside its interval.  Either route reads
    the same bits and gives the same answer, so the law is exact and the
    output does not depend on which one answered.

    The sampler keeps two float64 arrays over 0..n, log p and rho_m: 16
    bytes per unit of n, and about 40 at the peak of construction (peak
    RSS 33.6 / 67.9 / 106.1 MiB at n = 1e5 / 1e6 / 2e6, from 29 MiB after
    import, Linux x86-64).  It is not written to after construction.

    draw_block makes the draws of a block of seeds in lockstep, as the
    module docstring describes.  Each lane leaves through _finish, which
    seeds the lane's generator again, unless the lane is done, and skips
    the words the lane has read: those drawn from its generator, less the
    buffered ones not yet read, less those of a proposal left undecided.
    That costs a lane tens of microseconds against a draw's milliseconds,
    and keeps the scalar step in one place.

    The lockstep keeps for each lane its read position in one flat buffer
    of words, its remainder, and the slot of its next step in two int32
    pairs arrays that hold one row per step.  An iteration writes every
    lane's (d, j) into its slot and moves the slot on for the lanes that
    took a step.  Every _CHECK iterations the lanes with fewer than
    5 _CHECK words left refill together, and the pairs arrays get room for
    _CHECK more steps: they double their rows and keep only the columns of
    the lanes still in lockstep, and rows not yet reached are not written.
    A lane holds a Mersenne Twister (2.6 KB), 39 + width buffered words
    with width = min(256, 40 + 8 isqrt(n)), and 8 bytes a step: about 400
    steps at n = 1e5, 450 for the longest lane of a block of 1,024.

    The lockstep's float forms differ from draw's.  With b = a lr for each
    geometric, its bound (a + 1) lr is b + lr; b lies in [log U, log U -
    lr), so |b| < 45.  The acceptance log is lps[m - q] - lps[m] - (b1 +
    b2) + log(j (j + 1) (lrho / expm1(lr))^2), against thresholds moved by
    log(2 (1 + 2^-40)).  There b1 + b2 is within 3e-14 of (q - j) lrho,
    and the one log's argument has a relative error of a few units in the
    last place (lr / expm1(lr) is no more sensitive to lr than lr itself),
    so the log is off by under 1e-14.  Each form adds about 1e-14, and the
    whole float error stays below 1e-10 up to n = 1e8.

    On a 2-CPU host (Linux x86-64, Python 3.11.7, numpy 2.4.6, a fresh
    process per run, three runs), an observation with its cell and hook
    cost 0.39-0.42 ms over 160 trials at n = 1e5 and 0.23-0.25 ms over
    4,096, against 1.7-1.9 ms trial by trial; 0.65-0.72 ms over 1,024
    trials at n = 1e6, against 5.4-6.0 ms; and 39-40 us over 10,000 trials
    at n = 3, against 48-57 us.  A block of 1,024 lanes at n = 1e5 holds
    about 9 MiB: 2.6 MiB of generators, 2.4 MiB of words and up to 4 MiB
    of pairs.
    """

    # up to this remainder rho_m comes from the exact table
    _SMALL = 128
    # log margin of rho_m past _SMALL over p(m-1)/p(m)
    _MARGIN = 1e-9
    # a float comparison answers when it clears this, in log units
    _TOL = 1e-9
    # j = _BIG // (V + 1) for a uniform V below _BIG
    _BIG = 1 << 128
    # 64-bit words a lane of draw_block draws at a time, at most
    _WORDS = 256
    # draw_block finishes its last lanes one at a time from this many on
    _FEW = 16
    # draw_block makes room for pairs and refills words every this many
    # proposals
    _CHECK = 8

    def __init__(self, n: int, ptable: list[int] | None = None):
        self.n = n
        if ptable is not None and len(ptable) < n + 1:
            raise ValueError(f"partition table too short for n={n}")
        # rho_m's margin and the float comparisons' tolerance must exceed
        # the error of two log p values and of the arithmetic on them, which
        # holds up to n of about 1e10
        if 4 * asymptotics.log_partition_error(n) >= min(self._MARGIN, self._TOL):
            raise ValueError(f"n={n} past the range where the margin covers log p's error")
        self._count = partition_count if ptable is None else ptable.__getitem__
        self._lp = lp = asymptotics.log_partition_counts(n)
        rho = np.zeros(n + 1)
        rho[1:] = np.exp(lp[:-1] - lp[1:] + self._MARGIN)
        k = min(n, self._SMALL)
        m = np.arange(2, k + 1)[:, None]
        q = np.arange(1, k + 1)
        slope = np.where(q <= m, (lp[np.maximum(m - q, 0)] - lp[m]) / q, -np.inf)
        rho[2 : k + 1] = np.exp(slope.max(axis=1)) * (1 + 2.0**-40)
        self._rho = rho
        # the words a lane of draw_block draws at a time: a draw reads about
        # 8 sqrt(n) + 20 words, from 28 on average at n = 3 to 2,500 at 1e5,
        # and a refill must hold the 5 _CHECK words of _CHECK proposals
        self._width = min(self._WORDS, 5 * self._CHECK + 8 * math.isqrt(n))

    def draw(self, rng: np.random.Generator) -> Partition:
        return _partition(*self._finish(_draw_seed(rng), 0, self.n))

    def _finish(self, seed: int, read: int, m: int) -> tuple[list[int], list[int]]:
        """The pairs (d, j) of the draw whose Mersenne Twister is seeded with
        seed, from remainder m on, taken up after its first read 64-bit
        words: the pair of each step, drawn by rejection, until the
        remainder is at most 1, then (1, 1) if it is 1; as a list of d and a
        list of j.  The one implementation of the exact route's step: draw
        runs a whole draw through it, draw_block the rest of each lane."""
        if m <= 1:
            # a lane that is done reads no word, so it neither seeds nor
            # skips: at n = 1e5 the skip of a whole draw's 2,500 words alone
            # takes about 46 us
            return [1] * m, [1] * m
        # getrandbits is used directly because randrange's algorithm may
        # change between Python versions; getrandbits(64 k) reads the words
        # of k calls of getrandbits(64), and getrandbits(0) reads none
        bits = random.Random(seed).getrandbits
        bits(64 * read)
        # memoryviews index as Python floats, cheaper per step than numpy
        # scalars
        lp, rhos = memoryview(self._lp), memoryview(self._rho)
        tol, log, big, count = self._TOL, math.log, self._BIG, self._count

        def less(u: list[int], x: Fraction) -> bool:
            # whether U < x, for U in [v, v + 1) / 2^b with u = [v, b];
            # U gains 64 bits while x lies inside its interval
            while True:
                v, b = u
                if (v + 1) * x.denominator <= x.numerator << b:
                    return True
                if v * x.denominator >= x.numerator << b:
                    return False
                u[:] = v << 64 | bits(64), b + 64

        def geometric(lr: float, rho: float, j: int) -> int:
            # the largest a with U < r^a, r = rho^j and lr = log r
            # U lies in [v, v + 1) / 2^64, so log U is within 1/v above lo
            v = bits(64)
            lo = log((v or 1) * 2.0**-64)
            a = int(lo / lr)
            if v and (a + 1) * lr + tol <= lo and a * lr - tol >= lo + 1 / v:
                return a
            u, r = [v, 64], Fraction(rho) ** j
            while a and not less(u, r**a):
                a -= 1
            while less(u, r ** (a + 1)):
                a += 1
            return a

        def step(m: int) -> tuple[int, int]:
            rho = rhos[m]
            lrho = log(rho)
            k = 2 * (1 + 2.0**-40) / (lrho * lrho)
            base = lp[m] + log(k)
            while True:
                j = big // (bits(128) + 1)
                if j > m:
                    continue
                lr = j * lrho
                d = 1 + geometric(lr, rho, j) + geometric(lr, rho, j)
                q = d * j
                if q > m:
                    continue
                # log A, up to float error
                la = lp[m - q] - (q - j) * lrho - 2 * log(-math.expm1(lr)) + log(j * (j + 1)) - base
                v = bits(64)
                if v:
                    lo = log(v * 2.0**-64)
                    if lo + 1 / v + tol <= la:
                        return d, j
                    if lo - tol >= la:
                        continue
                x = Fraction(rho)
                r = x**j
                g = Fraction(big // j - big // (j + 1), big)
                ratio = Fraction(count(m - q), count(m))
                accept = ratio / x**q * r / ((1 - r) ** 2 * Fraction(k) * g)
                if less([v, 64], accept):
                    return d, j

        ds, js = [], []
        while m > 1:
            d, j = step(m)
            ds.append(d)
            js.append(j)
            m -= d * j
        return ds + [1] * m, js + [1] * m

    def draw_block(self, seeds: list[int]) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """The draws from the given _draw_seed values, made in lockstep, one
        lane per seed: yields (position in seeds, d, j) as each lane
        finishes, in no fixed order, with d and j int64 arrays of its pairs
        in the order drawn.  They are the pairs of _finish, so
        _partition(d, j) is the partition that draw makes from a stream
        whose _draw_seed is that seed."""
        n, tol, width, check = self.n, self._TOL, self._width, self._CHECK
        lps, rhos = self._lp, self._rho
        # each lane's generator, as draw seeds it; lane k's buffer buf[k]
        # holds the words of its last refill in its last width places, and
        # in front of them the words of the refill before that it had not
        # read (fewer than the 5 check proposals read at most)
        gens = [random.Random(seed).getrandbits for seed in seeds]
        spare = 5 * check - 1
        buf = np.empty((len(seeds), spare + width), "<u8")
        flat = buf.reshape(-1)
        # the bytes of buf, which a refill writes without a numpy call per
        # lane or a joined copy of the words of all lanes
        raw = memoryview(flat).cast("B")
        # one row per lane still in lockstep: the lane (its position in
        # seeds and its row of buf), its read position in flat, the words
        # drawn from its generator, its remainder, and the slot in pd and pj
        # of its next step: the lane's column in the pairs arrays, which
        # hold one row per step, plus its steps times their width cols.
        # Each buffer starts spent, so the first refill draws its first
        # words; a lane that leaves at once draws none
        state = np.zeros((5, len(seeds)), np.int64)
        lane, pos, taken, m, slot = state
        lane[:] = slot[:] = np.arange(len(seeds))
        pos[:] = (lane + 1) * buf.shape[1]
        m[:] = n
        rows, cols = 64, len(seeds)
        pd, pj = np.empty(rows * cols, np.int32), np.empty(rows * cols, np.int32)
        # a lane leaves when it is done, when its last proposal was left
        # undecided, or when few lanes are left; _finish takes it up at the
        # first word of that proposal
        leave, undecided = m <= 1, np.zeros(len(seeds), bool)
        fits = inside = undecided
        offsets = np.arange(5)[:, None]
        log_c = math.log(2 * (1 + 2.0**-40))
        it = 0
        while True:
            if len(lane) <= self._FEW:
                leave = np.ones_like(leave)
            out = np.flatnonzero(leave)
            # the words a lane has read: those drawn less those not read,
            # less those of an undecided proposal, 2, 4 or 5 by how far draw
            # reads it
            read = taken[out] + pos[out] - (lane[out] + 1) * buf.shape[1]
            read -= np.where(undecided, 2 + 2 * fits + inside, 0)[out]
            for k, rest, s, r in zip(*state[[0, 3, 4]][:, out].tolist(), read.tolist()):
                # _finish seeds a generator of its own, so the lane's is
                # dropped first and its memory serves that one
                gens[k] = None
                d, j = self._finish(seeds[k], r, rest)
                # the lane's column of the pairs arrays, up to its slot
                c = s % cols
                yield (k, np.concatenate((pd[c:s:cols], np.array(d, np.int64))),
                       np.concatenate((pj[c:s:cols], np.array(j, np.int64))))
            if len(out):
                state = state[:, ~leave]
                lane, pos, taken, m, slot = state
                if not len(lane):
                    return
            with np.errstate(all="ignore"):
                while True:
                    if it % check == 0:
                        if slot.max() >= (rows - check) * cols:
                            # room for check more steps per lane: the pairs
                            # arrays double their rows and keep only the
                            # columns of the lanes still in lockstep
                            used = int(slot.max()) // cols + 1
                            col = slot % cols
                            pd = _regrid(pd, rows, used, col)
                            pj = _regrid(pj, rows, used, col)
                            slot[:] = slot // cols * len(lane) + np.arange(len(lane))
                            rows, cols = 2 * rows, len(lane)
                        # lanes with fewer words left than check proposals
                        # may read move them to the front and refill
                        refill = np.flatnonzero(pos - lane * buf.shape[1] >= width)
                        if len(refill):
                            ks = lane[refill]
                            buf[ks, :spare] = buf[ks, -spare:]
                            for k in ks.tolist():
                                end = 8 * (k + 1) * buf.shape[1]
                                words = gens[k](64 * width).to_bytes(8 * width, "little")
                                raw[end - 8 * width : end] = words
                            pos[refill] -= width
                            taken[refill] += width
                    it += 1
                    # one proposal per lane: j from words 0 and 1, G1 and G2
                    # from 2 and 3, the acceptance from 4; each decided in
                    # floats by draw's rule, or else left to _finish.  A zero
                    # word makes its log -inf and its 1/v inf, so every
                    # comparison it enters fails
                    w = flat[pos + offsets]
                    j = _pair_j(w[0], w[1], m)
                    v = w[2:].astype(np.float64)
                    u = np.log(v * 2.0**-64)
                    top = u + 1 / v
                    lrho = np.log(rhos[m])
                    lr = j * lrho
                    a = np.floor(u[:2] / lr)
                    b = a * lr
                    g = (b + (lr + tol) <= u[:2]) & (b - tol >= top[:2])
                    geo = g[0] & g[1]
                    d = a[0] + a[1] + 1
                    q = d * j
                    fits = j <= m
                    inside = q <= m
                    # q as an integer where it is one, anything elsewhere
                    qi = q.astype(np.int64)
                    # log A + log_c; b[0] + b[1] is (q - j) log rho
                    la = (lps.take(m - qi, mode="clip") - lps[m] - (b[0] + b[1])
                          + np.log(j * (j + 1) * (lrho / np.expm1(lr)) ** 2))
                    accept = top[2] + (tol + log_c) <= la
                    settled = accept | (u[2] + (log_c - tol) >= la)
                    took = inside & geo & accept
                    undecided = fits & ~(geo & (~inside | settled))
                    # 2 words for a j past m, 4 for a q past m, else 5
                    pos += 2 + 2 * fits + inside
                    pd[slot] = d
                    pj[slot] = j
                    slot += took * cols
                    m -= qi * took
                    leave = undecided | (m <= 1)
                    if leave.any():
                        break


def _draw_seed(rng: np.random.Generator) -> int:
    """The seed of a draw's Mersenne Twister: 128 bits of the trial's
    stream, which the draw reads first and only."""
    return int.from_bytes(rng.bytes(16), "little")


def _partition(d: list[int], j: list[int]) -> Partition:
    """The partition with j copies of each part d, from pairs (d, j)."""
    parts = []
    for part, copies in zip(d, j):
        parts += [part] * copies
    parts.sort(reverse=True)
    return Partition(tuple(parts))


def _pairs_hooks(d: np.ndarray, j: np.ndarray, sizes: list[int], u: list[int]) -> np.ndarray:
    """hook_length(p, cell_from_index(p, u)) for each of several partitions
    p, given by pairs (d, j), j copies of the part d: partition k has the
    next sizes[k] pairs of d and j, in any order and a d maybe in more than
    one pair, and the cell index u[k].  With each partition's pairs in
    descending d, the cumulative sums of j and of d j count the rows and the
    cells before each pair; the cell lies in the first pair whose cells
    reach u, and the rows at least as long as its column are those of the
    pairs down to the last d at least that."""
    lane = np.repeat(np.arange(len(sizes)), sizes)
    # sorted by key: by partition, then by descending d
    top = int(d.max()) + 1
    key = lane * top + (top - 1 - d)
    order = np.argsort(key)
    key, d, j = key[order], d[order], j[order]
    rows, cells = np.zeros(len(d) + 1, np.int64), np.zeros(len(d) + 1, np.int64)
    np.cumsum(j, out=rows[1:])
    np.cumsum(d * j, out=cells[1:])
    start = np.cumsum(sizes) - sizes
    target = cells[start] + u
    k = np.searchsorted(cells[1:], target)
    part, first = d[k], rows[start]
    at = target - 1 - cells[k]  # the cell's place among pair k's cells
    t = rows[k] - first + at // part + 1
    s = at % part + 1
    height = rows[np.searchsorted(key, np.arange(len(sizes)) * top + (top - 1 - s), side="right")] - first
    return part - s + height - t + 1


def _regrid(pairs: np.ndarray, rows: int, used: int, col: np.ndarray) -> np.ndarray:
    """A flat pairs array of rows rows, as one of 2 rows rows and the
    columns col, holding their first used rows.  The rows past those are
    not written, so no memory is touched for them until a step is."""
    out = np.empty((2 * rows, len(col)), pairs.dtype)
    # every col is in range; a mode other than "raise" writes out unbuffered
    np.take(pairs.reshape(rows, -1)[:used], col, axis=1, out=out[:used], mode="clip")
    return out.reshape(-1)


def _pair_j(lo: np.ndarray, hi: np.ndarray, m: np.ndarray) -> np.ndarray:
    """min(2^128 // (V + 1), m + 1) for V = hi 2^64 + lo, from uint64 words,
    as exact integers in float64 (m + 1 < 2^53).  The float quotient is
    within a relative 2^-49 of the true one, so the true j lies between the
    floors of that quotient shrunk and grown by 2^-40; where the two
    differ, Python integers settle it."""
    jf = 2.0**128 / (hi.astype(np.float64) * 2.0**64 + lo.astype(np.float64) + 1.0)
    cap = m + 1
    j = np.minimum(np.floor(jf * (1 - 2.0**-40)), cap)
    for i in (j != np.minimum(np.floor(jf * (1 + 2.0**-40)), cap)).nonzero()[0]:
        j[i] = min((1 << 128) // ((int(hi[i]) << 64 | int(lo[i])) + 1), int(cap[i]))
    return j


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
    return cell_from_index(p, _cell_index(rng, n))


def _cell_index(rng: np.random.Generator, n: int) -> int:
    """sample_cell's uniform index in [1, n], the one read it makes of rng."""
    return int(rng.integers(1, n + 1))


def _observation(cfg: SamplerConfig, p: Partition, c: Cell) -> HookObservation:
    hook = hook_length(p, c)
    return HookObservation(n=cfg.n, hook=hook, scaled=scale_hook(hook, cfg.n))


def observe_hook(cfg: SamplerConfig, trial: int) -> HookObservation:
    """Run the two-step experiment for one trial index."""
    # the sampler, and on first use its tables, comes before the stream:
    # building the n = 1e5 tables after the stream's allocation raised the
    # process's peak RSS by 1.4 MiB (Linux, glibc malloc)
    sampler = _sampler_for(cfg.n, cfg.algorithm)
    rng = stream(cfg.seed, trial)
    p = sampler.draw(rng)
    return _observation(cfg, p, sample_cell(p, rng))


def _observe_trials(cfg: SamplerConfig, trials: range) -> list[HookObservation]:
    """observe_hook over a range of trials.  The exact route draws them in
    blocks of at most _BLOCK trials in lockstep.  A trial's stream gives
    its draw seed and then its cell index, as in observe_hook, so both are
    read before the draw and the stream is dropped; each lane's pairs are
    dropped once its hook is taken."""
    if cfg.algorithm != EXACT_RECURSIVE:
        return [observe_hook(cfg, trial) for trial in trials]
    sampler = _sampler_for(cfg.n, cfg.algorithm)
    out = [None] * len(trials)
    blocks = math.ceil(len(trials) / _BLOCK)
    for b in range(blocks):
        lo, hi = len(trials) * b // blocks, len(trials) * (b + 1) // blocks
        seeds, cells = [], []
        for trial in trials[lo:hi]:
            rng = stream(cfg.seed, trial)
            seeds.append(_draw_seed(rng))
            cells.append(_cell_index(rng, cfg.n))
        done, ds, js, pairs = [], [], [], 0
        for finished, (i, d, j) in enumerate(sampler.draw_block(seeds), start=1):
            done.append(i)
            ds.append(d)
            js.append(j)
            pairs += len(d)
            if pairs < _HOOK_PAIRS and finished < len(seeds):
                continue
            hooks = _pairs_hooks(np.concatenate(ds), np.concatenate(js), [len(x) for x in ds],
                                 [cells[i] for i in done])
            for i, hook in zip(done, hooks.tolist()):
                out[lo + i] = HookObservation(n=cfg.n, hook=hook, scaled=scale_hook(hook, cfg.n))
            done, ds, js, pairs = [], [], [], 0
    return out


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
        return _observe_trials(cfg, range(count))
    # imported here, not at module level: only a pool uses them, and every
    # command would pay their import
    import concurrent.futures
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork rebuild tables per worker
        ctx = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(max_workers=threads, mp_context=ctx) as pool:
        # one contiguous range of trials per worker, returned in trial order
        ranges = [range(count * w // threads, count * (w + 1) // threads) for w in range(threads)]
        return [obs for part in pool.map(functools.partial(_observe_trials, cfg), ranges) for obs in part]
