"""Exact computations over all partitions of n.

Everything here is integer- or rational-exact: the partition counting
recurrence, streaming enumeration in reverse-lexicographic order, power-sum
and hook-length moments, and the exact law of the hook length of a uniform
cell in a uniform partition.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import ResourceError
from .partitions import Partition

ENUMERATION_CAP = 60

# partitions of n per numpy block in the enumeration routines
_WALK_BLOCK = 512

# Growable table p(0..N), extended on demand and then only read.
_PTABLE: list[int] = [1]

# rows of the pentagonal recurrence computed together in _extend_ptable
_PTABLE_BLOCK = 512


def _extend_ptable(limit: int) -> None:
    """Append p(len(_PTABLE)..limit) by the pentagonal recurrence
    p(m) = sum_k (-1)^(k+1) (p(m - k(3k-1)/2) + p(m - k(3k+1)/2)).

    Rows are computed in blocks: an offset at least as long as the block
    reads only finished rows, so it adds as one slice of a numpy object
    array that holds the whole table; the few shorter offsets run row by
    row.  An extension shorter than one block runs every offset row by
    row, since copying the table into that array would cost O(limit) per
    call, and O(n^2) for the calls p(1), p(2), ..., p(n).
    """
    p = _PTABLE
    start = len(p)
    offsets = []  # (generalized pentagonal number, sign), increasing
    k = 1
    while k * (3 * k - 1) // 2 <= limit:
        sign = 1 if k % 2 else -1
        offsets += [(k * (3 * k - 1) // 2, sign), (k * (3 * k + 1) // 2, sign)]
        k += 1
    blocked = limit + 1 - start >= _PTABLE_BLOCK
    if blocked:
        table = np.empty(limit + 1, dtype=object)
        table[:start] = p
    for lo in range(start, limit + 1, _PTABLE_BLOCK):
        hi = min(lo + _PTABLE_BLOCK, limit + 1)
        acc = np.zeros(hi - lo, dtype=object)
        short = []
        for g, sign in offsets:
            if g >= hi:
                break
            if g < hi - lo or not blocked:
                short.append((g, sign))
                continue
            a = max(lo, g)  # rows below g have no term at offset g
            if sign > 0:
                acc[a - lo :] += table[a - g : hi - g]
            else:
                acc[a - lo :] -= table[a - g : hi - g]
        for m, total in enumerate(acc.tolist(), start=lo):
            for g, sign in short:
                if g > m:
                    break
                if sign > 0:
                    total += p[m - g]
                else:
                    total -= p[m - g]
            p.append(total)
        if blocked:
            table[lo:hi] = p[lo:hi]


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n, by the pentagonal recurrence."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n >= len(_PTABLE):
        _extend_ptable(n)
    return _PTABLE[n]


def partition_counts(limit: int) -> list[int]:
    """The table p(0..limit) as a fresh list."""
    partition_count(limit)
    return _PTABLE[: limit + 1]


def iter_partitions(n: int) -> Iterator[Partition]:
    """Stream every partition of n exactly once, in reverse-lexicographic
    order: (n) first, (1,...,1) last.  Constant memory beyond the current
    partition.

    Partitions that agree on their first parts appear consecutively, so
    disjoint ranges of first parts give a splittable-work contract for
    parallel consumers.

    The enumeration routines below read the same walk, once per n through
    the cached _tally, in blocks of _WALK_BLOCK partitions, so their
    memory does not grow with p(n).
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    for parts in _walk(n):
        yield Partition(tuple(parts))


def _walk(n: int) -> Iterator[bytearray | list[int]]:
    """The walk of iter_partitions, each partition as a fresh sequence of
    its parts: a bytearray while every part fits in a byte (n < 256), so
    that a block of the walk joins into one byte string, else a list.

    Zoghbi and Stojmenovic's ZS1: the parts are x[:m], and x[h + 1:]
    holds only ones, so a step writes only the parts that change.
    """
    x = bytearray([1]) * n if n < 256 else [1] * n
    if n == 0:
        yield x[:0]
        return
    x[0] = n
    m = 1  # number of parts
    h = 0  # index of the last part > 1
    yield x[:m]
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            h -= 1
            m += 1
        else:
            # decrement x[h], then redistribute the surplus greedily into
            # parts of the new maximal size
            r = x[h] - 1
            surplus = m - h  # trailing ones plus the unit just removed
            x[h] = r
            while surplus >= r:
                h += 1
                x[h] = r
                surplus -= r
            if surplus == 0:
                m = h + 1
            else:
                m = h + 2
                if surplus > 1:
                    h += 1
                    x[h] = surplus
        yield x[:m]


def _tally(n: int) -> tuple[tuple, tuple, int]:
    """The one walk of n that every enumeration routine reads: the pairs
    (h, cells with hook length h) in descending h, the pairs (s, parts of
    size s) in ascending s, and the number of partitions.  The checks run
    before the cache lookup, so a cached walk never skips the cap."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > ENUMERATION_CAP:
        raise ResourceError(f"n={n} exceeds the enumeration cap {ENUMERATION_CAP}")
    return _walk_tally(n)


@functools.lru_cache(maxsize=8)
def _walk_tally(n: int) -> tuple[tuple, tuple, int]:
    """Hooks from boundary words.  Read the boundary of a partition with l
    parts as a word of lambda_1 + l steps: row t (0-based) steps up at
    position lambda_t + l - 1 - t, and every other position is a step
    right.  The cells are exactly the pairs (right step i, up step j > i),
    and the cell's hook length is j - i.  So with 0/1 matrices A (right
    steps) and B (up steps), one row per partition of a block, the cell
    counts M = sum over blocks of A^T B give the hook counts as the
    diagonals trace(M, offset=h).  A block product counts at most
    _WALK_BLOCK partitions, exact in float32; M sums to at most
    n p(n) < 2^53, exact in float64.
    """
    width = n + 1  # lambda_1 + l <= n + 1 positions
    cell_counts = np.zeros((width, width))
    sizes = np.zeros(n + 1, dtype=np.int64)
    count = 0
    position = np.arange(width)
    walk = _walk(n)
    while block := list(itertools.islice(walk, _WALK_BLOCK)):
        rows = np.frombuffer(b"".join(block), dtype=np.uint8)  # parts <= cap < 256
        lengths = np.fromiter(map(len, block), dtype=np.intp, count=len(block))
        first = np.cumsum(lengths) - lengths  # each partition's first part in rows
        # part k of the block is row t = k - first[b] of partition b, whose
        # up step sits at flat index b width + lambda_t + l - 1 - t
        up = np.zeros((len(block), width), dtype=np.float32)
        base = np.arange(0, len(block) * width, width) + lengths - 1 + first
        up.flat[np.repeat(base, lengths) - np.arange(len(rows)) + rows] = 1
        right = (position < (rows[first] + lengths)[:, None]).astype(np.float32)
        right -= up
        cell_counts += right.T @ up
        sizes += np.bincount(rows, minlength=n + 1)
        count += len(block)
    # hook keys in descending h, the order in which the walk's first
    # partition, the single row (n), meets them
    hooks = ((h, int(np.trace(cell_counts, offset=h))) for h in range(n, 0, -1))
    s = np.flatnonzero(sizes)
    return tuple((h, c) for h, c in hooks if c), tuple(zip(s.tolist(), sizes[s].tolist())), count


def moment_Y(n: int, m: int) -> Fraction:
    """Expected m-th power sum of the parts of a uniform random partition.

    moment_Y(n, 1) == n identically; moment_Y(n, 0) is the expected number
    of parts.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    _, sizes, count = _tally(n)
    return Fraction(sum(c * s**m for s, c in sizes), count)


def moment_Z(n: int, m: int) -> Fraction:
    """Expected m-th power of the hook length of a uniform cell of a uniform
    partition: the m-th moment of exact_hook_distribution(n).

    Agrees exactly with moment_Y(n, m + 1) / n.
    """
    return exact_hook_distribution(n).moment(m)


@dataclass(frozen=True)
class ExactHookDistribution:
    """Integer-weighted law of the hook length at fixed n.

    weights[h] counts the (partition, cell) pairs with hook length h; the
    total mass is n * p(n).
    """

    n: int
    weights: dict[int, int]

    @property
    def total(self) -> int:
        return self.n * partition_count(self.n)

    def moment(self, m: int) -> Fraction:
        if m < 0:
            raise ValueError(f"m must be nonnegative, got {m}")
        total = sum(h**m * w for h, w in self.weights.items())
        return Fraction(total, self.total)


def _check_mass(dist: ExactHookDistribution) -> None:
    mass = sum(dist.weights.values())
    if mass != dist.total:
        raise RuntimeError(f"hook law at n={dist.n} has mass {mass} != n p(n) = {dist.total}")


def exact_hook_distribution(n: int) -> ExactHookDistribution:
    """Hook-length law by brute force over every (partition, cell) pair."""
    dist = ExactHookDistribution(n, dict(_tally(n)[0]))
    _check_mass(dist)
    return dist


def hook_distribution_via_part_counts(n: int) -> ExactHookDistribution:
    """Hook-length law from the counting table alone, without enumeration.

    The hook length of a uniform cell has the same law as the length of the
    row containing a uniform cell, i.e. a size-biased part:
    weight(k) = k * sum_{j >= 1} p(n - j*k), one reversed slice sum of the
    table p[n - k :: -k] per k.  This needs only p(0..n), so it scales to n
    far beyond enumeration reach.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    p = partition_counts(n)
    dist = ExactHookDistribution(n, {k: k * sum(p[n - k :: -k]) for k in range(1, n + 1)})
    _check_mass(dist)
    return dist
