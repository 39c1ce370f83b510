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
_WALK_BLOCK = 128

# Growable table p(0..N), extended on demand and then only read.
_PTABLE: list[int] = [1]

# rows of the pentagonal recurrence computed together in _extend_ptable
_PTABLE_BLOCK = 512


def _extend_ptable(limit: int) -> None:
    """Append p(len(_PTABLE)..limit) by the pentagonal recurrence
    p(m) = sum_k (-1)^(k+1) (p(m - k(3k-1)/2) + p(m - k(3k+1)/2)).

    Rows are computed in blocks: an offset at least as long as the block
    reads only finished rows, so it adds as one slice of a numpy object
    array; the few shorter offsets run row by row.
    """
    p = _PTABLE
    start = len(p)
    offsets = []  # (generalized pentagonal number, sign), increasing
    k = 1
    while k * (3 * k - 1) // 2 <= limit:
        sign = 1 if k % 2 else -1
        offsets += [(k * (3 * k - 1) // 2, sign), (k * (3 * k + 1) // 2, sign)]
        k += 1
    table = np.empty(limit + 1, dtype=object)
    table[:start] = p
    for lo in range(start, limit + 1, _PTABLE_BLOCK):
        hi = min(lo + _PTABLE_BLOCK, limit + 1)
        acc = np.zeros(hi - lo, dtype=object)
        short = []
        for g, sign in offsets:
            if g >= hi:
                break
            if g < hi - lo:
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

    The enumeration routines below read the same walk as plain tuples,
    once per n through the cached _tally, in blocks of _WALK_BLOCK
    partitions flattened into numpy arrays: a block holds at most
    _WALK_BLOCK * n cells, so their memory does not grow with p(n).
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    for parts in _walk(n):
        yield Partition(parts)


def _walk(n: int) -> Iterator[tuple[int, ...]]:
    """The walk of iter_partitions, each partition as its tuple of parts.

    Zoghbi and Stojmenovic's ZS1: the parts are x[:m], and x[h + 1:]
    holds only ones, so a step writes only the parts that change.
    """
    if n == 0:
        yield ()
        return
    x = [1] * n
    x[0] = n
    m = 1  # number of parts
    h = 0  # index of the last part > 1
    yield (n,)
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
        yield tuple(x[:m])


def _walk_blocks(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The walk of n in blocks of at most _WALK_BLOCK partitions, each
    block as (the parts of its partitions, concatenated, and the number of
    parts of each partition), both int32."""
    walk = _walk(n)
    while block := list(itertools.islice(walk, _WALK_BLOCK)):
        lengths = np.fromiter(map(len, block), dtype=np.int32, count=len(block))
        # a known count allocates once; a growing buffer fragments the heap
        rows = np.fromiter(
            itertools.chain.from_iterable(block), dtype=np.int32, count=int(lengths.sum())
        )
        yield rows, lengths


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
    hooks = np.zeros(n + 1, dtype=np.int64)  # n p(n) < 6e7 up to the cap
    sizes = np.zeros(n + 1, dtype=np.int64)
    count = 0
    for rows, lengths in _walk_blocks(n):
        hooks += np.bincount(_block_hooks(rows, lengths, n), minlength=n + 1)
        sizes += np.bincount(rows, minlength=n + 1)
        count += len(lengths)
    # hook keys in descending h, the order in which the walk's first
    # partition, the single row (n), meets them
    h, s = np.flatnonzero(hooks)[::-1], np.flatnonzero(sizes)
    hook_pairs = tuple(zip(h.tolist(), hooks[h].tolist()))
    return hook_pairs, tuple(zip(s.tolist(), sizes[s].tolist())), count


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


def _block_hooks(rows: np.ndarray, lengths: np.ndarray, n: int) -> np.ndarray:
    """The hook length of every cell of a block of partitions of n, from
    the block's parts and each partition's number of parts (_walk_blocks).

    Cell (t, s) of a partition, both 0-based here, has hook
    lambda_t - s + lambda'_s - t - 1; the column heights lambda' are one
    bincount over (partition, column) keys.  Cells are numbered c across
    the block, row by row, so s = c - c_t with c_t the first cell of row t.
    """
    i32 = np.int32
    c_t = np.cumsum(rows, dtype=i32) - rows
    first_row = np.cumsum(lengths, dtype=i32) - lengths
    t = np.arange(len(rows), dtype=i32) - np.repeat(first_row, lengths)
    column_0 = np.repeat(np.arange(0, len(lengths) * n, n, dtype=i32), lengths)  # per row
    c = np.arange(rows.sum(), dtype=i32)
    key = np.repeat(column_0 - c_t, rows)
    key += c
    hooks = np.repeat(rows - t - 1 + c_t, rows)
    hooks -= c
    hooks += np.bincount(key, minlength=len(lengths) * n)[key]
    return hooks


def hook_distribution_via_part_counts(n: int) -> ExactHookDistribution:
    """Hook-length law from the counting table alone, without enumeration.

    The hook length of a uniform cell has the same law as the length of the
    row containing a uniform cell, i.e. a size-biased part:
    weight(k) = k * sum_{j >= 1} p(n - j*k).  This needs only p(0..n), so it
    scales to n far beyond enumeration reach.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    p = partition_counts(n)
    weights: dict[int, int] = {}
    for k in range(1, n + 1):
        acc = 0
        jk = k
        while jk <= n:
            acc += p[n - jk]
            jk += k
        weights[k] = k * acc
    dist = ExactHookDistribution(n, weights)
    _check_mass(dist)
    return dist
