"""Exact computations over all partitions of n.

Everything here is integer- or rational-exact: the partition counting
recurrence, streaming enumeration in reverse-lexicographic order, power-sum
and hook-length moments, standard-tableaux counts, and the exact law of the
hook length of a uniform cell in a uniform partition.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import ResourceError
from .partitions import Partition, conjugate

ENUMERATION_CAP = 60

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
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        yield Partition(())
        return
    a = [n]
    while True:
        yield Partition(tuple(a))
        # decrement the rightmost part > 1, then redistribute the surplus
        # greedily into parts of the new maximal size
        k = len(a) - 1
        while k >= 0 and a[k] == 1:
            k -= 1
        if k < 0:
            return
        v = a[k] - 1
        surplus = len(a) - k  # trailing ones plus the unit just removed
        del a[k:]
        a.append(v)
        while surplus > v:
            a.append(v)
            surplus -= v
        if surplus:
            a.append(surplus)


def enumerate_all(n: int) -> list[Partition]:
    """Materialize all of iter_partitions(n); refuses n beyond the cap."""
    if n > ENUMERATION_CAP:
        raise ResourceError(
            f"n={n} exceeds the enumeration cap {ENUMERATION_CAP}; use iter_partitions "
            f"for streaming access"
        )
    return list(iter_partitions(n))


def _hooks(p: Partition) -> Iterator[int]:
    # hook lengths of all cells, with the conjugate computed once
    conj = conjugate(p).parts
    for t, row_len in enumerate(p.parts, start=1):
        for s in range(1, row_len + 1):
            yield row_len - s + conj[s - 1] - t + 1


def moment_Y(n: int, m: int) -> Fraction:
    """Expected m-th power sum of the parts of a uniform random partition.

    moment_Y(n, 1) == n identically; moment_Y(n, 0) is the expected number
    of parts.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    total = 0
    count = 0
    for p in iter_partitions(n):
        total += sum(part**m for part in p.parts)
        count += 1
    return Fraction(total, count)


def moment_Z(n: int, m: int) -> Fraction:
    """Expected m-th power of the hook length of a uniform cell of a uniform
    partition, computed directly over all (partition, cell) pairs.

    Each pair carries mass 1/(n p(n)).  Agrees exactly with
    moment_Y(n, m + 1) / n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    total = 0
    count = 0
    for p in iter_partitions(n):
        total += sum(h**m for h in _hooks(p))
        count += 1
    return Fraction(total, n * count)


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

    def probability(self, h: int) -> Fraction:
        return Fraction(self.weights.get(h, 0), self.total)

    def moment(self, m: int) -> Fraction:
        total = sum(h**m * w for h, w in self.weights.items())
        return Fraction(total, self.total)


def _check_mass(dist: ExactHookDistribution) -> None:
    mass = sum(dist.weights.values())
    if mass != dist.total:
        raise RuntimeError(f"hook law at n={dist.n} has mass {mass} != n p(n) = {dist.total}")


def exact_hook_distribution(n: int) -> ExactHookDistribution:
    """Hook-length law by brute force over every (partition, cell) pair."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > ENUMERATION_CAP:
        raise ResourceError(f"n={n} exceeds the enumeration cap {ENUMERATION_CAP}")
    weights: Counter[int] = Counter()
    for p in iter_partitions(n):
        weights.update(_hooks(p))
    dist = ExactHookDistribution(n, dict(weights))
    _check_mass(dist)
    return dist


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


def tableaux_count(p: Partition) -> int:
    """Number of standard fillings of the diagram: n! over the product of
    all hook lengths.  The division is exact; a nonzero remainder would mean
    the hook computation is broken, so it raises."""
    if not p.parts:
        raise ValueError("tableaux_count requires a nonempty partition")
    prod = 1
    for h in _hooks(p):
        prod *= h
    count, rem = divmod(math.factorial(p.n), prod)
    if rem:
        raise RuntimeError(f"hook product does not divide n! for {p}")
    return count
