"""Correctness gates for the Monte Carlo workloads.

A gate never uses the timed outputs' own bookkeeping: partition sizes are
re-summed from the parts, and sampled hooks are compared with the exact
finite-n law from the counting table.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

# false-alarm probability of the KS gate on a correct sampler; the bound is
# Dvoretzky-Kiefer-Wolfowitz, which also holds for discrete laws
KS_ALPHA = 1e-9


def ks_critical(count: int, alpha: float = KS_ALPHA) -> float:
    """Distance that a correct sample of this size exceeds with
    probability at most alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * count))


def ks_distance(hooks: Sequence[int], weights: dict[int, int], n: int) -> float:
    """Sup distance between the empirical CDF of hooks (all in 1..n) and
    the CDF of the integer-weighted law `weights`."""
    empirical = np.cumsum(np.bincount(np.asarray(hooks, dtype=np.int64), minlength=n + 1))
    empirical = empirical / len(hooks)
    total = sum(weights.values())
    exact = np.empty(n + 1)
    acc = 0
    for h in range(n + 1):
        acc += weights.get(h, 0)
        exact[h] = acc / total  # int / int rounds correctly at any size
    return float(np.max(np.abs(empirical - exact)))


def monte_carlo_failures(
    hooks: Sequence[int],
    partition_sizes: Iterable[int],
    weights: dict[int, int],
    n: int,
) -> tuple[int, float, float]:
    """(failed observations, KS distance, KS critical value).

    An observation fails when its hook lies outside 1..n or its re-summed
    partition is not of size n.  When the KS distance to the exact law
    passes the critical value, every observation of the sample fails,
    because the gate judges the sample as a whole.
    """
    out_of_range = sum(1 for h in hooks if not 1 <= h <= n)
    failed = out_of_range + sum(1 for size in partition_sizes if size != n)
    crit = ks_critical(len(hooks))
    if out_of_range:
        return failed, 1.0, crit
    dist = ks_distance(hooks, weights, n)
    if not dist <= crit:
        failed = len(hooks)
    return failed, dist, crit
