import math
from fractions import Fraction

import pytest

from hooklaw import exact
from hooklaw.errors import ResourceError
from hooklaw.exact import (
    ExactHookDistribution,
    enumerate_all,
    exact_hook_distribution,
    hook_distribution_via_part_counts,
    iter_partitions,
    moment_Y,
    moment_Z,
    partition_count,
    partition_counts,
    tableaux_count,
)
from hooklaw.partitions import Partition

# frozen by hand enumeration / classical tables
P_SMALL = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135]


def test_partition_count_small():
    assert [partition_count(n) for n in range(15)] == P_SMALL


def test_partition_count_100():
    assert partition_count(100) == 190569292


def test_partition_counts_table():
    table = partition_counts(10)
    assert table == P_SMALL[:11]


def _plain_partition_counts(limit):
    # Euler's pentagonal recurrence, one interpreted term at a time
    p = [1]
    for m in range(1, limit + 1):
        total = 0
        k = 1
        while k * (3 * k - 1) // 2 <= m:
            sign = 1 if k % 2 else -1
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if g <= m:
                    total += sign * p[m - g]
            k += 1
        p.append(total)
    return p


@pytest.mark.parametrize("prefix", [1, 2, 8, 512, 513, 514, 1501])
def test_blocked_table_matches_plain_recurrence(monkeypatch, prefix):
    # extensions that start on, before and after the edges of the row blocks
    monkeypatch.setattr(exact, "_PTABLE", [1])
    exact.partition_counts(prefix - 1)
    assert len(exact._PTABLE) == prefix
    table = exact.partition_counts(3000)
    assert type(table) is list and all(type(v) is int for v in table)
    assert table == _plain_partition_counts(3000)


def test_count_matches_enumeration_to_40():
    for n in range(41):
        assert partition_count(n) == sum(1 for _ in iter_partitions(n))


def test_reverse_lex_order():
    got = [p.parts for p in iter_partitions(5)]
    assert got == [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]


def test_reverse_lex_order_property():
    for n in range(1, 13):
        seq = [p.parts for p in iter_partitions(n)]
        assert seq == sorted(seq, reverse=True)
        assert len(set(seq)) == len(seq)


def test_enumerate_examples():
    assert [p.parts for p in enumerate_all(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert [p.parts for p in enumerate_all(1)] == [(1,)]
    assert len(enumerate_all(4)) == partition_count(4) == 5
    assert enumerate_all(0) == [Partition(())]


def test_enumeration_cap(monkeypatch):
    with pytest.raises(ResourceError, match="streaming"):
        enumerate_all(61)
    monkeypatch.setattr(exact, "ENUMERATION_CAP", 61)
    assert len(enumerate_all(61)) == partition_count(61)


def test_moment_Y_values():
    assert moment_Y(3, 2) == Fraction(17, 3)
    assert moment_Y(2, 2) == Fraction(3)
    for n in range(1, 15):
        assert moment_Y(n, 1) == n
    with pytest.raises(ValueError):
        moment_Y(0, 1)


def test_moment_Z_values():
    assert moment_Z(2, 1) == Fraction(3, 2)
    assert moment_Z(3, 1) == Fraction(17, 9)
    for n in (1, 4, 7):
        assert moment_Z(n, 0) == 1
    with pytest.raises(ValueError):
        moment_Z(0, 1)


def test_hook_moment_equals_shifted_power_sum_exhaustive():
    # exact equality over all n <= 12, m <= 4
    for n in range(1, 13):
        for m in range(1, 5):
            assert moment_Z(n, m) == moment_Y(n, m + 1) / n


def test_powersum_identity_detects_arm_only_mutation():
    # a broken "hook" that counts only the cells to the right must be
    # caught by the identity; this guards the guard
    n = 6
    arm_sum = 0
    shifted_power_sum = 0
    for p in iter_partitions(n):
        for row_len in p.parts:
            arm_sum += sum(row_len - s + 1 for s in range(1, row_len + 1))
            shifted_power_sum += row_len**2
    assert arm_sum != shifted_power_sum


def test_exact_hook_distribution_small():
    assert exact_hook_distribution(1).weights == {1: 1}
    assert exact_hook_distribution(2).weights == {1: 2, 2: 2}
    assert exact_hook_distribution(3).weights == {1: 4, 2: 2, 3: 3}


def test_hook_distribution_mass_and_support():
    for n in range(1, 13):
        dist = exact_hook_distribution(n)
        assert sum(dist.weights.values()) == n * partition_count(n)
        assert max(dist.weights) <= n
        assert min(dist.weights) == 1
        for m in range(5):
            assert dist.moment(m) == moment_Z(n, m)


def test_hook_distribution_routes_agree():
    # the size-biased-row identity against brute force
    for n in range(1, 13):
        assert (
            hook_distribution_via_part_counts(n).weights
            == exact_hook_distribution(n).weights
        )


def test_hook_distribution_probability():
    dist = ExactHookDistribution(2, {1: 2, 2: 2})
    assert dist.probability(1) == Fraction(1, 2)
    assert dist.probability(5) == 0


def test_tableaux_counts():
    assert tableaux_count(Partition((2, 1))) == 2
    assert tableaux_count(Partition((9,))) == 1
    assert tableaux_count(Partition((1,) * 6)) == 1
    with pytest.raises(ValueError):
        tableaux_count(Partition(()))


def test_tableaux_square_sum_is_factorial():
    # sum of d(lambda)^2 over all shapes of n equals n!
    for n in range(1, 11):
        total = sum(tableaux_count(p) ** 2 for p in iter_partitions(n))
        assert total == math.factorial(n)


def test_tableaux_square_sum_4_terms():
    got = sorted(tableaux_count(p) ** 2 for p in iter_partitions(4))
    assert got == [1, 1, 4, 9, 9]
    assert sum(got) == 24
