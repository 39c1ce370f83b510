import itertools
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from hooklaw import cli, exact
from hooklaw.errors import ResourceError
from hooklaw.exact import (
    ExactHookDistribution,
    exact_hook_distribution,
    hook_distribution_via_part_counts,
    iter_partitions,
    moment_Y,
    moment_Z,
    partition_count,
    partition_counts,
)
from hooklaw.partitions import Partition, cells, hook_length

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


def test_ascending_table_extensions_match_plain_recurrence(monkeypatch):
    # one row at a time, as p(1), p(2), ... extend it, across a block edge
    monkeypatch.setattr(exact, "_PTABLE", [1])
    want = _plain_partition_counts(exact._PTABLE_BLOCK + 3)
    assert [exact.partition_count(m) for m in range(len(want))] == want
    assert exact._PTABLE == want


def test_one_row_extension_copies_no_table(monkeypatch):
    # p(20001) on a table of p(0..20000) is one row of the recurrence, about
    # 230 pentagonal terms: nothing of the size of the table is allocated,
    # such as the 160 KB of pointers of an object array over it
    table = exact.partition_counts(20_000)
    # a list grows its capacity in steps, so the row is appended in place
    table.append(0)
    table.pop()
    monkeypatch.setattr(exact, "_PTABLE", table)
    tracemalloc.start()
    try:
        exact.partition_count(20_001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(exact._PTABLE) == 20_002
    assert peak < 8 * 20_000 // 4, peak


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
    assert [p.parts for p in iter_partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert [p.parts for p in iter_partitions(1)] == [(1,)]
    assert len(list(iter_partitions(4))) == partition_count(4) == 5
    assert list(iter_partitions(0)) == [Partition(())]


def test_enumeration_cap(monkeypatch):
    # every routine that walks all partitions of n refuses n past the cap,
    # also when the walk of n is already cached
    exact._walk_tally.cache_clear()
    for n in (10, 11):
        exact_hook_distribution(n)
    monkeypatch.setattr(exact, "ENUMERATION_CAP", 10)
    assert sum(exact_hook_distribution(10).weights.values()) == 10 * partition_count(10)
    assert moment_Z(10, 1) == moment_Y(10, 2) / 10
    for walk in (exact_hook_distribution, lambda n: moment_Z(n, 1), lambda n: moment_Y(n, 1)):
        with pytest.raises(ResourceError, match="cap 10"):
            walk(11)


def test_walk_past_a_byte():
    # parts above 255 do not fit the bytearray of the enumeration's walk:
    # from n = 256 on the walk keeps its parts in a list
    for n in (255, 256, 300):
        walk = list(itertools.islice(iter_partitions(n), 2000))
        assert walk[0].parts == (n,) and walk[1].parts == (n - 1, 1)
        assert all(p.n == n for p in walk)
        assert [p.parts for p in walk] == sorted((p.parts for p in walk), reverse=True)
        assert len({p.parts for p in walk}) == len(walk)


def test_moment_Y_walks_once_for_every_power(monkeypatch, capsys):
    # one walk over the partitions of n serves the hook law, every hook
    # moment and every power sum, and gives what a walk per power gives;
    # `hooklaw exact` walks once too
    walks = []
    walk = exact._walk

    def counting(n):
        walks.append(n)
        return walk(n)

    monkeypatch.setattr(exact, "_walk", counting)
    exact._walk_tally.cache_clear()
    for n in (1, 9, 16):
        count = partition_count(n)
        exact_hook_distribution(n)
        for m in range(5):
            assert n * moment_Z(n, m) == moment_Y(n, m + 1), (n, m)
        for m in range(6):
            want = Fraction(sum(part**m for parts in walk(n) for part in parts), count)
            assert moment_Y(n, m) == want, (n, m)
    assert walks == [1, 9, 16]
    assert cli.dispatch(["exact", "--n", "12", "--m", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == "12"
    assert walks == [1, 9, 16, 12]


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
    with pytest.raises(ValueError, match="nonnegative"):
        exact_hook_distribution(5).moment(-1)
    with pytest.raises(ValueError, match="nonnegative"):
        moment_Z(5, -1)


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


def test_hook_distribution_checks_its_mass():
    # every law is built through the constructor, so the mass n p(n) is
    # checked wherever one is made: p(3) = 3 gives a mass of 9, not 1
    with pytest.raises(RuntimeError, match="mass 1 != n p"):
        ExactHookDistribution(3, {1: 1})
    assert ExactHookDistribution(3, {1: 4, 2: 2, 3: 3}).total == 9


def test_hook_distribution_mass_and_support():
    for n in range(1, 13):
        dist = exact_hook_distribution(n)
        assert sum(dist.weights.values()) == n * partition_count(n)
        assert max(dist.weights) <= n
        assert min(dist.weights) == 1
        assert dist.moment(0) == 1
        for m in range(1, 5):
            assert dist.moment(m) == moment_Y(n, m + 1) / n


def test_hook_distribution_routes_agree():
    # the size-biased-row identity against brute force, past the first
    # block of the walk (p(19) = 490 < 512 < p(20) = 627), up to p(50) =
    # 204226 and at the cap, p(60) = 966467
    for n in [*range(1, 31), 50, exact.ENUMERATION_CAP]:
        assert (
            hook_distribution_via_part_counts(n).weights
            == exact_hook_distribution(n).weights
        )


@pytest.mark.parametrize("block", [1, 7, 128, exact._WALK_BLOCK])
def test_blocked_walk_matches_per_cell_reference(monkeypatch, block):
    # block edges fall inside the walk; the weights keep the per-cell
    # route's key order, and the part sizes of moment_Y its counts
    monkeypatch.setattr(exact, "_WALK_BLOCK", block)
    exact._walk_tally.cache_clear()
    for n in range(1, 21):
        weights: Counter[int] = Counter()
        sizes: Counter[int] = Counter()
        for p in iter_partitions(n):
            weights.update(hook_length(p, c) for c in cells(p))
            sizes.update(p.parts)
        got = exact_hook_distribution(n).weights
        assert list(got.items()) == list(weights.items()), n
        assert all(type(w) is int for w in got.values())
        assert list(exact._tally(n)[1]) == sorted(sizes.items()), n
        for m in range(4):
            want = Fraction(sum(c * s**m for s, c in sizes.items()), partition_count(n))
            assert moment_Y(n, m) == want, (n, m)


def test_hook_distribution_memory_is_bounded():
    # the walk is read in blocks: at n = 45 the 4 million cells of all
    # partitions would take 16 MiB as one int32 array; with blocks of 512
    # partitions, two 512 x 46 float32 step matrices each, the call peaks
    # below 1 MiB
    partition_count(45)
    exact._walk_tally.cache_clear()
    tracemalloc.start()
    try:
        exact_hook_distribution(45)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def tableaux_count(p):
    # the hook-length formula: n! over the product of the hook lengths; the
    # division must be exact, else the hook lengths are wrong
    prod = math.prod(hook_length(p, c) for c in cells(p))
    count, rem = divmod(math.factorial(p.n), prod)
    assert rem == 0, p
    return count


def test_tableaux_counts():
    assert tableaux_count(Partition((2, 1))) == 2
    assert tableaux_count(Partition((9,))) == 1
    assert tableaux_count(Partition((1,) * 6)) == 1


def test_tableaux_square_sum_is_factorial():
    # sum of d(lambda)^2 over all shapes of n equals n!
    for n in range(1, 11):
        total = sum(tableaux_count(p) ** 2 for p in iter_partitions(n))
        assert total == math.factorial(n)


def test_tableaux_square_sum_4_terms():
    got = sorted(tableaux_count(p) ** 2 for p in iter_partitions(4))
    assert got == [1, 1, 4, 9, 9]
    assert sum(got) == 24
