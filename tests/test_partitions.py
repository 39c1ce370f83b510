from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hooklaw.exact import iter_partitions
from hooklaw.partitions import (
    Cell,
    Partition,
    cells,
    conjugate,
    hook_length,
    profile,
)

partitions = st.lists(st.integers(1, 25), min_size=0, max_size=12).map(
    lambda xs: Partition(tuple(sorted(xs, reverse=True)))
)


def test_worked_example_conjugate():
    lam = Partition((5, 4, 3, 3, 2, 2, 2, 1))
    assert conjugate(lam).parts == (8, 7, 4, 2, 1)


def test_worked_example_hook():
    lam = Partition((5, 4, 3, 3, 2, 2, 2, 1))
    assert hook_length(lam, Cell(3, 2)) == 6


def test_single_row_conjugate():
    assert conjugate(Partition((7,))).parts == (1,) * 7


def test_small_conjugate_by_hand():
    # columns of (3,1) have heights 2,1,1
    assert conjugate(Partition((3, 1))).parts == (2, 1, 1)


def test_conjugate_empty():
    assert conjugate(Partition(())).parts == ()


def test_validation():
    # the fast check lets the loop name the first fault, as it always has
    with pytest.raises(ValueError, match=r"weakly decreasing: \(1, 2\)"):
        Partition((1, 2))
    with pytest.raises(ValueError, match="positive, got 0"):
        Partition((2, 0))
    with pytest.raises(ValueError, match="positive, got -1"):
        Partition((3, -1, 2))
    with pytest.raises(ValueError, match="weakly decreasing"):
        Partition((3, 1, 2, 1))
    assert Partition((3, 3, 1)).n == 7


def test_text_roundtrip():
    lam = Partition((5, 4, 3, 3, 2, 2, 2, 1))
    assert str(lam) == "5,4,3,3,2,2,2,1"
    assert Partition(tuple(int(tok) for tok in str(lam).split(","))) == lam
    assert str(Partition(())) == ""


def test_hook_single_cell():
    assert hook_length(Partition((1,)), Cell(1, 1)) == 1


def test_hooks_of_2_1():
    lam = Partition((2, 1))
    got = [hook_length(lam, c) for c in cells(lam)]
    assert got == [3, 1, 1]


def test_hook_outside_diagram():
    with pytest.raises(ValueError, match=r"\(3,1\)"):
        hook_length(Partition((2, 1)), Cell(3, 1))
    with pytest.raises(ValueError, match=r"\(1,3\)"):
        hook_length(Partition((2, 1)), Cell(1, 3))


def test_cells_row_major():
    assert list(cells(Partition((2, 1)))) == [Cell(1, 1), Cell(1, 2), Cell(2, 1)]
    assert list(cells(Partition((1, 1, 1)))) == [Cell(1, 1), Cell(2, 1), Cell(3, 1)]
    assert [c.t for c in cells(Partition((3,)))] == [1, 1, 1]


def test_profile_values():
    lam = Partition((2, 1))
    assert profile(lam, 0) == profile(lam, 0.5) == profile(lam, 1) == 2
    assert profile(Partition(()), 0.5) == 0
    assert profile(lam, 2) == 1
    assert profile(lam, 3) == 0
    assert profile(Partition((9,)), 1) == 1
    with pytest.raises(ValueError):
        profile(lam, -0.5)


@given(partitions)
def test_conjugation_involution(p):
    assert conjugate(conjugate(p)) == p


@given(partitions)
def test_cells_count_and_membership(p):
    cs = list(cells(p))
    assert len(cs) == p.n
    assert len(set(cs)) == p.n


@given(partitions.filter(lambda p: p.n > 0))
def test_hook_multiset_conjugation_symmetric(p):
    mine = Counter(hook_length(p, c) for c in cells(p))
    conj = conjugate(p)
    theirs = Counter(hook_length(conj, c) for c in cells(conj))
    assert mine == theirs


@given(partitions.filter(lambda p: p.n > 0))
def test_max_hook_and_corners(p):
    hooks = [hook_length(p, c) for c in cells(p)]
    assert max(hooks) == p.parts[0] + len(p.parts) - 1
    assert min(hooks) == 1  # every nonempty diagram has a corner


@given(partitions)
def test_profile_matches_conjugate(p):
    conj = conjugate(p).parts
    for s in range(1, (p.parts[0] if p.parts else 0) + 1):
        assert profile(p, s) == conj[s - 1]
    assert profile(p, (p.parts[0] if p.parts else 0) + 1) == 0


def test_involution_exhaustive_to_14():
    for n in range(15):
        for p in iter_partitions(n):
            assert conjugate(conjugate(p)) == p


def test_hook_symmetry_exhaustive_to_12():
    for n in range(1, 13):
        for p in iter_partitions(n):
            mine = Counter(hook_length(p, c) for c in cells(p))
            conj = conjugate(p)
            theirs = Counter(hook_length(conj, c) for c in cells(conj))
            assert mine == theirs
