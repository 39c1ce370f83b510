from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hooklaw.exact import moment_Y, partition_count
from hooklaw.series import (
    TruncatedSeries,
    euler_series,
    f_m_series,
    moment_coefficient,
)

coeff_lists = st.lists(st.integers(-50, 50), min_size=1, max_size=9)


def _sigma(m, n):
    return sum(d**m for d in range(1, n + 1) if n % d == 0)


def test_euler_series_small():
    assert euler_series(5).coeffs == (1, 1, 2, 3, 5, 7)
    assert euler_series(0).coeffs == (1,)
    assert euler_series(10).coeffs[10] == 42


def test_euler_series_matches_recurrence():
    g = euler_series(150)
    for n in range(151):
        assert g.coeffs[n] == partition_count(n)


def test_f_m_series_values():
    f1 = f_m_series(1, 6)
    assert f1.coeffs[1:] == (1, 3, 4, 7, 6, 12)
    assert f_m_series(2, 4).coeffs[4] == 21
    for m in (1, 2, 5):
        assert f_m_series(m, 3).coeffs[1] == 1


def test_f_m_series_divisor_sums():
    for m in (1, 2, 3):
        f = f_m_series(m, 60)
        for n in range(1, 61):
            assert f.coeffs[n] == _sigma(m, n)


def test_f_m_rejects_m0():
    with pytest.raises(ValueError):
        f_m_series(0, 5)


def test_moment_coefficient_values():
    assert moment_coefficient(1, 5) == 35  # n p(n)
    assert moment_coefficient(2, 3) == 17
    assert moment_coefficient(3, 4) == 122


def test_first_moment_identity():
    g = euler_series(400)
    f = f_m_series(1, 400)
    prod = g * f
    for n in range(1, 401):
        assert prod.coeffs[n] == n * partition_count(n)


def test_oracle_equivalence_small():
    # series route equals enumeration route, exactly, for n <= 12 and m <= 4
    for n in range(1, 13):
        pn = partition_count(n)
        for m in range(1, 5):
            assert Fraction(moment_coefficient(m, n), pn) == moment_Y(n, m)


def test_degree_contract():
    a = TruncatedSeries((1, 2, 3, 4))
    b = TruncatedSeries((5, 6))
    assert (a * b).coeffs == (5, 16)
    with pytest.raises(ValueError):
        TruncatedSeries(())


@given(coeff_lists, coeff_lists)
def test_multiplication_commutative(xs, ys):
    deg = min(len(xs), len(ys)) - 1
    a = TruncatedSeries(tuple(xs[: deg + 1]))
    b = TruncatedSeries(tuple(ys[: deg + 1]))
    assert a * b == b * a


@given(coeff_lists, coeff_lists, coeff_lists)
def test_multiplication_associative_at_equal_truncation(xs, ys, zs):
    deg = min(len(xs), len(ys), len(zs)) - 1
    a = TruncatedSeries(tuple(xs[: deg + 1]))
    b = TruncatedSeries(tuple(ys[: deg + 1]))
    c = TruncatedSeries(tuple(zs[: deg + 1]))
    assert (a * b) * c == a * (b * c)
