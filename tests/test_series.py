from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hooklaw import series
from hooklaw.exact import moment_Y, partition_count, partition_counts
from hooklaw.series import (
    TruncatedSeries,
    euler_series,
    f_m_series,
    moment_coefficient,
)

coeff_lists = st.lists(st.integers(-50, 50), min_size=1, max_size=9)
big_coeff_lists = st.lists(st.integers(-(2**200), 2**200), min_size=1, max_size=40)


def _schoolbook(a, b):
    # the reference product, truncated to the weaker degree
    deg = min(len(a), len(b)) - 1
    out = [0] * (deg + 1)
    for i in range(deg + 1):
        for j in range(deg + 1 - i):
            out[i + j] += a[i] * b[j]
    return tuple(out)


def _euler_double_loop(degree):
    # the reference Euler product: c[i] += c[i - j] for each factor
    # 1 / (1 - x^j), in place
    c = [1] + [0] * degree
    for j in range(1, degree + 1):
        for i in range(j, degree + 1):
            c[i] += c[i - j]
    return tuple(c)


def _sigma(m, n):
    return sum(d**m for d in range(1, n + 1) if n % d == 0)


def test_euler_series_small():
    assert euler_series(5).coeffs == (1, 1, 2, 3, 5, 7)
    assert euler_series(0).coeffs == (1,)
    assert euler_series(10).coeffs[10] == 42


def test_euler_series_matches_double_loop():
    # every degree up to 300, so every slot width from one byte to nine,
    # and the benchmark's degree
    for degree in [*range(301), 2000]:
        assert euler_series(degree).coeffs == _euler_double_loop(degree), degree


def test_euler_slot_width_holds_p_of_degree():
    # the a-priori bound p(n) < exp(pi sqrt(2n/3)) sizes the slots: every
    # coefficient p(i) <= p(degree) fits, for every degree up to 10^4
    for degree, count in enumerate(partition_counts(10**4)):
        assert count < 1 << 8 * series._euler_slot_bytes(degree), degree


def test_euler_series_matches_recurrence():
    g = euler_series(150)
    for n in range(151):
        assert g.coeffs[n] == partition_count(n)


def test_f_m_series_values():
    f1 = f_m_series(1, 6)
    assert f1.coeffs[1:] == (1, 3, 4, 7, 6, 12)
    assert f_m_series(2, 4).coeffs[4] == 21
    assert f_m_series(3, 0).coeffs == (0,)
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
    assert moment_coefficient(1, 0) == moment_coefficient(4, 0) == 0  # f_m has no x^0 term
    assert moment_coefficient(1, 5) == 35  # n p(n)
    assert moment_coefficient(2, 3) == 17
    assert moment_coefficient(3, 4) == 122


def test_first_moment_identity():
    g = euler_series(400)
    f = f_m_series(1, 400)
    prod = g * f
    for n in range(1, 401):
        assert prod.coeffs[n] == n * partition_count(n)


def test_first_moment_identity_degree_2000():
    prod = euler_series(2000) * f_m_series(1, 2000)
    assert prod.coeffs == tuple(n * partition_count(n) for n in range(2001))


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


@given(coeff_lists, coeff_lists)
def test_multiplication_matches_schoolbook(xs, ys):
    # unequal lengths, zeros, negative coefficients and degree 0
    assert (TruncatedSeries(tuple(xs)) * TruncatedSeries(tuple(ys))).coeffs == _schoolbook(xs, ys)


@given(big_coeff_lists, big_coeff_lists)
def test_multiplication_matches_schoolbook_wide_slots(xs, ys):
    assert (TruncatedSeries(tuple(xs)) * TruncatedSeries(tuple(ys))).coeffs == _schoolbook(xs, ys)


def test_multiplication_matches_schoolbook_at_slot_edges():
    # coefficients whose products fill a slot up to its sign bit, and zero
    # operands against wide ones
    for top in (1, 127, 128, 255, 256, 2**63 - 1, 2**63, 2**64):
        for a in ((top,), (-top, top), (top, -top, 0, top), (0, 0, -top), (0,), (0, 0)):
            for b in ((top,), (-top,) * 4, (top, top, top)):
                want = _schoolbook(a, b)
                assert (TruncatedSeries(a) * TruncatedSeries(b)).coeffs == want, (a, b)
