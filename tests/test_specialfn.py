"""Special-function layer: frozen oracle values and algebraic identities."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kernel_reference import falling_factorial, lah_number
from polyaurn.specialfn import log_gamma, rising_factorial, stirling2


def test_log_gamma_matches_lgamma_on_positives():
    xs = [0.05, 0.1, 0.5, 1.0, 1.5, 2.0, 3.75, 10.0, 55.5, 171.0, 300.0]
    for x in xs:
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-13)
    for x in (0.0, -1.0, -2.5, math.nan):
        with pytest.raises(ValueError):
            log_gamma(x)


def test_log_gamma_half_integer():
    # Gamma(1/2) = sqrt(pi)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)


def test_rising_and_falling_factorials_exact():
    x = Fraction(3, 2)
    assert rising_factorial(x, 0) == 1
    assert rising_factorial(x, 3) == x * (x + 1) * (x + 2)
    assert falling_factorial(x, 3) == x * (x - 1) * (x - 2)
    assert isinstance(rising_factorial(x, 2), Fraction)


@given(
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.integers(min_value=0, max_value=8),
)
def test_rising_equals_shifted_falling(x, s):
    assert rising_factorial(x, s) == falling_factorial(x + s - 1, s)


def test_lah_number_table():
    assert lah_number(0, 0) == 1
    assert lah_number(1, 1) == 1
    assert lah_number(2, 1) == 2
    assert lah_number(3, 2) == 6
    assert lah_number(4, 2) == 36
    with pytest.raises(ValueError):
        lah_number(4, 5)
    # closed form L(n,k) = C(n-1,k-1) n!/k!
    for n in range(1, 9):
        for k in range(1, n + 1):
            expect = math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k)
            assert lah_number(n, k) == expect


@given(
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.integers(min_value=0, max_value=7),
)
def test_lah_connects_rising_to_falling(x, n):
    total = sum(lah_number(n, k) * falling_factorial(x, k) for k in range(n + 1))
    assert total == rising_factorial(x, n)


def test_stirling2_table_and_recurrence():
    assert stirling2(0, 0) == 1
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert stirling2(3, 0) == 0
    for n in range(1, 10):
        for k in range(1, n + 1):
            assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


@given(
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.integers(min_value=0, max_value=7),
)
def test_stirling2_expands_powers(x, n):
    total = sum(stirling2(n, k) * falling_factorial(x, k) for k in range(n + 1))
    assert total == x**n
