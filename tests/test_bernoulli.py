from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import pytest

from curvecount.bernoulli import bernoulli

F = Fraction


def test_standard_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == F(-1, 2)
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(4) == F(-1, 30)
    assert bernoulli(12) == F(-691, 2730)


def test_odd_vanishing():
    assert all(bernoulli(2 * k + 1) == 0 for k in range(1, 16))


def test_defining_recurrence_up_to_30():
    for m in range(1, 31):
        assert sum(comb(m + 1, j) * bernoulli(j) for j in range(m + 1)) == 0


def test_matches_the_fraction_recurrence_up_to_200():
    # the defining recurrence term by term in Fraction arithmetic, odd j too
    want = [F(1)]
    for m in range(1, 201):
        want.append(-sum(comb(m + 1, j) * want[j] for j in range(m)) / (m + 1))
    assert [bernoulli(k) for k in range(201)] == want


def test_generating_function_matches_sympy():
    """x/(e^x - 1) = sum B_k x^k/k!, inverted by sympy: the B_1 = -1/2 convention."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.ring_series import rs_series_inversion
    from sympy.polys.rings import ring

    N = 60
    R, x = ring("x", sympy.QQ)
    quotient = sum((sympy.QQ(1, factorial(k + 1)) * x ** k
                    for k in range(N + 1)), R.zero)  # (e^x - 1)/x
    oracle = rs_series_inversion(quotient, x, N + 1)
    for k in range(N + 1):
        c = oracle.coeff(x ** k) * factorial(k)
        assert bernoulli(k) == F(int(c.numerator), int(c.denominator)), k
