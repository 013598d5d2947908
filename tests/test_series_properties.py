"""Property tests: reversion against composition, log against exp.

Run with hypothesis when it is installed; the reversion oracle also needs
sympy.  Both are test-only dependencies.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

try:
    import sympy
except ImportError:
    sympy = None

from curvecount.series import (  # noqa: E402
    LaurentSeries,
    series_compose,
    series_exp,
    series_log,
    series_reversion,
)

settings = hypothesis.settings(max_examples=40, deadline=None)
values = st.fractions(min_value=-9, max_value=9, max_denominator=6)
leading = values.filter(lambda c: c not in (0, 1, -1))


@st.composite
def valuation_one(draw, max_trunc: int = 20):
    """m = c1 x + ... on [1, T] with c1 not 0 or +-1, T <= max_trunc."""
    T = draw(st.integers(1, max_trunc))
    rest = draw(st.lists(values, min_size=T - 1, max_size=T - 1))
    return LaurentSeries("x", 1, [draw(leading)] + rest, T)


@settings
@hypothesis.given(valuation_one())
def test_reversion_is_a_two_sided_compositional_inverse(m):
    w = series_reversion(m)
    assert (w.min_exp, w.trunc_order) == (1, m.trunc_order)
    x = LaurentSeries.monomial("x", 1, 1, m.trunc_order)
    assert series_compose(m, w) == x
    assert series_compose(w, m) == x


@settings
@hypothesis.given(st.integers(0, 20).flatmap(
    lambda T: st.lists(values, min_size=T, max_size=T).map(
        lambda cs: (T, cs))))
def test_log_and_exp_are_inverses(case):
    T, cs = case
    unit = LaurentSeries("x", 0, [1] + cs, T)
    assert series_exp(series_log(unit)) == unit
    if T >= 1:
        tail = LaurentSeries("x", 1, cs, T)
        assert series_log(series_exp(tail)) == LaurentSeries("x", 0, [0] + cs, T)


@pytest.mark.skipif(sympy is None, reason="the oracle needs sympy")
@settings
@hypothesis.given(valuation_one(max_trunc=8))
def test_reversion_matches_sympy(m):
    from sympy.polys.ring_series import rs_series_reversion
    from sympy.polys.rings import ring

    R, x, y = ring("x,y", sympy.QQ)
    p = sum((sympy.Rational(c.numerator, c.denominator) * x ** e
             for e, c in m.terms()), R.zero)
    oracle = rs_series_reversion(p, x, m.trunc_order + 1, y)
    w = series_reversion(m)
    for k in range(1, m.trunc_order + 1):
        c = oracle.coeff(y ** k)
        assert w.coefficient(k) == Fraction(int(c.numerator), int(c.denominator))
