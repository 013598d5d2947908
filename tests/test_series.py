"""Laurent/power series arithmetic against independent brute-force oracles."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from math import factorial

import pytest

from curvecount.series import (
    BivariateSeries,
    LaurentSeries,
    VariableMismatchError,
    WindowError,
    series_compose,
    series_exp,
    series_invert,
    series_log,
    series_mul,
    series_reversion,
)

F = Fraction


# -- independent oracles (plain coefficient lists, no LaurentSeries) ----

def poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_inverse(a: list[Fraction], order: int) -> list[Fraction]:
    """1/A(x) mod x^{order+1} for A(0) != 0, by direct recurrence."""
    inv0 = 1 / a[0]
    out = [inv0] + [F(0)] * order
    for m in range(1, order + 1):
        s = F(0)
        for k in range(1, min(m, len(a) - 1) + 1):
            s += a[k] * out[m - k]
        out[m] = -inv0 * s
    return out


def two_minus_two_cos(order: int) -> list[Fraction]:
    """Taylor coefficients of 2 - 2cos(x) up to x^order, from factorials."""
    out = [F(0)] * (order + 1)
    for j in range(1, order // 2 + 1):
        out[2 * j] = F(2 * (-1) ** (j + 1), factorial(2 * j))
    return out


def rand_series(rng: random.Random, var: str, lo: int, trunc: int) -> LaurentSeries:
    cs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(trunc - lo + 1)]
    return LaurentSeries(var, lo, cs, trunc)


# -- multiplication ----------------------------------------------------

def test_mul_difference_of_squares():
    one_plus = LaurentSeries("q", 0, [1, 1, 0, 0], 3)
    one_minus = LaurentSeries("q", 0, [1, -1, 0, 0], 3)
    prod = series_mul(one_plus, one_minus)
    assert prod == LaurentSeries("q", 0, [1, 0, -1, 0], 3)


def test_mul_exponent_cancellation():
    qinv = LaurentSeries.monomial("q", -1)
    q = LaurentSeries.monomial("q", 1)
    assert series_mul(qinv, q) == LaurentSeries("q", 0, [1], 0)


def test_mul_inverse_residual_above_window():
    # (1 - 3125q)^(-1) truncated, times (1 - 3125q): residual starts above trunc.
    geo = LaurentSeries("q", 0, [F(3125) ** k for k in range(7)], 6)
    lin = LaurentSeries("q", 0, [1, -3125] + [0] * 5, 6)
    prod = series_mul(geo, lin)
    assert prod == LaurentSeries.one("q", 6)


def test_mul_window_shrinks_with_negative_exponents():
    f = LaurentSeries("q", -2, [1, 0, 0, 0, 0, 0, 0, 0, 1], 6)  # q^-2 + q^6
    g = LaurentSeries("q", 0, [1] * 7, 6)
    prod = f * g
    assert prod.min_exp == -2
    assert prod.trunc_order == 4  # min(6 + 0, 6 + (-2))


def test_mul_variable_mismatch():
    with pytest.raises(VariableMismatchError):
        series_mul(LaurentSeries.one("q", 2), LaurentSeries.one("t", 2))


def test_mul_commutative_associative_distributive():
    rng = random.Random(11)
    for _ in range(25):
        f = rand_series(rng, "q", rng.randint(-2, 0), 5)
        g = rand_series(rng, "q", rng.randint(-2, 0), 5)
        h = rand_series(rng, "q", 0, 5)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


# -- inversion ---------------------------------------------------------

def test_invert_geometric_series():
    lin = LaurentSeries("q", 0, [1, -3125] + [0] * 4, 5)
    inv = series_invert(lin)
    assert [inv.coefficient(k) for k in range(6)] == [F(3125) ** k for k in range(6)]


def test_invert_is_involution():
    rng = random.Random(5)
    for _ in range(20):
        f = rand_series(rng, "q", rng.randint(-3, 2), 6)
        if f.is_zero or f.coefficient(f.min_exp) == 0:
            continue
        back = series_invert(series_invert(f))
        # double inversion restores f on the surviving window
        assert back.min_exp == f.min_exp
        for e in range(back.min_exp, back.trunc_order + 1):
            assert back.coefficient(e) == f.coefficient(e)


def test_invert_two_minus_two_cos():
    # oracle: Taylor-expand 2-2cos exactly, invert by recurrence, compare.
    order = 8
    c = two_minus_two_cos(order)
    f = LaurentSeries("lambda", 0, c, order)
    assert f.min_exp == 2  # leading zeros trimmed
    inv = series_invert(f)
    unit = [c[k + 2] for k in range(order - 1)]  # x^2 * unit(x)
    expect = poly_inverse(unit, order - 4)
    assert inv.min_exp == -2
    for k, val in enumerate(expect):
        assert inv.coefficient(-2 + k) == val
    # frozen low-order values: lambda^-2 + 1/12 + lambda^2/240 + ...
    assert inv.coefficient(-2) == 1
    assert inv.coefficient(0) == F(1, 12)
    assert inv.coefficient(2) == F(1, 240)
    # product is 1 on the guaranteed window
    assert series_mul(f, inv) == LaurentSeries.one("lambda", inv.trunc_order + 2)


def test_invert_zero_leading_coefficient():
    with pytest.raises(ValueError):
        series_invert(LaurentSeries.zero("q", 4))


# -- log / exp ---------------------------------------------------------

def test_log_one_plus_q():
    f = LaurentSeries("q", 0, [1, 1, 0, 0, 0, 0], 5)
    expect = [F(0)] + [F((-1) ** (k - 1), k) for k in range(1, 6)]
    assert series_log(f) == LaurentSeries("q", 0, expect, 5)


def test_log_exp_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        f = rand_series(rng, "q", 1, 7)
        assert series_log(series_exp(f)) == f
    g = rand_series(rng, "q", 0, 7)
    gg = LaurentSeries("q", 0, [F(1)] + list(g.coeffs)[1:], 7)
    assert series_exp(series_log(gg)) == gg


def test_exp_of_zero():
    assert series_exp(LaurentSeries.zero("q", 4)) == LaurentSeries.one("q", 4)


def test_log_requires_unit_constant_term():
    with pytest.raises(ValueError):
        series_log(LaurentSeries("q", 0, [2, 1], 1))


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        series_exp(LaurentSeries("q", 0, [1, 1], 1))


def test_bivariate_log_single_table_entry():
    # generating series 1 + 5q t: log has t^1 layer 5q, t^2 layer -25q^2/2
    one = LaurentSeries.one("q", 6)
    p1 = LaurentSeries.monomial("q", 1, 5, 6)
    p2 = LaurentSeries.zero("q", 6)
    F_conn = series_log(BivariateSeries([one, p1, p2]))
    assert F_conn.per_degree[0].is_zero
    assert F_conn.per_degree[1] == p1
    assert F_conn.per_degree[2] == LaurentSeries.monomial("q", 2, F(-25, 2), 6)


def test_bivariate_exp_log_round_trip():
    rng = random.Random(13)
    for _ in range(10):
        layers = [LaurentSeries.zero("q", 6)]
        layers += [rand_series(rng, "q", 0, 6) for _ in range(3)]
        conn = BivariateSeries(layers)
        back = series_log(series_exp(conn))
        assert back.per_degree == conn.per_degree


# -- composition -------------------------------------------------------

def test_compose_univariate_against_oracle():
    # f(m(x)) checked coefficient-by-coefficient with plain polynomial ops
    f = LaurentSeries("t", 0, [2, -1, 3, 0, 1], 4)
    m = LaurentSeries("q", 1, [1, 1, -2, 0], 4)
    result = series_compose(f, m)
    mc = [F(0), F(1), F(1), F(-2), F(0)]
    acc = [F(2)] + [F(0)] * 4
    power = [F(1)] + [F(0)] * 4
    for k in range(1, 5):
        power = poly_mul(power, mc)[:5]
        for e in range(5):
            acc[e] += f.coefficient(k) * power[e]
    for e in range(5):
        assert result.coefficient(e) == acc[e]


def test_compose_of_f_known_on_no_exponent_is_zero_on_the_empty_window():
    # trunc = min(v (T_f + 1) - 1, T_m) = -1 for f known only below x^0
    m = LaurentSeries("q", 2, [3, 1], 3)
    result = series_compose(LaurentSeries.zero("t", -1), m)
    assert result == LaurentSeries.zero("q", -1)
    assert (result.min_exp, result.trunc_order) == (0, -1)


def test_invert_gains_window_on_negative_valuation():
    # f = q^-2 (1 + q) known through q^3: the unit part carries 5 known
    # coefficients, so 1/f is known through q^7.
    f = LaurentSeries("q", -2, [1, 1, 0, 0, 0, 0], 3)
    inv = series_invert(f)
    assert inv.min_exp == 2 and inv.trunc_order == 7
    assert series_mul(f, inv) == LaurentSeries.one("q", 5)


def test_bivariate_mixed_variables_rejected():
    with pytest.raises(VariableMismatchError):
        BivariateSeries([LaurentSeries.one("q", 2), LaurentSeries.one("t", 2)])


# -- window honesty ----------------------------------------------------

def test_coefficient_above_window_raises():
    f = LaurentSeries("q", 0, [1, 2], 1)
    with pytest.raises(WindowError):
        f.coefficient(2)
    assert f.coefficient(-5) == 0


def test_zero_series_window():
    z = LaurentSeries("q", 0, [0, 0, 0], 2)
    assert z.is_zero and z.min_exp == 3 and z.trunc_order == 2


def test_json_round_trip():
    f = LaurentSeries("q", -2, [F(1, 6), 0, F(-3, 5), 1], 1)
    d = f.to_json_dict()
    assert LaurentSeries.from_json_dict(d) == f
    assert d["coeffs"] == ["1/6", "0", "-3/5", "1"]
    assert d["variable"] == "q" and d["min_exp"] == -2 and d["trunc"] == 1


@pytest.mark.parametrize("make", [
    lambda: LaurentSeries("x", 0, [], -1) ** 0,
    lambda: LaurentSeries("x", -2, [3], -2) ** 0,
    lambda: LaurentSeries.one("x", -1),
], ids=["empty_power_0", "power_0", "one"])
def test_one_below_x0_names_the_window(make):
    message = r"^1 is not known on a window ending at x\^-[12]$"
    with pytest.raises(WindowError, match=message):
        make()


@pytest.mark.parametrize("make, error, message", [
    (lambda: LaurentSeries("q", 0, [1, 2], 3), ValueError,
     "window [0, 3] needs 4 coefficients, got 2"),
    (lambda: LaurentSeries("", 0, [1]), ValueError, "empty variable tag"),
    (lambda: LaurentSeries.monomial("q", 3, 1, 2), ValueError,
     "monomial exponent above truncation order"),
    (lambda: LaurentSeries("q", 0, [1, 1]) ** F(1, 2), ValueError,
     "only integer powers"),
    (lambda: LaurentSeries("q", 0, [1, 1]).truncate(2), WindowError,
     "cannot extend a window by truncation"),
    (lambda: LaurentSeries.zero("q", -1).exp(), WindowError,
     "exp needs the window to reach exponent 0"),
    (lambda: series_compose(LaurentSeries("q", -1, [1, 1]),
                            LaurentSeries("q", 1, [1, 1])), ValueError,
     "composition target must be a power series"),
    (lambda: series_compose(LaurentSeries("q", 0, [1, 1]),
                            LaurentSeries("q", 0, [1, 1])), ValueError,
     "composition argument needs valuation >= 1"),
    (lambda: series_reversion(LaurentSeries("q", 2, [1, 1])), ValueError,
     "reversion needs valuation exactly 1"),
    (lambda: BivariateSeries([]), ValueError,
     "need at least the degree-0 layer"),
], ids=["coefficient_count", "empty_variable", "monomial_above_trunc",
        "fractional_power", "truncate_past_window", "exp_below_x0",
        "compose_laurent_target", "compose_valuation_0", "reversion_valuation_2",
        "bivariate_without_layers"])
def test_input_checks_name_the_problem(make, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        make()
