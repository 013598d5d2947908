"""Property tests: powers against products, the window law for f*g,
reversion against composition, log against exp, and the integer kernels
(the product, Miller's power recurrence, composition, the exp/log
recurrence on scalars and on t-layers, the genus-matrix dot)
against the Fraction loops they replaced, the packed integer product
against the double loop and the product against the integer convolution
it replaced, and parse_rational against Fraction(str).

Run with hypothesis when it is installed; the reversion and inverse oracles
also need sympy.  Both are test-only dependencies.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import factorial, lcm
from operator import mul

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

try:
    import sympy
except ImportError:
    sympy = None

from curvecount.series import (  # noqa: E402
    BivariateSeries,
    LaurentSeries,
    WindowError,
    _convolve,
    _miller,
    _numerators,
    parse_rational,
    series_compose,
    series_exp,
    series_log,
    series_invert,
    series_reversion,
)
from curvecount.transforms import _cover_kernel, _dot  # noqa: E402

settings = hypothesis.settings(max_examples=40, deadline=None)
values = st.fractions(min_value=-9, max_value=9, max_denominator=6)
leading = values.filter(lambda c: c not in (0, 1, -1))


@st.composite
def valuation_one(draw, max_trunc: int = 20):
    """m = c1 x + ... on [1, T] with c1 not 0 or +-1, T <= max_trunc."""
    T = draw(st.integers(1, max_trunc))
    rest = draw(st.lists(values, min_size=T - 1, max_size=T - 1))
    return LaurentSeries("x", 1, [draw(leading)] + rest, T)


@st.composite
def laurent(draw, max_trunc: int = 12):
    """f on [a, T] with a in -3..3 and T <= max_trunc; may be the zero series."""
    a = draw(st.integers(-3, 3))
    T = draw(st.integers(a, max_trunc))
    cs = draw(st.lists(values, min_size=T - a + 1, max_size=T - a + 1))
    return LaurentSeries("x", a, cs, T)


units = laurent().filter(lambda f: not f.is_zero)


def recurrence_inverse(f: LaurentSeries) -> LaurentSeries:
    """The triangular inverse recurrence that invert() used before powers."""
    a, u = f.min_exp, f.coeffs
    order = f.trunc_order - a
    inv0 = 1 / u[0]
    out = [inv0] + [Fraction(0)] * order
    for m in range(1, order + 1):
        s = Fraction(0)
        for k in range(1, min(m, len(u) - 1) + 1):
            s += u[k] * out[m - k]
        out[m] = -inv0 * s
    return LaurentSeries(f.variable, -a, out, f.trunc_order - 2 * a)


@settings
@hypothesis.given(laurent(), st.integers(0, 6))
def test_power_is_the_repeated_product(f, n):
    if n == 0 and f.trunc_order < 0:  # 1 is not known on [0, T] below 0
        with pytest.raises(ValueError):
            f ** 0
        return
    expect = reduce(lambda p, _: p * f, range(n - 1), f) if n else \
        LaurentSeries.one("x", f.trunc_order)
    assert f ** n == expect


@settings
@hypothesis.given(units)
def test_inverse_power_matches_the_inverse_recurrence(f):
    assert f ** -1 == series_invert(f) == recurrence_inverse(f)


@settings
@hypothesis.given(units, st.integers(1, 6))
def test_negative_power_times_power_is_one(f, n):
    # f**-n on [-n a, T - (n+1) a] times f**n on [n a, T + (n-1) a]
    assert (f ** -n) * (f ** n) == \
        LaurentSeries.one("x", f.trunc_order - f.min_exp)


@settings
@hypothesis.given(laurent(), laurent(), st.lists(values, min_size=4,
                                                 max_size=4))
def test_product_window_law(f, g, extra):
    """f*g is known on [m_f + m_g, min(T_f + m_g, T_g + m_f)], and only
    there: any values above the factors' windows leave it unchanged."""
    fg = f * g
    trunc = min(f.trunc_order + g.min_exp, g.trunc_order + f.min_exp)
    assert fg.trunc_order == trunc
    if not (f.is_zero or g.is_zero):
        assert fg.min_exp == min(f.min_exp + g.min_exp, trunc + 1)

    def extend(h: LaurentSeries, tail: list) -> LaurentSeries:
        lo = min(h.min_exp, h.trunc_order + 1)
        known = [h.coefficient(e) for e in range(lo, h.trunc_order + 1)]
        return LaurentSeries("x", lo, known + tail, h.trunc_order + len(tail))

    wide = extend(f, extra[:2]) * extend(g, extra[2:])
    assert wide.truncate(trunc) == fg


@pytest.mark.skipif(sympy is None, reason="the oracle needs sympy")
@settings
@hypothesis.given(units)
def test_invert_matches_sympy(f):
    from sympy.polys.ring_series import rs_series_inversion
    from sympy.polys.rings import ring

    R, x = ring("x", sympy.QQ)
    unit = sum((sympy.QQ(c.numerator, c.denominator) * x ** k
                for k, c in enumerate(f.coeffs)), R.zero)
    oracle = rs_series_inversion(unit, x, len(f.coeffs))
    inv = series_invert(f)
    assert (inv.min_exp, inv.trunc_order) == \
        (-f.min_exp, f.trunc_order - 2 * f.min_exp)
    for k in range(len(f.coeffs)):
        c = oracle.coeff(x ** k)
        assert inv.coefficient(k - f.min_exp) == \
            Fraction(int(c.numerator), int(c.denominator))


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


# -- the integer kernels against the Fraction loops they replaced ----------

# Large primes, so the denominators of a series are pairwise coprime and
# their lcm is their product.
PRIMES = [2 ** 31 - 1, 2 ** 61 - 1, 10 ** 9 + 7, 10 ** 9 + 9, 998244353]
big_values = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                       st.sampled_from(PRIMES))
mixed_values = st.one_of(st.just(Fraction(0)), values, big_values)
big_leading = st.one_of(leading, big_values.filter(lambda c: c != 0))


@st.composite
def mixed_laurent(draw, max_trunc: int = 12, coeffs=mixed_values):
    """f on [a, T], a in -3..3, with large coprime denominators and interior
    zeros; T = a - 1 gives the empty window."""
    a = draw(st.integers(-3, 3))
    T = draw(st.integers(a - 1, max_trunc))
    cs = draw(st.lists(coeffs, min_size=T - a + 1, max_size=T - a + 1))
    return LaurentSeries("x", a, cs, T)


def reference_mul(f: LaurentSeries, g: LaurentSeries) -> LaurentSeries:
    """The Fraction double loop that f * g used before integer numerators."""
    lo = f.min_exp + g.min_exp
    trunc = min(f.trunc_order + g.min_exp, g.trunc_order + f.min_exp)
    acc = [Fraction(0)] * max(trunc - lo + 1, 0)
    for i, a in enumerate(f.coeffs):
        if not a:
            continue
        ei = f.min_exp + i
        for j, b in enumerate(g.coeffs):
            e = ei + g.min_exp + j
            if e > trunc:
                break
            if b:
                acc[e - lo] += a * b
    return LaurentSeries(f.variable, lo, acc, trunc)


def reference_convolve(a: list, b: list, n: int) -> list:
    """The first n coefficients (n <= 0: none) of the product of a and b,
    by the double loop."""
    n = max(n, 0)
    c = [0] * n
    for i, x in enumerate(a[:n]):
        for j, y in enumerate(b[:n - i]):
            c[i + j] += x * y
    return c


# Mixed signs at 1 to 2000 bits, powers of two (a slot's edge) and zeros.
ints = st.integers(1, 2000).flatmap(lambda bits: st.one_of(
    st.integers(-2 ** bits, 2 ** bits),
    st.sampled_from([2 ** bits, -2 ** bits, 2 ** bits - 1, 1 - 2 ** bits, 0])))
int_lists = st.one_of(st.lists(ints, max_size=12),
                      st.lists(st.just(0), max_size=12))


@settings
@hypothesis.given(int_lists, int_lists, st.integers(-3, 26))
@hypothesis.example([5, -3], [7, 2], -1)  # a[:-1], b[:-1] would be [5], [7]
@hypothesis.example([], [1, 2], 3)
@hypothesis.example([0, 0], [2 ** 2000, -1], 4)
@hypothesis.example([-(2 ** 7)] * 3, [-(2 ** 7)] * 3, 5)  # 2^15 * 3: 3 bytes
def test_convolve_matches_the_double_loop(a, b, n):
    c = _convolve(a, b, n)
    assert c == reference_convolve(a, b, n)
    assert all(type(x) is int for x in c)


def reference_numerator_mul(f: LaurentSeries, g: LaurentSeries
                            ) -> LaurentSeries:
    """The integer convolution f * g ran before the packed product."""
    lo = f.min_exp + g.min_exp
    trunc = min(f.trunc_order + g.min_exp, g.trunc_order + f.min_exp)
    n = max(trunc - lo + 1, 0)
    a, da = _numerators(f.coeffs[:n])
    b, db = _numerators(g.coeffs[:n])
    rb = b[::-1]
    acc = [Fraction(sum(map(mul, a[:k + 1], rb[n - 1 - k:])), da * db)
           for k in range(n)]
    return LaurentSeries(f.variable, lo, acc, trunc)


@settings
@hypothesis.given(mixed_laurent(), mixed_laurent())
# an empty window, a negative start and the zero series on [0, 2]
@hypothesis.example(LaurentSeries("x", 2, [], 1), LaurentSeries("x", -3, [1], -3))
@hypothesis.example(LaurentSeries("x", -3, [1, 0, -2], -1),
                    LaurentSeries("x", -2, [Fraction(1, 3), 5], -1))
@hypothesis.example(LaurentSeries.zero("x", 2), LaurentSeries("x", 0, [1, 2], 1))
def test_product_matches_the_integer_convolution(f, g):
    fg, ref = f * g, reference_numerator_mul(f, g)
    assert (fg.min_exp, fg.trunc_order) == (ref.min_exp, ref.trunc_order)
    assert fg.coeffs == ref.coeffs


def reference_unit_power(u, alpha: int, count: int) -> list:
    """The Fraction form of Miller's recurrence for u**alpha that the
    integer loop _miller replaced."""
    u0 = u[0]
    p = [u0 ** alpha]
    for k in range(1, count):
        s = Fraction(0)
        for j in range(1, k + 1):
            if u[j]:
                s += ((alpha + 1) * j - k) * u[j] * p[k - j]
        p.append(s / (k * u0))
    return p


@settings
@hypothesis.given(mixed_laurent(), mixed_laurent())
def test_product_matches_the_fraction_loop(f, g):
    fg = f * g
    assert fg == reference_mul(f, g)  # window included
    assert all(type(c) is Fraction for c in fg.coeffs)


@settings
@hypothesis.given(st.integers(0, 12).flatmap(
    lambda n: st.tuples(big_leading, st.lists(mixed_values, min_size=n,
                                              max_size=n))),
    st.integers(-6, 6), st.data())
def test_unit_power_matches_the_fraction_recurrence(u, alpha, data):
    u = (u[0], *u[1])
    count = data.draw(st.integers(1, len(u)))
    assert _miller(u, alpha + 1, -1, u[0] ** alpha, count) == \
        reference_unit_power(u, alpha, count)


def reference_compose(f: LaurentSeries, m: LaurentSeries) -> LaurentSeries:
    """The Fraction loop series_compose ran before the Horner pass: each
    power of m by one more product, scaled by f_k and added."""
    v = m.min_exp
    trunc = min(v * (f.trunc_order + 1) - 1, m.trunc_order)
    if f.trunc_order >= 0:
        out = LaurentSeries.monomial(m.variable, 0, f.coefficient(0), trunc)
    else:
        out = LaurentSeries.zero(m.variable, trunc)
    power = LaurentSeries.one(m.variable, trunc)
    for k in range(1, f.trunc_order + 1):
        power = power * m
        if power.trunc_order > trunc:
            power = power.truncate(trunc)
        c = f.coefficient(k)
        if c:
            out = out + power.scale(c)
        if power.min_exp > trunc:
            break
    return out


@st.composite
def compose_args(draw):
    """(f, m): m of valuation v in 1..3 on [v, T_m]; f on [a, T_f], a in
    0..3 (a > 0: leading zeros), often longer than trunc // v."""
    v = draw(st.integers(1, 3))
    tm = draw(st.integers(v, 14))
    m = LaurentSeries("x", v, [draw(big_leading)] + draw(
        st.lists(mixed_values, min_size=tm - v, max_size=tm - v)), tm)
    a = draw(st.integers(0, 3))
    tf = draw(st.integers(max(a - 1, 0), 16))
    f = LaurentSeries("t", a, draw(st.lists(
        mixed_values, min_size=tf - a + 1, max_size=tf - a + 1)), tf)
    return f, m


@settings
@hypothesis.given(compose_args())
def test_compose_matches_the_fraction_loop(args):
    f, m = args
    fm = series_compose(f, m)
    assert fm == reference_compose(f, m)  # window included
    assert all(type(c) is Fraction for c in fm.coeffs)


def reference_log_terms(f: list) -> list:
    """The Fraction loop log ran before integer numerators (f[0] unread)."""
    g = [None]
    for n in range(1, len(f)):
        acc = f[n]
        for k in range(1, n):
            acc = acc - Fraction(k, n) * (g[k] * f[n - k])
        g.append(acc)
    return g[1:]


def reference_exp_terms(f: list) -> list:
    """The Fraction loop exp ran before integer numerators (f[0] unread)."""
    g = [None]
    for n in range(1, len(f)):
        acc = f[n]
        for k in range(1, n):
            acc = acc + Fraction(k, n) * (f[k] * g[n - k])
        g.append(acc)
    return g[1:]


def reference_log(f):
    """log(f) as it ran on reference_log_terms, input checks included."""
    if isinstance(f, BivariateSeries):
        p0 = f.per_degree[0]
        if p0.min_exp != 0 or p0.coefficient(0) != 1 or any(
                c for c in p0.coeffs[1:]):
            raise ValueError("bivariate log requires degree-0 layer == 1")
        zero = LaurentSeries.zero(f.variable, p0.trunc_order)
        return BivariateSeries([zero] + reference_log_terms(f.per_degree))
    if f.is_zero or f.min_exp != 0 or f.coeffs[0] != 1:
        raise ValueError("series_log requires constant term 1")
    T = f.trunc_order
    g = reference_log_terms([f.coefficient(e) for e in range(0, T + 1)])
    return LaurentSeries(f.variable, 0, [0] + g, T)


def reference_exp(f):
    """exp(f) as it ran on reference_exp_terms, input checks included."""
    if isinstance(f, BivariateSeries):
        f0 = f.per_degree[0]
        if not f0.is_zero:
            raise ValueError("bivariate exp requires zero degree-0 layer")
        if f0.trunc_order < 0:
            raise WindowError("degree-0 window must reach exponent 0")
        one = LaurentSeries.one(f.variable, f0.trunc_order)
        return BivariateSeries([one] + reference_exp_terms(f.per_degree))
    if f.trunc_order < 0:
        raise WindowError("exp needs the window to reach exponent 0")
    if f.min_exp < 1 and not f.is_zero:
        raise ValueError("series_exp requires zero constant term")
    T = f.trunc_order
    g = reference_exp_terms([f.coefficient(e) for e in range(0, T + 1)])
    return LaurentSeries(f.variable, 0, [1] + g, T)


def attempt(op, f):
    """op(f) with every coefficient a Fraction, or the exception's type."""
    try:
        out = op(f)
    except Exception as exc:  # any type: both sides must raise the same
        return type(exc)
    layers = out.per_degree if isinstance(out, BivariateSeries) else [out]
    assert all(type(c) is Fraction for p in layers for c in p.coeffs)
    return out


# Ragged t-layers: min_exp down to -3, all-zero layers, empty windows, and
# coefficients in +-1, +-1/2 whose products cancel leading terms, which
# moves the windows of later layers.
layers = st.one_of(
    mixed_laurent(max_trunc=8),
    mixed_laurent(max_trunc=5, coeffs=st.sampled_from(
        [Fraction(c, 2) for c in (-2, -1, 0, 1, 2)])),
    st.integers(-4, 8).map(lambda t: LaurentSeries.zero("x", t)))


@st.composite
def bivariate(draw, head):
    """Degree-0 layer from head (one time in four any layer), then up to
    five ragged layers."""
    p0 = draw(head if draw(st.integers(0, 3)) else layers)
    return BivariateSeries([p0] + draw(st.lists(layers, max_size=5)))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(
    bivariate(st.integers(0, 8).map(lambda t: LaurentSeries.one("x", t))),
    bivariate(st.integers(-2, 8).map(lambda t: LaurentSeries.zero("x", t))))
# Cancellations: g_2 cancels to zero, so layer 3 ends at T_{g_2} + m_{f_1},
# which only the T_a + m_b side of the product window law gives for log
# (a = g) and only the T_b + m_a side for exp (b = g) in the first example,
# and which needs the trimmed min_exp of g_2 in the second.
@hypothesis.example(
    BivariateSeries([LaurentSeries.one("x", 4), LaurentSeries("x", -1, [1], -1),
                     LaurentSeries("x", -2, [Fraction(1, 2), Fraction(-1, 2)],
                                   -1),
                     LaurentSeries.zero("x", 2), LaurentSeries.zero("x", 2)]),
    BivariateSeries([LaurentSeries.zero("x", 4), LaurentSeries("x", 0, [1], 0),
                     LaurentSeries("x", 0, [Fraction(-1, 2)] * 2, 1),
                     LaurentSeries.zero("x", 3)]))
@hypothesis.example(
    BivariateSeries([LaurentSeries.one("x", 3),
                     LaurentSeries("x", 1, [1, Fraction(-1, 2)], 2),
                     LaurentSeries("x", 2, [Fraction(1, 2), 0], 3),
                     LaurentSeries.zero("x", 3)]),
    BivariateSeries([LaurentSeries.zero("x", 3),
                     LaurentSeries("x", 0, [1, -1], 1),
                     LaurentSeries("x", 0, [Fraction(-1, 2), Fraction(1, 2), 0],
                                   2),
                     LaurentSeries.zero("x", 0)]))
def test_bivariate_log_and_exp_match_the_fraction_loops(generating, connected):
    # BivariateSeries equality compares every layer's window and values
    assert attempt(series_log, generating) == \
        attempt(reference_log, generating)
    assert attempt(series_exp, connected) == attempt(reference_exp, connected)


# The quintic's fundamental period (5n)!/(n!)^5 and (5n)!/((n!)^5 n) at
# T = 30: coefficients of several hundred bits, each series both as the
# tail of 1 + ... and as f.
PERIOD = [Fraction(factorial(5 * n), factorial(n) ** 5) for n in range(31)]
PERIOD_OVER_N = [c / n for n, c in enumerate(PERIOD[1:], 1)]


@settings
@hypothesis.given(st.lists(mixed_values, max_size=12), mixed_laurent())
@hypothesis.example(PERIOD[1:], LaurentSeries("x", 1, PERIOD_OVER_N, 30))
@hypothesis.example(PERIOD_OVER_N, LaurentSeries("x", 0, PERIOD, 30))
def test_scalar_log_and_exp_match_the_fraction_loops(cs, f):
    T = len(cs)
    for series in (LaurentSeries("x", 0, [1] + cs, T),
                   LaurentSeries("x", 1, cs, T), f):
        assert attempt(series_log, series) == attempt(reference_log, series)
        assert attempt(series_exp, series) == attempt(reference_exp, series)


def fraction_rows(g_out: int) -> list[list[Fraction]]:
    """M[g][g'] for g' <= g <= g_out as Fractions, from K_{g'} = K_2^(g'-1)
    by LaurentSeries powers of K_2 = 2 - 2cos lam (K_0 = K_2^(-1)), not from
    the integer loop under test."""
    lam_trunc = 2 * g_out + 2
    k2 = LaurentSeries("lambda", 2, [
        Fraction(2 * (-1) ** (m // 2 + 1), factorial(m)) if m % 2 == 0 else 0
        for m in range(2, lam_trunc + 1)], lam_trunc)
    kernels = [k2 ** (gp - 1) for gp in range(g_out + 1)]
    return [[k.coefficient(2 * g - 2) for k in kernels[:g + 1]]
            for g in range(g_out + 1)]


def test_basis_rows_are_numerators_over_the_row_lcm():
    rows = zip(_cover_kernel(12), fraction_rows(12), strict=True)
    for (cs, den), row in rows:
        assert den == lcm(*(c.denominator for c in row))
        assert [Fraction(c, den) for c in cs] == row


@settings
@hypothesis.given(st.integers(0, 12), st.lists(
    st.one_of(mixed_values, st.integers(-10 ** 6, 10 ** 6)), max_size=14))
def test_dot_matches_the_fraction_sum(g, xs):
    row = fraction_rows(12)[g]
    (cs, den), (ns, nden) = _cover_kernel(12)[g], _numerators(xs)
    dot = _dot((cs, den), ns)
    assert type(dot) is int
    assert Fraction(dot, den * nden) == sum((c * x for c, x in zip(row, xs)),
                                            Fraction(0))


def outcome(parse, s):
    """The value parse(s), or the type and text of the exception it raised."""
    try:
        value = parse(s)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        return type(exc), str(exc)
    assert type(value) is Fraction
    return value


@settings
@hypothesis.given(st.one_of(
    st.text("0123456789+-/._e \u0663", max_size=12),
    st.from_regex(r"\A-?[0-9]+(/[0-9]+)?\Z"),
    st.integers(), st.floats(), st.none()))  # JSON values reach it too
def test_parse_rational_is_fraction_of_the_string(s):
    """Fraction(s), but a zero denominator is a ValueError naming s."""
    want = outcome(Fraction, s)
    if isinstance(want, tuple) and want[0] is ZeroDivisionError:
        want = ValueError, f"zero denominator in {s!r}"
    assert outcome(parse_rational, s) == want
