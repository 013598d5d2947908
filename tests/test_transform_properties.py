"""Property tests: the GV<->GW and PT log/exp round trips are exact,
PT->DT by the degree-0 series 1 returns its input, and the per-degree cover
weights of the GV<->GW dictionary and both GV<->GW transforms on integer
numerators equal their Fraction forms.

Each round trip runs one shared helper through both of its callers: the
cover weights through gv_to_gw and gw_to_gv, the log/exp recurrences through
pt_connected_to_table (exp) and pt_table_to_connected (log).
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from curvecount.bounds import bps_threshold, bps_threshold_floor  # noqa: E402
from curvecount.series import BivariateSeries, LaurentSeries  # noqa: E402
from curvecount.tables import GvTable, GwTable, PtTable  # noqa: E402
from curvecount.transforms import (  # noqa: E402
    _cover_weights,
    gv_to_gw,
    gv_to_pt_connected,
    gw_to_gv,
    pt_connected_to_table,
    pt_table_to_connected,
    pt_to_dt,
)

settings = hypothesis.settings(max_examples=60, deadline=None)


@st.composite
def gv_tables(draw) -> GvTable:
    """Integer GV data at or below the threshold on a window g, d <= 8."""
    g_max = draw(st.integers(0, 8))
    d_max = draw(st.integers(1, 8))
    cells = [(g, d) for d in range(1, d_max + 1)
             for g in range(min(g_max, math.floor(bps_threshold(d))) + 1)]
    entries = draw(st.dictionaries(st.sampled_from(cells),
                                   st.integers(-50, 50), max_size=len(cells)))
    return GvTable(entries, g_max, d_max)


@settings
@hypothesis.given(gv_tables())
def test_gv_gw_gv_round_trip_is_exact(gv):
    gw = gv_to_gw(gv, gv.g_max, gv.d_max)
    assert gw_to_gv(gw, gv.g_max, gv.d_max) == gv


PRIMES = [p for p in range(2, 400) if all(p % q for q in range(2, p))]


@st.composite
def rational_gv_tables(draw) -> GvTable:
    """GV data on a window g <= 6, d <= 6 whose entries have distinct,
    pairwise coprime denominators (one prime each), so the forward
    substitution of gw_to_gv must grow its common denominator."""
    g_max = draw(st.integers(0, 6))
    d_max = draw(st.integers(1, 6))
    cells = [(g, d) for d in range(1, d_max + 1) for g in range(g_max + 1)]
    keys = draw(st.lists(st.sampled_from(cells), unique=True))
    dens = draw(st.permutations(PRIMES))[:len(keys)]
    nums = draw(st.lists(st.integers(-50, 50).filter(bool),
                         min_size=len(keys), max_size=len(keys)))
    return GvTable({key: Fraction(n, q) for key, n, q in
                    zip(keys, nums, dens)}, g_max, d_max)


@settings
@hypothesis.given(rational_gv_tables())
def test_gv_gw_gv_round_trip_on_rational_entries(gv):
    gw = gv_to_gw(gv, gv.g_max, gv.d_max)
    assert gw_to_gv(gw, gv.g_max, gv.d_max) == gv


def reference_covers(v: dict, g: int, d: int, r_min: int) -> Fraction:
    """The divisor sum with the exponent 2g - 3 as written."""
    return sum((Fraction(r) ** (2 * g - 3) * v[d // r][g]
                for r in range(r_min, d + 1) if d % r == 0), Fraction(0))


@settings
@hypothesis.given(st.integers(0, 4).flatmap(lambda g_max: st.tuples(
    st.lists(st.lists(st.fractions(max_denominator=30),
                      min_size=g_max + 1, max_size=g_max + 1),
             min_size=12, max_size=12),
    st.lists(st.integers(1, 4), min_size=12, max_size=12),
    st.lists(st.integers(1, 6), min_size=g_max + 1, max_size=g_max + 1))))
def test_cover_weights_give_the_fraction_sum(data):
    """v[d'][g] = p/q as the transforms hold it: a numerator over
    D_g dens[d'], dens[d'] = k lcm(q) unreduced, so the cell
    sum_r w_r r^(2g) x[d/r][g] over D_g L d^3 is the divisor sum."""
    rows, ks, row_dens = data
    v = dict(enumerate(rows, start=1))
    dens = {d: k * math.lcm(*(x.denominator for x in row))
            for (d, row), k in zip(v.items(), ks)}
    xs = {d: [x.numerator * dg * dens[d] // x.denominator
              for x, dg in zip(row, row_dens)] for d, row in v.items()}
    for d in range(1, 13):
        for r_min in (1, 2):
            rs, big, ws = _cover_weights(dens, d, r_min)
            assert rs == [r for r in range(r_min, d + 1) if d % r == 0]
            assert big == math.lcm(*(dens[d // r] for r in rs))
            assert all(type(w) is int for w in ws)
            for g, dg in enumerate(row_dens):  # g = 0, 1: 2g - 3 < 0
                num = sum(w * r ** (2 * g) * xs[d // r][g]
                          for r, w in zip(rs, ws))
                assert Fraction(num, dg * big * d ** 3) == \
                    reference_covers(v, g, d, r_min)


def fraction_rows(g_out: int) -> list[list[Fraction]]:
    """M[g][g'] for g' <= g <= g_out as Fractions, from K_{g'} = K_2^(g'-1)
    by LaurentSeries powers of K_2 = 2 - 2cos lam (K_0 = K_2^(-1)), not from
    the integer loop under test."""
    lam_trunc = 2 * g_out + 2
    k2 = LaurentSeries("lambda", 2, [
        Fraction(2 * (-1) ** (m // 2 + 1), math.factorial(m))
        if m % 2 == 0 else 0 for m in range(2, lam_trunc + 1)], lam_trunc)
    kernels = [k2 ** (gp - 1) for gp in range(g_out + 1)]
    return [[k.coefficient(2 * g - 2) for k in kernels[:g + 1]]
            for g in range(g_out + 1)]


def reference_gv_to_gw(gv: GvTable, g_out: int, d_out: int) -> GwTable:
    """gv_to_gw as a loop on Fractions: v_{d'} = M n_{., d'}, then the
    divisor sum."""
    m = fraction_rows(g_out)
    v = {dp: [sum((c * gv.value(gp, dp) for gp, c in enumerate(row)),
                  Fraction(0)) for row in m] for dp in range(1, d_out + 1)}
    return GwTable({(g, d): reference_covers(v, g, d, 1)
                    for d in range(1, d_out + 1) for g in range(g_out + 1)},
                   g_out, d_out)


def reference_gw_to_gv(gw: GwTable, g_out: int, d_out: int) -> GvTable:
    """gw_to_gv as a loop on Fractions: v_d = N_{., d} minus the r >= 2
    covers, then forward substitution in M n_{., d} = v_d."""
    m = fraction_rows(g_out)
    v, out = {}, {}
    for d in range(1, d_out + 1):
        v[d] = [gw.value(g, d) - reference_covers(v, g, d, 2)
                for g in range(g_out + 1)]
        for g, row in enumerate(m):
            out[(g, d)] = v[d][g] - sum(
                (c * out[(gp, d)] for gp, c in enumerate(row[:g])), Fraction(0))
    return GvTable(out, g_out, d_out)


@st.composite
def windows(draw, g_top: int = 8, d_top: int = 12) -> tuple:
    """A table window g <= g_max, d <= d_max and an output window inside."""
    g_max, d_max = draw(st.integers(0, g_top)), draw(st.integers(1, d_top))
    return (g_max, d_max, draw(st.integers(0, g_max)),
            draw(st.integers(1, d_max)))


def cell_values(draw, g_max: int, d_max: int, values) -> dict:
    cells = [(g, d) for d in range(1, d_max + 1) for g in range(g_max + 1)]
    return draw(st.dictionaries(st.sampled_from(cells), values,
                                max_size=len(cells)))


@settings
@hypothesis.given(windows(), st.data())
def test_gv_to_gw_matches_the_fraction_loop(window, data):
    """Rational GV entries (denominators up to 30) on any cell; gw_to_gv
    of the result, whose denominators come from the covers, as well."""
    g_max, d_max, g_out, d_out = window
    gv = GvTable(cell_values(data.draw, g_max, d_max, st.fractions(
        min_value=-50, max_value=50, max_denominator=30)), g_max, d_max)
    gw = gv_to_gw(gv, g_out, d_out)
    assert gw == reference_gv_to_gw(gv, g_out, d_out)
    assert gw_to_gv(gw, g_out, d_out) == reference_gw_to_gv(gw, g_out, d_out)


@settings
@hypothesis.given(windows(), st.data())
def test_gw_to_gv_matches_the_fraction_loop(window, data):
    """GW entries with denominators unrelated to those of the covers."""
    g_max, d_max, g_out, d_out = window
    gw = GwTable(cell_values(data.draw, g_max, d_max, st.builds(
        Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))),
        g_max, d_max)
    assert gw_to_gv(gw, g_out, d_out) == reference_gw_to_gv(gw, g_out, d_out)


@st.composite
def degree_den_gv_tables(draw) -> GvTable:
    """GV data on a window g <= 6, d <= 8 whose degrees carry different
    denominators: each degree's entries have that degree's own prime (or 1)
    as denominator, so the per-degree denominators of the covers differ."""
    g_max, d_max = draw(st.integers(0, 6)), draw(st.integers(1, 8))
    dens = draw(st.lists(st.sampled_from([1] + PRIMES[:12]),
                         min_size=d_max, max_size=d_max))
    entries = cell_values(draw, g_max, d_max, st.integers(-50, 50))
    return GvTable({(g, d): Fraction(x, dens[d - 1])
                    for (g, d), x in entries.items()}, g_max, d_max)


@settings
@hypothesis.given(degree_den_gv_tables(), st.data())
def test_gv_gw_round_trip_matches_the_fraction_loops(gv, data):
    """gw_to_gv on the covers of GV data and on arbitrary rational GW data
    on the same window, whose denominators mostly do not divide the cell's
    common denominator and so widen it, equals the Fraction loops."""
    g_max, d_max = gv.g_max, gv.d_max
    gw = gv_to_gw(gv, g_max, d_max)
    assert gw == reference_gv_to_gw(gv, g_max, d_max)
    assert gw_to_gv(gw, g_max, d_max) == gv
    gw = GwTable(cell_values(data.draw, g_max, d_max, st.fractions(
        min_value=-10 ** 4, max_value=10 ** 4, max_denominator=10 ** 4)),
        g_max, d_max)
    assert gw_to_gv(gw, g_max, d_max) == reference_gw_to_gv(gw, g_max, d_max)


@st.composite
def small_gv_tables(draw) -> GvTable:
    """Rational GV data on any cell of g <= 4, d <= 4, in a window that
    reaches floor(B(d_max)), as gv_to_pt_connected requires."""
    g_max, d_max = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    return GvTable(cell_values(draw, g_max, d_max, st.fractions(
        min_value=-50, max_value=50, max_denominator=6)),
        max(g_max, bps_threshold_floor(d_max)), d_max)


def reference_pt_layer(gv: GvTable, d: int, n_max: int) -> dict:
    """q-exponent -> coefficient of the t^d connected layer up to q^n_max:
    sum n_g^{d'} ((-1)^(g-1)/r) u^(r(1-g)) (1-u^r)^(2g-2) over r d' = d, the
    power by LaurentSeries, then u = -q."""
    out: dict[int, Fraction] = {}
    for r in (r for r in range(1, d + 1) if d % r == 0):
        for (g, dp), n in gv.entries.items():
            lead = r * (1 - g)
            if dp != d // r or lead > n_max:
                continue
            one_minus = LaurentSeries.from_dict("u", {0: 1, r: -1},
                                                n_max - lead)
            kernel = one_minus ** (2 * g - 2)
            for j, c in kernel.terms():
                e, x = lead + j, n * Fraction((-1) ** (g + 1), r) * c
                out[e] = out.get(e, Fraction(0)) + (-x if e % 2 else x)
    return out


@settings
@hypothesis.given(small_gv_tables(), st.integers(-16, -12),
                  st.integers(-12, 16))
def test_gv_to_pt_connected_matches_the_expanded_kernels(gv, n_min, n_max):
    """Every coefficient of every connected layer; the q-window starts at or
    below every leading exponent r(1-g) >= -12."""
    F = gv_to_pt_connected(gv, gv.d_max, (n_min, n_max))
    assert F.t_trunc == gv.d_max and F.per_degree[0].is_zero
    for d in range(1, gv.d_max + 1):
        layer, want = F.per_degree[d], reference_pt_layer(gv, d, n_max)
        assert layer.trunc_order == n_max
        for e in range(n_min, n_max + 1):
            assert layer.coefficient(e) == want.get(e, 0), (d, e)


@st.composite
def connected_series(draw) -> BivariateSeries:
    """Zero degree-0 layer, then layers in q reaching down to q^-3."""
    T = draw(st.integers(0, 10))
    layers = [LaurentSeries.zero("q", T)]
    for _ in range(draw(st.integers(1, 4))):
        lo = draw(st.integers(-3, min(T, 2)))
        cs = draw(st.lists(st.fractions(min_value=-5, max_value=5,
                                        max_denominator=4),
                           min_size=T - lo + 1, max_size=T - lo + 1))
        layers.append(LaurentSeries("q", lo, cs, T))
    return BivariateSeries(layers)


@settings
@hypothesis.given(connected_series())
def test_pt_exp_log_round_trip_returns_the_layers(F):
    table = pt_connected_to_table(F)
    back = pt_table_to_connected(table)
    assert back.t_trunc == F.t_trunc and back.per_degree[0].is_zero
    n_max = table.q_window[1]
    # lowest exponent of any table layer (n_max + 1 for an empty one); by the
    # window law for f*g each product in the log costs at most -m of window
    m = min(0, *(min((n for n, dd in table.entries if dd == d), default=n_max + 1)
                 for d in range(1, table.d_max + 1)))
    for d in range(1, F.t_trunc + 1):
        layer = back.per_degree[d]
        assert n_max + (d - 1) * m <= layer.trunc_order <= n_max
        assert layer == F.per_degree[d].truncate(layer.trunc_order)


@st.composite
def pt_tables(draw) -> PtTable:
    """Rational PT data on a random window d <= 6, n in [n_min, n_max]."""
    n_min = draw(st.integers(-6, 3))
    n_max = draw(st.integers(n_min, 8))
    d_max = draw(st.integers(1, 6))
    cells = [(n, d) for d in range(1, d_max + 1)
             for n in range(n_min, n_max + 1)]
    entries = draw(st.dictionaries(
        st.sampled_from(cells),
        st.fractions(min_value=-20, max_value=20, max_denominator=5),
        max_size=len(cells)))
    return PtTable(entries, d_max, (n_min, n_max))


@settings
@hypothesis.given(pt_tables(), st.integers(0, 16))
def test_pt_to_dt_by_one_returns_the_input(pt, T):
    """With dt0 = 1 known through q^T each layer keeps its entries; the
    window ends where the lowest entry of some layer plus T does."""
    n_min, n_max = pt.q_window
    lowest = [min((n for n, dd in pt.entries if dd == d), default=n_max + 1)
              for d in range(1, pt.d_max + 1)]
    end = min(n_max, *(low + T for low in lowest))
    dt = pt_to_dt(pt, LaurentSeries.one("q", T))
    assert dt.q_window == (n_min, end) and dt.d_max == pt.d_max
    assert dt.entries == {k: v for k, v in pt.entries.items() if k[0] <= end}
    if T >= n_max - n_min:
        assert dt == pt
