"""GW/GV/PT/DT transform laws, round-trips, and vanishing rules."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from curvecount.bounds import bps_threshold, extremal_gv
from curvecount.series import BivariateSeries, LaurentSeries, WindowError
from curvecount.tables import GvTable, GwTable, PtTable, TruncationError
from curvecount.transforms import (
    _cover_kernel,
    apply_castelnuovo_vanishing,
    connected_vanishing_check,
    gv_to_gw,
    gv_to_pt_connected,
    gw_to_gv,
    integrality_check,
    pt_connected_to_table,
    pt_table_to_connected,
    pt_to_dt,
)

F = Fraction


def rand_gv(rng: random.Random, g_max: int, d_max: int,
            density: float = 0.5) -> GvTable:
    entries = {}
    for g in range(g_max + 1):
        for d in range(1, d_max + 1):
            if rng.random() < density:
                v = rng.randint(-9, 9)
                if v:
                    entries[(g, d)] = F(v)
    return GvTable(entries, g_max, d_max)


# -- gv_to_gw ----------------------------------------------------------

def test_elliptic_multiple_cover():
    gv = GvTable({(1, 1): F(1)}, 3, 8)
    gw = gv_to_gw(gv, 3, 8)
    for d in range(1, 9):
        assert gw.value(1, d) == F(1, d)
        for g in (0, 2, 3):
            assert gw.value(g, d) == 0


def test_rational_multiple_cover():
    gv = GvTable({(0, 1): F(1)}, 2, 12)
    gw = gv_to_gw(gv, 2, 12)
    for d in range(1, 13):
        assert gw.value(0, d) == F(1, d ** 3)
        assert gw.value(1, d) == F(1, 12 * d)


def test_empty_gv_gives_zero_gw():
    gw = gv_to_gw(GvTable({}, 4, 6), 4, 6)
    assert gw.entries == {}


def test_gv_to_gw_truncation_error():
    with pytest.raises(TruncationError):
        gv_to_gw(GvTable({(0, 1): F(1)}, 2, 3), 2, 4)


def test_kernel_subleading_coefficient():
    # (2 - 2cos x)^(g-1) = x^(2g-2) (1 - (g-1) x^2 / 12 + ...): a single
    # entry (g, d) = c feeds N_{g+1,d} = -c (g-1)/12 when d has no divisors
    # carrying other entries.
    for g in range(1, 6):
        gv = GvTable({(g, 7): F(5)}, g + 1, 7)
        gw = gv_to_gw(gv, g + 1, 7)
        assert gw.value(g, 7) == 5
        assert gw.value(g + 1, 7) == F(-5 * (g - 1), 12)


def direct_kernel(r: int, g_prime: int, lam_trunc: int) -> LaurentSeries:
    """(2 - 2cos(r lam))^(g'-1) by repeated multiplication of the r-scaled base."""
    base_trunc = lam_trunc + (4 if g_prime == 0 else 0)
    coeffs = [F(0)] * (base_trunc + 1)
    for j in range(1, base_trunc // 2 + 1):
        coeffs[2 * j] = F(2 * (-1) ** (j + 1) * r ** (2 * j),
                          math.factorial(2 * j))
    base = LaurentSeries("lambda", 0, coeffs, base_trunc)
    if g_prime == 0:
        return base.invert()
    kernel = LaurentSeries.one("lambda", lam_trunc)
    for _ in range(g_prime - 1):
        kernel = kernel * base
    return kernel


def test_cover_kernel_matches_direct_powers():
    _cover_kernel.cache_clear()
    for lam_trunc in (18, 25):
        for r in range(1, 6):
            for g_prime in range(0, 11):
                got = _cover_kernel(r, g_prime, lam_trunc)
                want = direct_kernel(r, g_prime, lam_trunc)
                assert got.trunc_order >= lam_trunc
                for e in range(-2, lam_trunc + 1):
                    assert got.coefficient(e) == want.coefficient(e), \
                        (r, g_prime, lam_trunc, e)


# -- gw_to_gv ----------------------------------------------------------

def test_round_trip_specific():
    gv = GvTable({(0, 1): F(1), (1, 2): F(3), (2, 5): F(-7)}, 3, 10)
    gw = gv_to_gw(gv, 3, 10)
    back = gw_to_gv(gw, 3, 10)
    assert back.entries == gv.entries


def test_inverse_of_elliptic_covers():
    entries = {(1, d): F(1, d) for d in range(1, 9)}
    gw = GwTable(entries, 3, 8)
    gv = gw_to_gv(gw, 3, 8)
    assert gv.entries == {(1, 1): F(1)}


def test_zero_round_trip():
    assert gw_to_gv(GwTable({}, 4, 6), 4, 6).entries == {}


def test_round_trip_random_tables():
    rng = random.Random(20240811)
    for _ in range(100):
        gv = rand_gv(rng, 6, 8)
        gw = gv_to_gw(gv, 6, 8)
        back = gw_to_gv(gw, 6, 8)
        assert back.entries == gv.entries


def test_round_trip_paper_window_with_boundary_cell():
    # every cell g <= floor(B(d)), d <= 20, extremal values where B(d) is an
    # integer, so the equality case (51, 20) = 175 goes through the kernel
    rng = random.Random(51)
    entries = {}
    for d in range(1, 21):
        top = math.floor(bps_threshold(d))
        for g in range(top + 1):
            if g == top and d % 5 == 0:
                entries[(g, d)] = F(extremal_gv(d // 5))
            else:
                entries[(g, d)] = F(rng.choice([-9, -5, -2, -1, 1, 3, 4, 7]))
    assert entries[(51, 20)] == 175
    gv = GvTable(entries, 53, 20)
    back = gw_to_gv(gv_to_gw(gv, 53, 20), 53, 20)
    assert back.entries == gv.entries
    assert integrality_check(back) == []


# -- integrality -------------------------------------------------------

def test_integrality_check():
    assert integrality_check(GvTable({(0, 1): F(1)}, 1, 1)) == []
    bad = integrality_check(GvTable({(0, 1): F(1, 2)}, 1, 1))
    assert bad == [(((0, 1)), F(1, 2))]
    rng = random.Random(4)
    gv = rand_gv(rng, 4, 6)
    back = gw_to_gv(gv_to_gw(gv, 4, 6), 4, 6)
    assert integrality_check(back) == []


# -- connected PT series -----------------------------------------------

def test_rational_degree_one_block():
    gv = GvTable({(0, 1): F(1)}, 0, 1)
    Fp = gv_to_pt_connected(gv, 1, (-5, 6))
    block = Fp.per_degree[1]
    # -(-q)/(1-(-q))^2 = q - 2q^2 + 3q^3 - 4q^4 + ...
    for m in range(1, 7):
        assert block.coefficient(m) == F((-1) ** (m + 1) * m)
    assert block.coefficient(0) == 0 and block.coefficient(-3) == 0


def test_single_entry_leading_law():
    # leading exponent r(1-g), leading coefficient c * (-1)^(g-1) as a
    # coefficient of (-q)-powers, second coefficient factor 2(1-g).
    c = F(3)
    for g in range(0, 6):
        for r in range(1, 5):
            d_prime = 3
            gv = GvTable({(g, d_prime): c}, max(g, 0), d_prime * r)
            Fp = gv_to_pt_connected(gv, d_prime * r, (-40, 40))
            block = Fp.per_degree[d_prime * r]
            lead_u = r * (1 - g) if g >= 1 else r
            sign = lambda e: 1 if e % 2 == 0 else -1
            lead_coeff_u = c * F(1 if (g - 1) % 2 == 0 else -1, r)
            assert block.coefficient(lead_u) == lead_coeff_u * sign(lead_u)
            for e in range(block.min_exp, lead_u):
                assert block.coefficient(e) == 0
            second_u = lead_u + r
            second_coeff_u = lead_coeff_u * 2 * (1 - g)
            assert block.coefficient(second_u) == second_coeff_u * sign(second_u)


def test_empty_gv_gives_zero_connected():
    Fp = gv_to_pt_connected(GvTable({}, 2, 3), 3, (-5, 5))
    assert all(layer.is_zero for layer in Fp.per_degree)


def test_window_clipping_is_an_error():
    gv = GvTable({(3, 1): F(1)}, 3, 2)  # leading exponent 1-3 = -2 at r=1
    with pytest.raises(WindowError):
        gv_to_pt_connected(gv, 1, (-1, 5))
    gv_to_pt_connected(gv, 1, (-2, 5))  # exactly wide enough


# -- exp/log table conversions ------------------------------------------

def test_pt_table_from_zero_connected():
    Fp = BivariateSeries([LaurentSeries.zero("q", 5)] * 3)
    pt = pt_connected_to_table(Fp)
    assert pt.entries == {}


def test_single_connected_entry_exponentiates():
    layers = [LaurentSeries.zero("q", 8),
              LaurentSeries.monomial("q", 1, 5, 8),
              LaurentSeries.zero("q", 8)]
    pt = pt_connected_to_table(BivariateSeries(layers))
    assert pt.value(1, 1) == 5
    assert pt.value(2, 2) == F(25, 2)


def test_log_of_a_table_whose_window_ends_below_zero():
    # F_1 = q^-1 on [-1, 0] exponentiates to a table on the window [-2, -1]
    layers = [LaurentSeries.zero("q", 0), LaurentSeries("q", -1, [1, 0], 0),
              LaurentSeries.zero("q", 0)]
    pt = pt_connected_to_table(BivariateSeries(layers))
    assert pt.q_window == (-2, -1)
    assert pt.value(-2, 2) == F(1, 2)
    back = pt_table_to_connected(pt)
    assert back.per_degree[1] == LaurentSeries("q", -1, [1], -1)
    assert back.per_degree[2] == LaurentSeries.zero("q", -2)


def test_table_series_round_trip():
    rng = random.Random(99)
    for _ in range(10):
        entries = {}
        for d in range(1, 4):
            for n in range(0, 7):
                if rng.random() < 0.4:
                    v = rng.randint(-6, 6)
                    if v:
                        entries[(n, d)] = F(v)
        pt = PtTable(entries, 3, (0, 6))
        back = pt_connected_to_table(pt_table_to_connected(pt))
        assert back.entries == pt.entries
        assert back.q_window[1] == 6


# -- DT convolution ------------------------------------------------------

def test_dt_identity_convolution():
    pt = PtTable({(0, 1): F(2), (3, 2): F(-1)}, 2, (-2, 8))
    dt0 = LaurentSeries.one("q", 10)
    dt = pt_to_dt(pt, dt0)
    assert dt.entries == pt.entries


def test_dt_hand_convolution():
    pt = PtTable({(0, 1): F(2), (1, 1): F(3)}, 1, (0, 4))
    dt0 = LaurentSeries("q", 0, [1, 1, 0, 0, 0], 4)
    dt = pt_to_dt(pt, dt0)
    assert dt.value(0, 1) == 2
    assert dt.value(1, 1) == 5
    assert dt.value(2, 1) == 3


def test_dt_bottom_coefficient_matches_pt():
    # with vanishing below 1 - B(d), the bottom DT and PT entries agree
    for d in (5, 10):
        n0 = 1 - int(bps_threshold(d))
        entries = {(n0, d): F(7), (n0 + 1, d): F(2)}
        pt = PtTable(entries, d, (n0 - 3, 5))
        dt0 = LaurentSeries("q", 0, [1, 4, -2] + [0] * 20, 22)
        dt = pt_to_dt(pt, dt0)
        assert dt.value(n0, d) == pt.value(n0, d)


def test_dt_convolution_linear_in_table():
    rng = random.Random(123)
    dt0 = LaurentSeries("q", 0, [1, 2, -1, 3, 0, 0, 0, 0, 0], 8)
    a = {(n, d): F(rng.randint(-5, 5)) for n in range(4) for d in (1, 2)}
    b = {(n, d): F(rng.randint(-5, 5)) for n in range(4) for d in (1, 2)}
    both = {k: a.get(k, F(0)) + b.get(k, F(0)) for k in set(a) | set(b)}
    win = (0, 4)
    dt_a = pt_to_dt(PtTable(a, 2, win), dt0)
    dt_b = pt_to_dt(PtTable(b, 2, win), dt0)
    dt_sum = pt_to_dt(PtTable(both, 2, win), dt0)
    for key in set(dt_a.entries) | set(dt_b.entries) | set(dt_sum.entries):
        assert dt_sum.entries.get(key, F(0)) == \
            dt_a.entries.get(key, F(0)) + dt_b.entries.get(key, F(0))


def test_dt_rejects_bad_dt0():
    pt = PtTable({(0, 1): F(1)}, 1, (0, 3))
    with pytest.raises(ValueError):
        pt_to_dt(pt, LaurentSeries("q", -1, [1, 1, 0, 0, 0], 3))
    with pytest.raises(ValueError):
        pt_to_dt(pt, LaurentSeries("q", 0, [2, 0], 1))


# -- Castelnuovo vanishing ------------------------------------------------

def test_gv_vanishing_rule():
    gv = GvTable({(7, 5): F(4), (6, 5): F(10)}, 9, 6)
    flagged, report = apply_castelnuovo_vanishing(gv)
    assert flagged.castelnuovo_valid
    assert flagged.entries == {(6, 5): F(10)}  # B(5) = 6 keeps genus 6
    assert report.removed == (((7, 5), F(4)),)


def test_pt_vanishing_rule():
    # 1 - B(20) = -50: n = -51 is below threshold at d = 20 and at d = 19
    pt = PtTable({(-51, 20): F(1), (-51, 19): F(2), (-50, 20): F(175)},
                 20, (-60, 0))
    flagged, report = apply_castelnuovo_vanishing(pt)
    assert flagged.entries == {(-50, 20): F(175)}
    assert [k for k, _ in report.removed] == [(-51, 19), (-51, 20)]
    assert 1 - bps_threshold(19) == F(-228, 5)  # -45.6 > -51


def test_vanishing_clean_table():
    gv = GvTable({(0, 1): F(1)}, 0, 1)
    flagged, report = apply_castelnuovo_vanishing(gv)
    assert report.clean and flagged.entries == gv.entries


def test_vanishing_rejects_gw_tables():
    with pytest.raises(TypeError):
        apply_castelnuovo_vanishing(GwTable({(9, 1): F(1)}, 9, 1))


# -- connected vanishing check -------------------------------------------

def rand_castelnuovo_gv(rng: random.Random, d_max: int) -> GvTable:
    entries = {}
    g_top = int(bps_threshold(d_max))
    for d in range(1, d_max + 1):
        for g in range(0, g_top + 1):
            if g <= bps_threshold(d) and rng.random() < 0.35:
                v = rng.randint(-5, 5)
                if v:
                    entries[(g, d)] = F(v)
    return GvTable(entries, g_top, d_max, castelnuovo_valid=True)


def test_connected_vanishing_for_supported_tables():
    rng = random.Random(17)
    for _ in range(5):
        gv = rand_castelnuovo_gv(rng, 6)
        Fp = gv_to_pt_connected(gv, 6, (-40, 3))
        assert connected_vanishing_check(Fp) == []


def test_connected_vanishing_detects_injection():
    layers = [LaurentSeries.zero("q", 0) for _ in range(21)]
    layers[20] = LaurentSeries.monomial("q", -52, 1, 0)
    bad = connected_vanishing_check(BivariateSeries(layers))
    assert bad == [(20, -52, F(1))]  # 1 - B(20) = -50


def test_connected_vanishing_zero_series():
    Fp = BivariateSeries([LaurentSeries.zero("q", 4)] * 4)
    assert connected_vanishing_check(Fp) == []


def test_extremal_value_flows_to_dt_bottom():
    # the threshold-genus value 175 at (g, d) = (51, 20) survives vanishing,
    # lands as the q^{-50} t^20 coefficient of the connected series, and is
    # the bottom entry of both the PT and DT tables.
    from curvecount.bounds import extremal_gv

    top = F(extremal_gv(4))
    assert top == 175
    entries = {(51, 20): top, (0, 1): F(2875), (1, 3): F(7), (6, 5): F(10)}
    gv = GvTable(entries, 51, 20)
    flagged, report = apply_castelnuovo_vanishing(gv)
    assert report.clean  # 51 = B(20) sits on the boundary, not above it
    Fp = gv_to_pt_connected(flagged, 20, (-50, 2))
    assert connected_vanishing_check(Fp) == []
    assert Fp.per_degree[20].min_exp == -50
    assert Fp.per_degree[20].coefficient(-50) == top
    pt = pt_connected_to_table(Fp)
    assert pt.value(-50, 20) == top
    dt0 = LaurentSeries("q", 0, [1] + [F(k % 3) for k in range(1, 56)], 55)
    dt = pt_to_dt(pt, dt0)
    assert dt.value(-50, 20) == top
