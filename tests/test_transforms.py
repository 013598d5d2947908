"""GW/GV/PT/DT transform laws, round-trips, and vanishing rules."""

from __future__ import annotations

import math
import random
import re
import sys
from fractions import Fraction

import pytest

from curvecount.bounds import bps_threshold, bps_threshold_floor, extremal_gv
from curvecount.series import (BivariateSeries, LaurentSeries, WindowError,
                               _numerators)
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


def two_minus_two_cos(r: int, lam_trunc: int) -> LaurentSeries:
    """2 - 2cos(r lam) = sum_{j>=1} 2 (-1)^(j+1) (r lam)^(2j) / (2j)!."""
    coeffs = [F(0)] * (lam_trunc + 1)
    for j in range(1, lam_trunc // 2 + 1):
        coeffs[2 * j] = F(2 * (-1) ** (j + 1) * r ** (2 * j),
                          math.factorial(2 * j))
    return LaurentSeries("lambda", 0, coeffs, lam_trunc)


def direct_kernel(r: int, g_prime: int, lam_trunc: int) -> LaurentSeries:
    """(2 - 2cos(r lam))^(g'-1) by repeated multiplication of the r-scaled base."""
    base = two_minus_two_cos(r, lam_trunc + (4 if g_prime == 0 else 0))
    if g_prime == 0:
        return base.invert()
    kernel = LaurentSeries.one("lambda", lam_trunc)
    for _ in range(g_prime - 1):
        kernel = kernel * base
    return kernel


def power_kernels(g_out: int) -> list[LaurentSeries]:
    """K_0 = K_2^(-1) and K_{g'} = K_2^(g'-1) for g' <= g_out by
    LaurentSeries powers, each known up to lam^(2 g_out - 2)."""
    lam_trunc = 2 * g_out - 2
    k2 = two_minus_two_cos(1, lam_trunc + 4)
    return [k2 ** -1] + [(k2 ** (gp - 1)).truncate(lam_trunc)
                         for gp in range(1, g_out + 1)]


def cell(m, g: int, g_prime: int) -> F:
    """M[g][g'] of the _cover_kernel rows m; zero above the diagonal."""
    nums, den = m[g]
    return F(nums[g_prime], den) if g_prime <= g else F(0)


def test_cover_kernel_rescales_to_every_cover():
    # [lam^(2g-2)] (2 sin(r lam/2))^(2g'-2) = r^(2g-2) M[g][g']
    for g_out in (10, 13):
        m = _cover_kernel(g_out)
        assert len(m) == g_out + 1
        for g_prime in range(0, 11):
            for r in range(1, 6):
                want = direct_kernel(r, g_prime, 2 * g_out - 2)
                for g in range(0, g_out + 1):
                    e = 2 * g - 2
                    assert want.coefficient(e) == \
                        F(r) ** e * cell(m, g, g_prime), (r, g_prime, g_out, g)


def test_cover_kernel_matches_sympy_series():
    """The integer-loop matrix against sympy's expansion, the Laurent g' = 0
    column too."""
    sympy = pytest.importorskip("sympy")
    lam = sympy.Symbol("lambda")
    g_out = 11
    m = _cover_kernel(g_out)
    for g_prime in range(0, g_out + 1):
        want = sympy.series((2 * sympy.sin(lam / 2)) ** (2 * g_prime - 2),
                            lam, 0, 2 * g_out - 1).removeO()
        for g in range(0, g_out + 1):
            c = want.coeff(lam, 2 * g - 2)
            assert cell(m, g, g_prime) == F(int(c.p), int(c.q)), (g_prime, g)


def test_cover_kernel_is_the_power_of_k2_at_the_paper_genus():
    # M[g][g'] = [lam^(2g-2)] K_2^(g'-1), the power from Miller's recurrence;
    # the g' = 0 column is K_0 with K_0 K_2 = 1
    g_out = 53
    m = _cover_kernel(g_out)
    k2 = two_minus_two_cos(1, 2 * g_out + 2)
    for g_prime in range(1, g_out + 1):
        want = k2 ** (g_prime - 1)
        for g in range(g_out + 1):
            assert cell(m, g, g_prime) == want.coefficient(2 * g - 2), \
                (g, g_prime)
    k0 = LaurentSeries.from_dict("lambda", {2 * g - 2: cell(m, g, 0)
                                            for g in range(g_out + 1)},
                                 2 * g_out - 2)
    assert k0 * k2 == LaurentSeries.one("lambda", 2 * g_out)


def test_cover_kernel_builds_a_deep_genus_on_a_cold_cache():
    # one loop, no recursion: 50 frames above the caller's are enough for
    # the 201 rows of g_out = 200
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    _cover_kernel.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        m = _cover_kernel(200)
    finally:
        sys.setrecursionlimit(limit)
    assert len(m) == 201 and cell(m, 200, 200) == 1
    m = _cover_kernel(151)
    want = two_minus_two_cos(1, 300) ** 149
    for g in range(152):
        assert cell(m, g, 150) == want.coefficient(2 * g - 2), g


def test_cover_kernel_rows_are_the_power_kernels_numerators():
    # row g is _numerators of the reference cells M[g][0..g], as tuples,
    # whatever the g_out >= g it was built for
    kernels, rows = power_kernels(60), []
    for g in range(61):
        nums, den = _numerators([k.coefficient(2 * g - 2)
                                 for k in kernels[:g + 1]])
        rows.append((tuple(nums), den))
    for g_out in range(61):
        assert _cover_kernel(g_out) == tuple(rows[:g_out + 1]), g_out


def test_cover_kernel_is_built_once_per_g_out():
    # gv_to_gw misses, gw_to_gv at the same g_out hits, one matrix is held
    gv = GvTable({(0, 1): F(2875), (1, 3): F(609250)}, 6, 3)
    _cover_kernel.cache_clear()
    gw_to_gv(gv_to_gw(gv, 6, 3), 6, 3)
    info = _cover_kernel.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def reference_gv_to_gw(gv: GvTable, g_out: int, d_out: int) -> dict:
    """The cover sum cell by cell, one direct kernel per (r, g')."""
    lam_trunc = 2 * g_out - 2
    out = {}
    for d in range(1, d_out + 1):
        for g in range(g_out + 1):
            total = F(0)
            for r in (r for r in range(1, d + 1) if d % r == 0):
                for gp in range(g + 1):
                    val = gv.entries.get((gp, d // r))
                    if val:
                        kernel = direct_kernel(r, gp, lam_trunc)
                        total += val * kernel.coefficient(2 * g - 2) / r
            if total:
                out[(g, d)] = total
    return out


def test_gv_to_gw_matches_reference_cover_sum():
    rng = random.Random(6)
    for g_max, d_max in [(0, 12), (1, 12), (3, 12), (6, 12), (6, 7)]:
        gv = rand_gv(rng, g_max, d_max)
        assert gv_to_gw(gv, g_max, d_max).entries == \
            reference_gv_to_gw(gv, g_max, d_max)


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
    gv = GvTable({(0, 1): F(1)}, 1, 1)  # g_max = floor(B(1))
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
            gv = GvTable({(g, d_prime): c},
                         max(g, bps_threshold_floor(d_prime * r)), d_prime * r)
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
    Fp = gv_to_pt_connected(GvTable({}, 3, 3), 3, (-5, 5))  # floor(B(3))
    assert all(layer.is_zero for layer in Fp.per_degree)


def test_gv_to_pt_needs_the_window_to_reach_the_threshold():
    # a genus <= 1 table vouches for every genus only at d = 1: B(2) = 2.4
    gv = GvTable({(0, 1): F(2875), (0, 2): F(609250)}, 1, 2)
    assert gv_to_pt_connected(gv, 1, (-2, 5)).per_degree[1].coefficient(1) \
        == 2875
    with pytest.raises(TruncationError,
                       match=r"g_max=1 is below floor\(B\(2\)\)=2"):
        gv_to_pt_connected(gv, 2, (-2, 5))


def test_window_clipping_is_an_error():
    gv = GvTable({(3, 1): F(1)}, 3, 2)  # leading exponent 1-3 = -2 at r=1
    with pytest.raises(WindowError):
        gv_to_pt_connected(gv, 1, (-1, 5))
    gv_to_pt_connected(gv, 1, (-2, 5))  # exactly wide enough


def test_window_error_names_the_first_clipped_contribution():
    # at d = 2 the window [-1, 5] clips (g=3, d'=2, r=1) and (g=2, d'=1, r=2),
    # both at u^-2; r runs upwards, so the error names r = 1; (0, 2) and the
    # d = 1 layer (lead -1) fit
    gv = GvTable({(0, 2): F(7, 3), (2, 1): F(1, 2), (3, 2): F(5)}, 3, 2)
    with pytest.raises(WindowError) as err:
        gv_to_pt_connected(gv, 2, (-1, 5))
    assert str(err.value) == ("q-window [-1,5] clips the leading exponent -2 "
                              "of the (g=3, d'=2, r=1) contribution")


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
    flagged, removed = apply_castelnuovo_vanishing(gv)
    assert flagged.castelnuovo_valid
    assert flagged.entries == {(6, 5): F(10)}  # B(5) = 6 keeps genus 6
    assert removed == (((7, 5), F(4)),)


def test_pt_vanishing_rule():
    # 1 - B(20) = -50: n = -51 is below threshold at d = 20 and at d = 19
    pt = PtTable({(-51, 20): F(1), (-51, 19): F(2), (-50, 20): F(175)},
                 20, (-60, 0))
    flagged, removed = apply_castelnuovo_vanishing(pt)
    assert flagged.entries == {(-50, 20): F(175)}
    assert [k for k, _ in removed] == [(-51, 19), (-51, 20)]
    assert 1 - bps_threshold(19) == F(-228, 5)  # -45.6 > -51


def test_vanishing_clean_table():
    gv = GvTable({(0, 1): F(1)}, 0, 1)
    flagged, removed = apply_castelnuovo_vanishing(gv)
    assert not removed and flagged.entries == gv.entries


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
    flagged, removed = apply_castelnuovo_vanishing(gv)
    assert not removed  # 51 = B(20) sits on the boundary, not above it
    Fp = gv_to_pt_connected(flagged, 20, (-50, 2))
    assert connected_vanishing_check(Fp) == []
    assert Fp.per_degree[20].min_exp == -50
    assert Fp.per_degree[20].coefficient(-50) == top
    pt = pt_connected_to_table(Fp)
    assert pt.value(-50, 20) == top
    dt0 = LaurentSeries("q", 0, [1] + [F(k % 3) for k in range(1, 56)], 55)
    dt = pt_to_dt(pt, dt0)
    assert dt.value(-50, 20) == top


@pytest.mark.parametrize("make, error, message", [
    (lambda: gv_to_pt_connected(GvTable({}, 3, 2), 1, (3, 2)), ValueError,
     "empty q_window"),
    (lambda: gv_to_pt_connected(GvTable({}, 3, 2), 3, (0, 4)),
     TruncationError, "d_out=3 exceeds the input window d<=2"),
    (lambda: pt_connected_to_table(BivariateSeries([LaurentSeries.zero("q", 3)])),
     ValueError, "need at least one positive t-degree"),
    (lambda: pt_to_dt(PtTable({}, 1, (0, 3)), LaurentSeries.one("x", 3)),
     ValueError, "dt0 must be a series in q"),
], ids=["gv2pt_empty_window", "gv2pt_d_out_past_window",
        "no_positive_t_degree", "dt0_not_in_q"])
def test_input_checks_name_the_problem(make, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        make()
