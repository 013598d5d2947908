"""Acceptance suite: one test per criterion, exact values, stated time caps.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS lines; any assertion failure marks the criterion FAIL.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from curvecount.bcov import (
    ConifoldFrame,
    assemble_fg,
    castelnuovo_solve,
    gap_indices,
    gap_solve,
    gap_target,
    resolution_plan,
)
from curvecount.bounds import (
    bound_function_properties,
    bps_threshold,
    bps_threshold_floor,
    castelnuovo_corollary_check,
    extremal_gv,
    extremal_moduli_euler,
    genus_bound_hypersurface,
    ThreefoldProfile,
)
from curvecount.series import LaurentSeries
from curvecount.tables import GvTable, PtTable
from curvecount.transforms import (
    connected_vanishing_check,
    gv_to_gw,
    gv_to_pt_connected,
    gw_to_gv,
    pt_to_dt,
)
from curvecount.walls import (
    ChernCharacter,
    apex_on_slope_zero_locus,
    discriminant,
    enumerate_destabilizers,
    genus_bound_from_Q,
    walls_nested_or_disjoint,
)

F = Fraction
QUINTIC = ThreefoldProfile.quintic()


def _timed(limit_s: float):
    start = time.perf_counter()

    def finish(number: int, label: str) -> None:
        elapsed = time.perf_counter() - start
        assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s"
        print(f"ACCEPTANCE {number:2d} PASS {label} ({elapsed:.2f}s)")

    return finish


def test_criterion_01_extremal_gv_values():
    done = _timed(1.0)
    assert extremal_gv(1) == 10
    assert extremal_gv(4) == 175
    for m in range(2, 13):
        euler, dim = extremal_moduli_euler(m)
        assert extremal_gv(m) == (-1) ** dim * euler
    done(1, "extremal GV values and the Euler-characteristic route agree")


def test_criterion_02_castelnuovo_corollary():
    done = _timed(1.0)
    rep = castelnuovo_corollary_check(53)
    assert rep.passed
    assert rep.equalities == ((51, 20),)
    done(2, "threshold dominates d <= (2g-2)/5 for g <= 53, equality (51,20)")


def test_criterion_03_gv_gw_round_trip():
    done = _timed(30.0)
    rng = random.Random(31337)
    for _ in range(100):
        entries = {}
        for g in range(7):
            for d in range(1, 9):
                v = rng.randint(-9, 9)
                if v and rng.random() < 0.5:
                    entries[(g, d)] = F(v)
        gv = GvTable(entries, 6, 8)
        assert gw_to_gv(gv_to_gw(gv, 6, 8), 6, 8).entries == gv.entries
    gw = gv_to_gw(GvTable({(0, 1): F(1)}, 1, 12), 1, 12)
    for d in range(1, 13):
        assert gw.value(0, d) == F(1, d ** 3)
        assert gw.value(1, d) == F(1, 12 * d)
    done(3, "100 random tables round-trip bit-exactly; cover laws to d = 12")


def test_criterion_04_pt_expansion_law():
    done = _timed(10.0)
    for g in range(0, 6):
        for r in range(1, 5):
            gv = GvTable({(g, 1): F(1)}, max(g, bps_threshold_floor(r)), r)
            Fp = gv_to_pt_connected(gv, r, (-30, 30))
            block = Fp.per_degree[r]
            pref = F(1 if (g - 1) % 2 == 0 else -1, r)
            lead, second = r * (1 - g), r * (2 - g)
            qsign = lambda e: 1 if e % 2 == 0 else -1
            assert block.coefficient(lead) == pref * qsign(lead)
            assert block.coefficient(second) == \
                pref * 2 * (1 - g) * qsign(second)
            for e in range(block.min_exp, lead):
                assert block.coefficient(e) == 0
    done(4, "leading (-q)-behavior of single-entry blocks, g <= 5, r <= 4")


def test_criterion_05_connected_vanishing():
    done = _timed(60.0)
    rng = random.Random(505)
    for _ in range(20):
        entries = {}
        g_top = 16  # floor(B(10))
        for d in range(1, 11):
            for g in range(0, g_top + 1):
                if g <= bps_threshold(d) and rng.random() < 0.3:
                    v = rng.randint(-5, 5)
                    if v:
                        entries[(g, d)] = F(v)
        gv = GvTable(entries, g_top, 10, castelnuovo_valid=True)
        Fp = gv_to_pt_connected(gv, 10, (-60, 2))
        assert connected_vanishing_check(Fp) == []
    done(5, "20 threshold-supported tables: log-series vanishes below 1-B(d)")


def test_criterion_06_dt_bottom_coefficient():
    done = _timed(10.0)
    rng = random.Random(66)
    for d in (5, 10, 15, 20):
        n0 = 1 - int(bps_threshold(d))  # integral exactly on 5Z
        entries = {(n0, d): F(rng.randint(1, 9)),
                   (n0 + 1, d): F(rng.randint(-9, 9)),
                   (n0 + 3, d): F(rng.randint(-9, 9))}
        pt = PtTable(entries, d, (n0 - 5, n0 + 10), castelnuovo_valid=True)
        for _ in range(5):
            cs = [1] + [rng.randint(-4, 4) for _ in range(20)]
            dt0 = LaurentSeries("q", 0, cs, 20)
            dt = pt_to_dt(pt, dt0)
            assert dt.value(n0, d) == pt.value(n0, d)
    done(6, "bottom DT coefficient equals bottom PT coefficient on 5Z degrees")


def test_criterion_07_wall_suite():
    done = _timed(1.0)
    cands = enumerate_destabilizers(5, 20, -2)
    assert {(c.k, c.d1) for c in cands} == \
        {(1, d1) for d1 in range(1, 9)} | {(2, 1)}
    ic = ChernCharacter.ideal_sheaf(QUINTIC, 20, 0)
    walls = [c.wall for c in cands]
    for i, w in enumerate(walls):
        assert apex_on_slope_zero_locus(ic, w)
        for w2 in walls[i + 1:]:
            assert walls_nested_or_disjoint(w, w2)
    for c in cands:
        sub = ChernCharacter(QUINTIC, 1, -c.k, F(c.k ** 2, 2) - F(c.d1, 5), 0)
        quot = ChernCharacter(QUINTIC, 0, c.k, ic.c2 - sub.c2, 0)
        assert discriminant(sub) + discriminant(quot) <= discriminant(ic)
    done(7, "destabilizer set at (5,20,-2): k=1 d1=1..8, k=2 d1=1; wall laws")


def test_criterion_08_genus_bound_formulas():
    done = _timed(10.0)
    for d in range(1, 31):
        for n, i in ((1, 4), (2, 3), (3, 2), (4, 1), (5, 0)):
            prof = ThreefoldProfile.general(n, i)
            assert genus_bound_from_Q(prof, d, 0, -1) == \
                F(2, 3 * n) * d * d + (F(1, 3) - F(i, 2)) * d + 1
        assert genus_bound_from_Q(QUINTIC, d, 0, -2) == \
            F(d * d, 15) + F(2 * d, 3) + 1
    for d in range(1, 101):
        assert bps_threshold(d) == genus_bound_hypersurface(5, d).bound
    done(8, "quadratic thresholds match the closed forms; B = hypersurface(5)")


def test_criterion_09_bound_function_hypotheses():
    done = _timed(10.0)
    rep = bound_function_properties(30, 30, 4)
    assert rep.passed
    for d in range(1, 101):
        for r in range(1, d + 1):
            if d % r:
                continue
            lhs = (bps_threshold(d) - 1) / r + 1
            assert lhs >= bps_threshold(d // r)
            if r >= 2:
                assert lhs > bps_threshold(d // r)
    done(9, "superadditivity to d = 30 (4 parts); strict cover law to d = 100")


def test_criterion_10_bcov_solver_mechanics():
    done = _timed(30.0)
    from math import comb

    rng = random.Random(1010)
    frame = ConifoldFrame.toy(30)
    for g in range(2, 7):
        for _ in range(10):  # 50 gap seeds across g = 2..6
            chosen = {i: F(rng.randint(-60, 60), rng.randint(1, 9))
                      for i in gap_indices(g)}
            assembled = assemble_fg(
                {i - (g - 1): c for i, c in chosen.items()}, frame.y_of_flat)
            target = LaurentSeries.monomial(
                "Delta", -(2 * g - 2), gap_target(g), 0)
            assert gap_solve(g, target - assembled, frame) == chosen
        for _ in range(10):  # 50 low-degree seeds across g = 2..6
            K = (2 * (g - 1)) // 5
            chosen = {g - 1 - k: F(rng.randint(-9, 9), rng.randint(1, 9))
                      for k in range(K + 1)}
            data = [sum(chosen[g - 1 - k] * comb(k, j) * F(-3125) ** j
                        for k in range(j, K + 1)) for j in range(K + 1)]
            res = castelnuovo_solve(g, LaurentSeries.zero("q", K), K, data)
            assert res.closed and res.values == chosen
    statuses = {g: resolution_plan(g).status for g in range(2, 55)}
    assert all(statuses[g] == "closed" for g in range(2, 51))
    assert statuses[51] == "conditional"
    assert resolution_plan(51).supplements == ((20, 175),)
    assert statuses[52] == "closed" and statuses[53] == "closed"
    assert statuses[54] == "open"
    done(10, "solver round-trips bit-exact; closure <=53 (51 conditional), 54 open")
