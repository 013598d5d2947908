from __future__ import annotations

from fractions import Fraction
from math import comb, floor

import pytest

from curvecount.bounds import (
    BoundReport,
    ThreefoldProfile,
    bound_function_properties,
    bps_threshold,
    bps_threshold_floor,
    castelnuovo_corollary_check,
    extremal_gv,
    extremal_moduli_euler,
    genus_bound_divisor,
    genus_bound_general,
    genus_bound_hypersurface,
    genus_bound_nonhyperplane,
    max_vanishing_degree,
)
from curvecount.bcov import resolution_plan
from curvecount.tables import GvTable, PtTable

F = Fraction


def test_bps_threshold_values():
    assert bps_threshold(20) == 51
    assert bps_threshold(5) == 6
    assert bps_threshold(10) == 16
    assert bps_threshold(19) == F(233, 5)
    with pytest.raises(ValueError):
        bps_threshold(0)


def test_threshold_floor_decides_both_vanishing_laws():
    """For integer g and n, g > B(d) iff g > floor(B(d)) and n < 1 - B(d) iff
    n < 1 - floor(B(d)); checked for each d <= 500 on every integer within
    12 of either edge and on -60..60, which holds the paper's windows."""
    for d in range(1, 501):
        b, top = bps_threshold(d), bps_threshold_floor(d)
        assert type(top) is int and top <= b < top + 1
        for a in {*range(-60, 61), *range(top - 12, top + 13),
                  *range(-top - 11, -top + 14)}:
            assert (a > top) == (a > b) == GvTable.forbids(a, d)
            assert (a < 1 - top) == (a < 1 - b) == PtTable.forbids(a, d)
    with pytest.raises(ValueError):
        bps_threshold_floor(0)


def test_threshold_floor_is_the_floor_of_the_threshold():
    for d in range(1, 10 ** 4 + 1):
        assert bps_threshold_floor(d) == floor(bps_threshold(d)), d
    for d in (0, -1, -10):
        with pytest.raises(ValueError, match="d must be >= 1"):
            bps_threshold_floor(d)


def test_general_bound():
    p3 = ThreefoldProfile.general(1, 4)
    assert genus_bound_general(p3, 4).bound == 3  # Hartshorne's P^3 case
    quintic = ThreefoldProfile.quintic()
    assert genus_bound_general(quintic, 20).bound == 51
    with pytest.raises(ValueError):
        genus_bound_general(quintic, 0)


def test_hypersurface_and_nonhyperplane():
    assert genus_bound_hypersurface(5, 20).bound == 51
    r = genus_bound_nonhyperplane(5, 20)
    assert r.bound == F(241, 5)
    assert r.bound_floor == 48
    for d in range(1, 51):
        assert genus_bound_hypersurface(1, d).bound == \
            genus_bound_general(ThreefoldProfile.general(1, 4), d).bound
    with pytest.raises(ValueError):
        genus_bound_hypersurface(6, 3)


def test_threshold_equals_quintic_hypersurface_bound():
    for d in range(1, 101):
        assert bps_threshold(d) == genus_bound_hypersurface(5, d).bound


def test_nonhyperplane_below_hypersurface():
    # exact gap is (d - n - 1)/n: equality at d = n+1, strict above.
    for n in range(1, 6):
        assert genus_bound_nonhyperplane(n, n + 1).bound == \
            genus_bound_hypersurface(n, n + 1).bound
        for d in range(n + 2, 101):
            assert genus_bound_nonhyperplane(n, d).bound < \
                genus_bound_hypersurface(n, d).bound


def test_divisor_bound():
    # formula value at (n=1, i=4, m=5, d=10): 100/10 + (1/2)*10 + 1 = 16
    assert genus_bound_divisor(1, 4, 5, 10).bound == 16
    for d in range(1, 51):
        assert genus_bound_divisor(5, 0, 1, d).bound == \
            genus_bound_hypersurface(5, d).bound
    assert genus_bound_divisor(1, 4, 1, 3).bound == 1  # the plane cubic
    with pytest.raises(ValueError):
        genus_bound_divisor(5, 0, 0, 3)


def test_extremal_gv_values():
    assert extremal_gv(1) == 10
    assert extremal_gv(2) == -50
    assert extremal_gv(4) == 175
    with pytest.raises(ValueError):
        extremal_gv(0)


def test_extremal_moduli_euler():
    assert extremal_moduli_euler(4) == (175, 38)
    assert extremal_moduli_euler(2) == (50, 13)
    for m in range(2, 13):
        euler, dim = extremal_moduli_euler(m)
        # independent binomial route for the Euler characteristic
        h0 = comb(m + 3, 3) - (comb(m - 2, 3) if m >= 5 else 0)
        assert euler == 5 * h0 and dim == h0 + 3
        assert (-1) ** dim * euler == extremal_gv(m)


def test_corollary_check():
    rep = castelnuovo_corollary_check(53)
    assert rep.passed
    assert rep.equalities == ((51, 20),)
    # g = 53 clears every degree through 20
    assert all(53 > bps_threshold(d) for d in range(1, 21))
    # g = 2 has an empty degree range: vacuous
    assert (2 * 2 - 2) // 5 == 0
    rep50 = castelnuovo_corollary_check(50)
    assert rep50.passed and rep50.equalities == ()
    # negative control: at g = 54 the degree range reaches 21 where the
    # threshold 55.6 exceeds the genus, a strict violation
    rep54 = castelnuovo_corollary_check(54)
    assert not rep54.passed
    assert (54, 21) in rep54.violations


def reference_corollary(g_max):
    """The direct scan: every genus g <= g_max against every degree
    1 <= d <= floor((2g-2)/5), in Fractions."""
    equalities, violations, checked = [], [], 0
    for g in range(0, g_max + 1):
        for d in range(1, (2 * g - 2) // 5 + 1):
            checked += 1
            b = bps_threshold(d)
            if g > b:
                continue
            (equalities if g == b else violations).append((g, d))
    return checked, tuple(equalities), tuple(violations)


@pytest.mark.parametrize("g_max", [0, 1, 2, 3, 4, 53, 54, 76, 400])
def test_corollary_check_matches_the_fraction_scan(g_max):
    rep = castelnuovo_corollary_check(g_max)
    assert (rep.checked, rep.equalities, rep.violations) \
        == reference_corollary(g_max)


def test_corollary_and_plan_read_one_bookkeeping():
    """At each genus the corollary's equalities are the plan's extremal
    supplements, and its equalities and violations the missing degrees."""
    rep = castelnuovo_corollary_check(400)
    for g in range(2, 401):
        plan = resolution_plan(g)
        equal = [d for h, d in rep.equalities if h == g]
        bad = [d for h, d in rep.violations if h == g]
        assert equal == [d for d, _ in plan.supplements], g
        assert sorted(equal + bad) == list(plan.missing_degrees), g


def test_bound_function_properties():
    rep = bound_function_properties(30, 30, 4)
    assert rep.passed
    assert rep.partitions_checked > 0 and rep.covers_checked > 0
    # spot values: d = 10 = 5 + 5 and the r = 2 cover of d = 10
    assert bps_threshold(10) - 1 == 15 >= 2 * (bps_threshold(5) - 1) == 10
    assert (bps_threshold(10) - 1) / 2 + 1 == F(17, 2) > bps_threshold(5)


def test_bound_function_properties_at_the_floor_check_both_halves():
    rep = bound_function_properties(2, 1, 2)
    assert rep.passed
    assert rep.partitions_checked > 0 and rep.covers_checked > 0


def test_max_vanishing_degree():
    assert max_vanishing_degree(51) == 19
    assert max_vanishing_degree(6) == 4
    assert max_vanishing_degree(1) == 0
    assert max_vanishing_degree(54) == 20
    prev = 0
    for g in range(1, 80):
        D = max_vanishing_degree(g)
        assert D >= prev
        if D:
            assert bps_threshold(D) < g
        assert bps_threshold(D + 1) >= g
        prev = D


def test_profile_validation():
    with pytest.raises(ValueError):
        ThreefoldProfile(4, 0, "quintic")
    with pytest.raises(ValueError):
        ThreefoldProfile(6, -1, "hypersurface-in-p4")
    assert ThreefoldProfile.hypersurface(3).index == 2


def test_bound_report_floor():
    r = BoundReport(7, F(233, 5))
    assert r.bound_floor == 46


@pytest.mark.parametrize("check, args, message", [
    (castelnuovo_corollary_check, (-4,), "g_max must be >= 0, got -4"),
    (bound_function_properties, (-2, 0, 0), "d_max must be >= 2, got -2"),
    (bound_function_properties, (3, 0, 2), "r_max must be >= 1, got 0"),
    (bound_function_properties, (3, 1, 1), "parts_max must be >= 2, got 1"),
], ids=["g_max", "d_max", "r_max", "parts_max"])
def test_checks_reject_an_empty_range(check, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        check(*args)


@pytest.mark.parametrize("call, message", [
    (lambda: ThreefoldProfile(0, 1), "degree must be >= 1, got 0"),
    (lambda: genus_bound_general(ThreefoldProfile.quintic(), 0),
     "d must be >= 1, got 0"),
    (lambda: genus_bound_hypersurface(0, 0), "n must be >= 1, got 0"),
    (lambda: genus_bound_hypersurface(5, -2), "d must be >= 1, got -2"),
    (lambda: genus_bound_nonhyperplane(-1, 3), "n must be >= 1, got -1"),
    (lambda: genus_bound_nonhyperplane(4, 0), "d must be >= 1, got 0"),
    (lambda: genus_bound_divisor(0, 0, 0, 0), "m must be >= 1, got 0"),
    (lambda: genus_bound_divisor(0, 0, 1, 0), "n must be >= 1, got 0"),
    (lambda: genus_bound_divisor(5, 0, 1, 0), "d must be >= 1, got 0"),
    (lambda: extremal_gv(0), "m must be >= 1, got 0"),
    (lambda: extremal_moduli_euler(1), "m must be >= 2, got 1"),
    (lambda: max_vanishing_degree(0), "g must be >= 1, got 0"),
], ids=["profile", "general", "hypersurface_n", "hypersurface_d",
        "nonhyperplane_n", "nonhyperplane_d", "divisor_m", "divisor_n",
        "divisor_d", "extremal_gv", "extremal_moduli_euler",
        "max_vanishing_degree"])
def test_range_checks_name_the_value(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_nonhyperplane_bound_needs_n_at_most_5():
    with pytest.raises(ValueError, match="^non-hyperplane bound needs n <= 5$"):
        genus_bound_nonhyperplane(6, 3)


def test_bound_function_properties_reports_each_violation(monkeypatch):
    # B(d) = 2 - 1/d: B(4) - 1 = 3/4 < 2 (B(2) - 1) = 1, and the r = 2 cover
    # of d = 4 gives (B(4) - 1)/2 + 1 = 11/8 < B(2) = 3/2
    monkeypatch.setattr("curvecount.bounds.bps_threshold", lambda d: 2 - F(1, d))
    rep = bound_function_properties(4, 4, 2)
    assert rep.superadditivity_violations == ((4, (2, 2)),)
    assert rep.cover_violations == ((4, 2),)
    assert rep.strictness_violations == ((4, 2),)
    assert not rep.passed
