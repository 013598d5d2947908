"""Wall geometry, destabilizer enumeration, and quadratic genus bounds."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest

from curvecount.bounds import ThreefoldProfile
from curvecount.svg import render_candidates_svg
from curvecount.walls import (
    ChernCharacter,
    WallLocus,
    apex_on_slope_zero_locus,
    bg_quadratic,
    discriminant,
    enumerate_destabilizers,
    extremal_wall_analysis,
    genus_bound_from_Q,
    genus_decomposition,
    ideal_wall_circle,
    numerical_wall,
    quintic_domain_check,
    rank_bound_check,
    slope_tilt,
    twist,
    walls_nested_or_disjoint,
)

F = Fraction
QUINTIC = ThreefoldProfile.quintic()
P3 = ThreefoldProfile.general(1, 4)


def rand_ch(rng: random.Random, profile=QUINTIC) -> ChernCharacter:
    q = lambda: F(rng.randint(-8, 8), rng.randint(1, 4))
    return ChernCharacter(profile, rng.randint(-3, 3), rng.randint(-3, 3), q(), q())


# -- twist ---------------------------------------------------------------

def test_twist_identity_and_group_law():
    rng = random.Random(1)
    for _ in range(30):
        ch = rand_ch(rng)
        b = F(rng.randint(-6, 6), rng.randint(1, 4))
        assert twist(ch, 0) == ch
        assert twist(twist(ch, b), -b) == ch


def test_twist_ideal_sheaf_values():
    ch = ChernCharacter.ideal_sheaf(QUINTIC, 5, 0)
    t = twist(ch, -1)
    assert t.c1 == 1
    assert t.c2 == F(1, 2) - F(5, 5)  # 1/2 - d/5 at d = 5


# -- slope ---------------------------------------------------------------

def test_slope_values():
    ch = ChernCharacter.ideal_sheaf(QUINTIC, 5, 0)
    assert slope_tilt(ch, 1, -1) == -1
    line = ChernCharacter(QUINTIC, 0, 0, 1, 0)
    assert slope_tilt(line, 1, 0) == math.inf
    # negative c1^b also lands in the infinite-slope branch
    neg = ChernCharacter(QUINTIC, 1, -2, 0, 0)
    assert slope_tilt(neg, 1, 0) == math.inf
    rng = random.Random(2)
    for _ in range(20):
        c = rand_ch(rng)
        mu = slope_tilt(c, 2, F(-1, 2))
        scaled = ChernCharacter(QUINTIC, 3 * c.c0, 3 * c.c1, 3 * c.c2, 3 * c.c3)
        assert slope_tilt(scaled, 2, F(-1, 2)) == mu
    with pytest.raises(ValueError):
        slope_tilt(ch, 0, -1)


# -- discriminant --------------------------------------------------------

def test_discriminant_values_and_twist_invariance():
    assert discriminant(ChernCharacter.ideal_sheaf(QUINTIC, 20, 0)) == 8
    k = 3
    line_bundle = ChernCharacter(QUINTIC, 1, -k, F(k * k, 2), -F(k ** 3, 6))
    assert discriminant(line_bundle) == 0
    rng = random.Random(3)
    for _ in range(100):
        ch = rand_ch(rng)
        b = F(rng.randint(-9, 9), rng.randint(1, 5))
        assert discriminant(twist(ch, b)) == discriminant(ch)


# -- generalized quadratic -------------------------------------------------

def test_bg_quadratic_structure_sheaf():
    o_x = ChernCharacter(QUINTIC, 1, 0, 0, 0)
    for b in (F(-1), F(-2), F(1, 2), F(-7, 3)):
        assert bg_quadratic(o_x, 0, b) == 0


def test_bg_quadratic_genus_thresholds():
    # Q >= 0 at (0,-1) iff g <= (2/15)d^2 + d/3 + 1; at (0,-2) the quintic
    # threshold is d^2/15 + 2d/3 + 1.
    for d in range(1, 31):
        t1 = genus_bound_from_Q(QUINTIC, d, 0, -1)
        assert t1 == F(2, 15) * d * d + F(d, 3) + 1
        t2 = genus_bound_from_Q(QUINTIC, d, 0, -2)
        assert t2 == F(d * d, 15) + F(2 * d, 3) + 1
        # generic small-degree bound at arbitrary (n, i)
        for n, i in ((1, 4), (3, 2), (5, 0)):
            prof = ThreefoldProfile.general(n, i)
            expect = F(2, 3 * n) * d * d + (F(1, 3) - F(i, 2)) * d + 1
            assert genus_bound_from_Q(prof, d, 0, -1) == expect


def test_genus_bound_examples():
    assert genus_bound_from_Q(QUINTIC, 5, 0, -1) == 6
    assert genus_bound_from_Q(QUINTIC, 20, 0, -2) == 41
    with pytest.raises(ValueError):
        genus_bound_from_Q(QUINTIC, 5, 0, 1)
    with pytest.raises(ValueError):
        genus_bound_from_Q(QUINTIC, 5, F(1, 4), F(-3, 2))


def test_quadratic_sign_matches_threshold():
    for d in (3, 7, 12):
        thr = genus_bound_from_Q(QUINTIC, d, 0, -1)
        below = ChernCharacter.ideal_sheaf(QUINTIC, d, math.floor(thr))
        above = ChernCharacter.ideal_sheaf(QUINTIC, d, math.floor(thr) + 1)
        assert bg_quadratic(below, 0, -1) >= 0
        assert bg_quadratic(above, 0, -1) < 0


def test_quintic_domain_check():
    assert quintic_domain_check(0, -1)
    assert quintic_domain_check(F(1, 2), F(-3, 2))
    assert not quintic_domain_check(F(1, 4), F(-3, 2))


# -- numerical walls -------------------------------------------------------

def test_wall_against_line_bundle_matches_circle_formula():
    v = ChernCharacter.ideal_sheaf(QUINTIC, 20, 0)
    w = ChernCharacter(QUINTIC, 1, -1, F(1, 2), -F(1, 6))  # O(-H)
    wall = numerical_wall(v, w)
    assert wall == ideal_wall_circle(5, 20, 1, 0)
    assert wall.center_b == -F(9, 2)
    assert wall.radius_sq == F(49, 4)


def test_wall_proportional_classes():
    v = ChernCharacter(QUINTIC, 1, 0, -4, F(1, 5))
    w = ChernCharacter(QUINTIC, 2, 0, -8, F(7, 5))  # 2v + c3 change
    assert numerical_wall(v, w).kind == WallLocus.EVERYWHERE


def test_vertical_wall_law():
    rng = random.Random(6)
    for _ in range(50):
        v = rand_ch(rng)
        if v.c0 == 0:
            continue
        # pick w with proportional (c0, c1) but generic c2: vertical wall
        m = rng.randint(1, 3)
        w = ChernCharacter(QUINTIC, m * v.c0, m * v.c1,
                           m * v.c2 + rng.randint(1, 5), F(0))
        wall = numerical_wall(v, w)
        assert wall.kind == WallLocus.VERTICAL
        assert wall.b == v.c1 / v.c0


def test_torsion_apex_ray_law():
    # c0 = 0: every semicircle wall is centered on the ray b = c2/c1,
    # independently of the second class.
    rng = random.Random(9)
    v = ChernCharacter(QUINTIC, 0, 3, F(-7, 2), 0)
    for _ in range(30):
        w = rand_ch(rng)
        if w.c0 == 0:
            continue
        wall = numerical_wall(v, w)
        if wall.kind == WallLocus.SEMICIRCLE:
            assert apex_on_slope_zero_locus(v, wall)
            assert wall.center_b == v.c2 / v.c1


def test_ideal_wall_circle_values():
    w = ideal_wall_circle(5, 20, 1, 5)
    assert w.center_b == -F(7, 2)
    assert w.radius_sq == F(17, 4)
    # degenerate radius: empty
    assert ideal_wall_circle(5, 20, 1, 18).kind == WallLocus.EMPTY
    # matches the general-case wall display with d2 := d - d1
    d, d1, n = 20, 5, 5
    d2 = d - d1
    assert w.center_b == -(F(d2, n) + F(1, 2))


# -- destabilizer enumeration ----------------------------------------------

def test_enumeration_at_quintic_degree_20():
    cands = enumerate_destabilizers(5, 20, -2)
    by_k: dict[int, list[int]] = {}
    for c in cands:
        by_k.setdefault(c.k, []).append(c.d1)
    assert by_k == {1: list(range(1, 9)), 2: [1]}
    for c in cands:
        assert c.wall.kind == WallLocus.SEMICIRCLE


def test_enumeration_small_degree_empty():
    assert enumerate_destabilizers(5, 4, F(-1, 2)) == []


def test_enumeration_upper_bound_strict():
    # d1 = 8 passes, d1 = 9 fails the exact sqrt comparison at (5, 20, k=1)
    d1s = [c.d1 for c in enumerate_destabilizers(5, 20, -2) if c.k == 1]
    assert 8 in d1s and 9 not in d1s


def test_enumeration_precondition():
    with pytest.raises(ValueError):
        enumerate_destabilizers(5, 20, F(-21, 10))  # below b_d = -2
    with pytest.raises(ValueError):
        enumerate_destabilizers(5, 20, 0)


def test_candidate_walls_nested_or_disjoint_and_apex():
    from curvecount.walls import walls_nested_or_disjoint
    cands = enumerate_destabilizers(5, 20, -2)
    v = ChernCharacter.ideal_sheaf(QUINTIC, 20, 0)
    walls = [c.wall for c in cands]
    for i in range(len(walls)):
        assert apex_on_slope_zero_locus(v, walls[i])
        for j in range(i + 1, len(walls)):
            assert walls_nested_or_disjoint(walls[i], walls[j])


def test_discriminant_additivity_on_candidates():
    v = ChernCharacter.ideal_sheaf(QUINTIC, 20, 0)
    for c in enumerate_destabilizers(5, 20, -2):
        sub = ChernCharacter(QUINTIC, 1, -c.k,
                             F(c.k ** 2, 2) - F(c.d1, 5), F(0))
        quot = ChernCharacter(QUINTIC, v.c0 - sub.c0, v.c1 - sub.c1,
                              v.c2 - sub.c2, F(0))
        assert discriminant(sub) + discriminant(quot) <= discriminant(v)


# -- rank bounds -----------------------------------------------------------

def test_rank_bound_ideal_case():
    # radius^2 > rho_d^2 = d/(4n) = 1 at (n, d) = (5, 20)
    big = ideal_wall_circle(5, 20, 1, 1)
    assert big.radius_sq > 1
    assert rank_bound_check(5, 20, big) == 1
    small = ideal_wall_circle(5, 20, 1, 8)  # radius^2 = 41/100 < 1
    assert rank_bound_check(5, 20, small) is None


def test_rank_bound_torsion_case():
    assert rank_bound_check(5, 20, WallLocus.empty(), torsion_m=1, b=-4) == 0
    assert rank_bound_check(5, 20, WallLocus.empty(), torsion_m=1,
                            b=F(-17, 4)) == 1
    assert rank_bound_check(5, 20, WallLocus.empty(), torsion_m=1,
                            b=-5) is None


# -- genus decomposition and the splitting estimate -------------------------

def test_genus_decomposition():
    assert genus_decomposition(0, 0, 1, 1) == 0
    assert genus_decomposition(2, 3, 1, 4) == 8


def test_decomposition_estimate_identity():
    # bound(d1) + bound(d2) + d1 - 1 == bound(d) + d1 (1 - d2/n), and the
    # correction is nonpositive once d2 >= n.
    for n in range(1, 6):
        prof = ThreefoldProfile.general(n, 5 - n)

        def bound(x):
            return F(x * x, 2 * n) + F(1 - prof.index, 2) * x + 1

        for d in range(2, 41):
            for d1 in range(1, d):
                d2 = d - d1
                lhs = bound(d1) + bound(d2) + d1 - 1
                rhs = bound(d) + d1 * (1 - F(d2, n))
                assert lhs == rhs
                if d2 >= n + 1:
                    assert lhs <= bound(d)


def test_case2_bound_dominated_by_main_bound():
    # at b = -sqrt(d/n) the quadratic bound is d sqrt(d/n) + 1 (quintic),
    # dominated by d^2/10 + d/2 + 1; exact via squaring.
    n = 5
    for d in range(1, 81):
        lhs_sq = F(d * d * d, n)  # (d sqrt(d/n))^2
        rhs = F(d * d, 2 * n) + F(d, 2)
        assert lhs_sq <= rhs * rhs


# -- extremal wall analysis --------------------------------------------------

def test_extremal_wall_quintic_20():
    rep = extremal_wall_analysis(5, 20)
    assert rep.tangent_center == -F(13, 2)
    assert rep.tangent_radius_sq == F(25, 4)
    assert rep.x == -4 and rep.y == 8
    assert rep.classification_applies
    assert rep.extremal_genus == 51


def test_extremal_wall_non_multiple():
    rep = extremal_wall_analysis(5, 19)
    assert not rep.x_integral
    assert rep.extremal_genus == F(233, 5)
    assert not rep.genus_integral
    assert not rep.classification_applies


def test_extremal_wall_plane_conic():
    rep = extremal_wall_analysis(1, 2)
    assert rep.extremal_genus == 0
    assert rep.classification_applies


def test_cross_profile_error():
    v = ChernCharacter.ideal_sheaf(QUINTIC, 5, 0)
    w = ChernCharacter.ideal_sheaf(P3, 5, 0)
    with pytest.raises(ValueError):
        numerical_wall(v, w)


def test_genus_inverts_the_ideal_sheaf_constructor():
    for profile in (QUINTIC, P3, ThreefoldProfile.general(3, 2)):
        for d, g in [(1, 0), (5, 6), (20, 51), (7, F(-3, 2))]:
            assert ChernCharacter.ideal_sheaf(profile, d, g).genus() == g


def test_svg_of_no_candidates_draws_only_the_axes():
    body = render_candidates_svg([])
    assert body.startswith("<svg") and body.endswith("</svg>\n")
    assert body.count("<line") == 2 and "<path" not in body
    assert "<text" not in body


@pytest.mark.parametrize("n, d", [(0, 20), (-5, 20), (5, 0)])
def test_enumerate_destabilizers_needs_positive_n_and_d(n, d):
    with pytest.raises(ValueError, match="^n and d must be >= 1$"):
        enumerate_destabilizers(n, d, -1)


def reference_destabilizers(n, d, b):
    """The (k, d1, centre, radius^2) lists of the loop that also breaks on
    d1 < d - k^2 n / 2 before the squared test."""
    out = []
    for k in range(1, -math.ceil(b) + 1):
        for d1 in range(1, d + 1):
            if 2 * (d - d1) <= k * k * n:
                break
            M = 2 * (d - d1) + k * k * n
            if M * M <= 8 * n * d * k * k:
                break
            wall = ideal_wall_circle(n, d, k, d1)
            out.append((k, d1, wall.center_b, wall.radius_sq))
    return out


def test_enumeration_matches_the_loop_with_both_breaks():
    # the grid holds cases with M^2 = 8ndk^2 exactly, (n, d) = (2, 4) first
    cases = 0
    for n in range(1, 6):
        for d in range(1, 21):
            for b in {F(-p, q) for q in range(1, 7) for p in range(1, 7 * q)
                      if n * p * p <= d * q * q}:
                got = [(c.k, c.d1, c.wall.center_b, c.wall.radius_sq)
                       for c in enumerate_destabilizers(n, d, b)]
                assert got == reference_destabilizers(n, d, b), (n, d, b)
                cases += 1
    assert cases > 2000


@pytest.mark.parametrize("make, message", [
    (lambda: WallLocus.semicircle(0, 0), "semicircle needs radius_sq > 0"),
    (lambda: ideal_wall_circle(5, 10, 0, 1), "k must be >= 1"),
    (lambda: rank_bound_check(5, 10, WallLocus.empty(), torsion_m=1),
     "the torsion case needs the tilt parameter b"),
    (lambda: rank_bound_check(5, 10, WallLocus.semicircle(-10, 50)),
     "wall is not a wall for the ideal-sheaf class"),
    (lambda: walls_nested_or_disjoint(WallLocus.empty(),
                                      WallLocus.semicircle(-1, 1)),
     "nesting is defined for semicircle walls"),
    (lambda: apex_on_slope_zero_locus(ChernCharacter(QUINTIC, 1, 0, 0, 0),
                                      WallLocus.vertical(1)),
     "apex law applies to semicircle walls"),
    (lambda: apex_on_slope_zero_locus(ChernCharacter(QUINTIC, 0, 0, 1, 0),
                                      WallLocus.semicircle(-1, 1)),
     "no slope-zero locus for c0 = c1 = 0"),
    (lambda: extremal_wall_analysis(0, 5), "n and d must be >= 1"),
], ids=["semicircle_radius_0", "k_0", "torsion_without_b", "non_ideal_wall",
        "nesting_non_semicircle", "apex_non_semicircle", "apex_c0_c1_zero",
        "extremal_n_0"])
def test_input_checks_name_the_problem(make, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        make()
