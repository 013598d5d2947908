"""Tilt-stability numerics: slopes, discriminants, walls, destabilizers.

Chern characters are H-normalized (c_i = H^(3-i) ch_i / H^3) on a
Picard-rank-one 3-fold of degree n and index i.  Slope equality of two
classes v, w in the (b, a) half-plane reduces to

    (A/2)(a^2 + b^2) - C b + B = 0,
    A = c1(v) c0(w) - c1(w) c0(v),
    B = c2(v) c1(w) - c2(w) c1(v),
    C = c2(v) c0(w) - c2(w) c0(v),

a semicircle centered at C/A with radius^2 = (C/A)^2 - 2B/A when A != 0, a
vertical line b = B/C when A = 0 != C, and everything/nothing when A = C = 0.
Walls are stored by (center, radius^2) because the radius itself is usually
irrational; every comparison against a square root is performed by exact
integer sign analysis and squaring, never in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bounds import KIND_QUINTIC, ThreefoldProfile, _genus_bound

__all__ = [
    "ChernCharacter",
    "WallLocus",
    "DestabilizerCandidate",
    "ExtremalWallReport",
    "twist",
    "slope_tilt",
    "discriminant",
    "bg_quadratic",
    "genus_bound_from_Q",
    "quintic_domain_check",
    "numerical_wall",
    "ideal_wall_circle",
    "enumerate_destabilizers",
    "rank_bound_check",
    "genus_decomposition",
    "extremal_wall_analysis",
    "walls_nested_or_disjoint",
    "apex_on_slope_zero_locus",
]

INFINITE_SLOPE = math.inf


@dataclass(frozen=True)
class ChernCharacter:
    """H-normalized truncated Chern character with its ambient profile."""

    profile: ThreefoldProfile
    c0: Fraction
    c1: Fraction
    c2: Fraction
    c3: Fraction

    def __init__(self, profile, c0, c1, c2, c3):
        for name, v in (("c0", c0), ("c1", c1), ("c2", c2), ("c3", c3)):
            object.__setattr__(self, name, Fraction(v))
        object.__setattr__(self, "profile", profile)

    @classmethod
    def ideal_sheaf(cls, profile: ThreefoldProfile, d: int,
                    g: Fraction | int) -> ChernCharacter:
        """Ideal sheaf of a degree-d genus-g curve: (1, 0, -d/n, (g-1+(i/2)d)/n)."""
        n, i = profile.degree, profile.index
        return cls(profile, 1, 0, Fraction(-d, n),
                   (Fraction(g) - 1 + Fraction(i, 2) * d) / n)

    def genus(self) -> Fraction:
        """Inverts the ideal-sheaf constructor: g = n c3 + 1 + (i n / 2) c2."""
        n, i = self.profile.degree, self.profile.index
        return n * self.c3 + 1 + Fraction(i * n, 2) * self.c2

    def twist(self, b: Fraction | int) -> ChernCharacter:
        b = Fraction(b)
        return ChernCharacter(
            self.profile,
            self.c0,
            self.c1 - b * self.c0,
            self.c2 - b * self.c1 + b * b / 2 * self.c0,
            self.c3 - b * self.c2 + b * b / 2 * self.c1 - b ** 3 / 6 * self.c0)

    def _check_profile(self, other: ChernCharacter) -> None:
        if self.profile != other.profile:
            raise ValueError("Chern characters live on different 3-folds")


def twist(ch: ChernCharacter, b) -> ChernCharacter:
    return ch.twist(b)


def slope_tilt(ch: ChernCharacter, a: Fraction | int, b: Fraction | int):
    """mu_{a,b} = (c2^b - a^2 c0 / 2) / c1^b, or +inf when c1^b <= 0."""
    a = Fraction(a)
    if a <= 0:
        raise ValueError("a must be positive")
    t = ch.twist(b)
    if t.c1 <= 0:
        return INFINITE_SLOPE
    return (t.c2 - a * a / 2 * t.c0) / t.c1


def discriminant(ch: ChernCharacter) -> Fraction:
    """Twist-invariant c1^2 - 2 c0 c2 (the classical quadratic form per H^6)."""
    return ch.c1 ** 2 - 2 * ch.c0 * ch.c2


def quintic_domain_check(a: Fraction | int, b: Fraction | int) -> bool:
    """Closed admissible region a^2 >= (b - floor b)(floor b + 1 - b)."""
    a, b = Fraction(a), Fraction(b)
    fb = math.floor(b)
    return a * a >= (b - fb) * (fb + 1 - b)


def bg_quadratic(ch: ChernCharacter, a: Fraction | int,
                 b: Fraction | int) -> Fraction:
    """a^2 (c1^2 - 2 c0 c2) + 4 (c2^b)^2 - 6 c1^b c3^b (per (H^3)^2 scale).

    a = 0 is permitted here (closure of the admissible region by continuity);
    nonnegativity is the semistability obstruction.
    """
    a = Fraction(a)
    t = ch.twist(b)
    return a * a * discriminant(ch) + 4 * t.c2 ** 2 - 6 * t.c1 * t.c3


def genus_bound_from_Q(profile: ThreefoldProfile, d: int, a, b) -> Fraction:
    """Exact genus threshold where the quadratic vanishes on an ideal sheaf.

    The quadratic is affine in g with negative g-coefficient for b < 0, so
    nonnegativity is exactly g <= threshold.
    """
    a, b = Fraction(a), Fraction(b)
    if b >= 0:
        raise ValueError("the g-coefficient is negative only for b < 0")
    if profile.kind == KIND_QUINTIC and not quintic_domain_check(a, b):
        raise ValueError(f"(a,b)=({a},{b}) outside the quintic admissible region")
    q0 = bg_quadratic(ChernCharacter.ideal_sheaf(profile, d, 0), a, b)
    q1 = bg_quadratic(ChernCharacter.ideal_sheaf(profile, d, 1), a, b)
    return q0 / (q0 - q1)


@dataclass(frozen=True)
class WallLocus:
    """Numerical wall: vertical line, semicircle, empty, or everywhere."""

    kind: str
    b: Fraction | None = None
    center_b: Fraction | None = None
    radius_sq: Fraction | None = None

    VERTICAL = "vertical"
    SEMICIRCLE = "semicircle"
    EMPTY = "empty"
    EVERYWHERE = "everywhere"

    @classmethod
    def vertical(cls, b) -> WallLocus:
        return cls(cls.VERTICAL, b=Fraction(b))

    @classmethod
    def semicircle(cls, center_b, radius_sq) -> WallLocus:
        radius_sq = Fraction(radius_sq)
        if radius_sq <= 0:
            raise ValueError("semicircle needs radius_sq > 0")
        return cls(cls.SEMICIRCLE, center_b=Fraction(center_b),
                   radius_sq=radius_sq)

    @classmethod
    def empty(cls) -> WallLocus:
        return cls(cls.EMPTY)

    @classmethod
    def everywhere(cls) -> WallLocus:
        return cls(cls.EVERYWHERE)


def numerical_wall(v: ChernCharacter, w: ChernCharacter) -> WallLocus:
    """Locus of tilt-slope equality of v and w in the (b, a > 0) half-plane."""
    v._check_profile(w)
    A = v.c1 * w.c0 - w.c1 * v.c0
    B = v.c2 * w.c1 - w.c2 * v.c1
    C = v.c2 * w.c0 - w.c2 * v.c0
    if A != 0:
        center = C / A
        radius_sq = center * center - 2 * B / A
        if radius_sq <= 0:
            return WallLocus.empty()
        return WallLocus.semicircle(center, radius_sq)
    if C != 0:
        return WallLocus.vertical(B / C)
    return WallLocus.everywhere() if B == 0 else WallLocus.empty()


def ideal_wall_circle(n: int, d: int, k: int, d1: int) -> WallLocus:
    """Wall of I_C against the twisted ideal class (1, -k, k^2/2 - d1/n).

    Semicircle with center -((d-d1)/(kn) + k/2) and radius^2 = center^2 - 2d/n;
    empty when the radius square is nonpositive.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    half = Fraction(d - d1, k * n) + Fraction(k, 2)
    radius_sq = half * half - Fraction(2 * d, n)
    if radius_sq <= 0:
        return WallLocus.empty()
    return WallLocus.semicircle(-half, radius_sq)


@dataclass(frozen=True)
class DestabilizerCandidate:
    """Numerically allowed rank-one destabilizer I_{C1}(-kH) of an ideal sheaf."""

    k: int
    d1: int
    wall: WallLocus


def enumerate_destabilizers(n: int, d: int,
                            b: Fraction | int) -> list[DestabilizerCandidate]:
    """All (k, d1) allowed at tilt parameter b with -sqrt(d/n) <= b < 0.

    Constraints: ceil(b) <= -k <= -1, 1 <= d1 < d - k^2 n / 2, and
    d1 < d + k^2 n / 2 - k sqrt(2nd).  The range of b gives k^2 <= d/n,
    and then the third implies the second.  The third is decided
    exactly by squaring: with M := 2(d - d1) + k^2 n, > 0 as d1 <= d, it
    reads M^2 > 8 n d k^2.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    b = Fraction(b)
    if b >= 0 or n * b * b > d:
        raise ValueError(f"b={b} outside [-sqrt(d/n), 0)")
    out: list[DestabilizerCandidate] = []
    k_top = -math.ceil(b)
    for k in range(1, k_top + 1):
        for d1 in range(1, d + 1):
            M = 2 * (d - d1) + k * k * n
            if M * M <= 8 * n * d * k * k:
                break
            out.append(DestabilizerCandidate(k, d1, ideal_wall_circle(n, d, k, d1)))
    return out


def rank_bound_check(n: int, d: int, wall: WallLocus, *,
                     torsion_m: int | None = None,
                     b: Fraction | int | None = None) -> int | None:
    """Maximal destabilizer rank the radius/range criteria permit, else None.

    Ideal-sheaf case (default): a semicircle wall with radius^2 > d/(4n)
    meeting b in [-sqrt(d/n), 0) forces rank <= 1.  Torsion case (torsion_m
    given, class (0, m, -d/n - m/2)): rank 0 for b >= -d/(nm), rank <= 1 for
    -d/(nm) - m/4 <= b < -d/(nm).
    """
    if torsion_m is not None:
        if b is None:
            raise ValueError("the torsion case needs the tilt parameter b")
        b = Fraction(b)
        edge = Fraction(-d, n * torsion_m)
        if b >= edge:
            return 0
        if b >= edge - Fraction(torsion_m, 4):
            return 1
        return None
    if wall.kind != WallLocus.SEMICIRCLE:
        return None
    rho_d_sq = Fraction(d, 4 * n)
    if wall.radius_sq > rho_d_sq:
        # consistency: an ideal-sheaf wall has apex on the slope-zero locus
        if wall.center_b ** 2 - wall.radius_sq != Fraction(2 * d, n):
            raise ValueError("wall is not a wall for the ideal-sheaf class")
        return 1
    return None


def genus_decomposition(g1: int, g2: int, k: int, d1: int) -> int:
    """Genus of a curve split across a degree-k hypersurface: g1 + g2 + k d1 - 1."""
    return g1 + g2 + k * d1 - 1


def walls_nested_or_disjoint(w1: WallLocus, w2: WallLocus) -> bool:
    """True when two semicircles do not cross (tangency counts as nested).

    Crossing requires |r1 - r2| < |c1 - c2| < r1 + r2; both comparisons are
    decided via squares of the radii only.
    """
    if w1.kind != WallLocus.SEMICIRCLE or w2.kind != WallLocus.SEMICIRCLE:
        raise ValueError("nesting is defined for semicircle walls")
    D = (w1.center_b - w2.center_b) ** 2
    S = w1.radius_sq + w2.radius_sq
    four_r2 = 4 * w1.radius_sq * w2.radius_sq
    disjoint = D - S >= 0 and (D - S) ** 2 >= four_r2
    nested = S - D >= 0 and (S - D) ** 2 >= four_r2
    return disjoint or nested


def apex_on_slope_zero_locus(v: ChernCharacter, wall: WallLocus) -> bool:
    """Apex law: the top of a semicircle wall sits where v's slope vanishes.

    For c0 != 0 that locus is the hyperbola c2 - b c1 + (b^2 - a^2) c0/2 = 0
    evaluated at (a^2, b) = (radius_sq, center_b); for c0 = 0 it is the ray
    b = c2/c1.
    """
    if wall.kind != WallLocus.SEMICIRCLE:
        raise ValueError("apex law applies to semicircle walls")
    if v.c0 != 0:
        val = v.c2 - wall.center_b * v.c1 + \
            (wall.center_b ** 2 - wall.radius_sq) / 2 * v.c0
        return val == 0
    if v.c1 == 0:
        raise ValueError("no slope-zero locus for c0 = c1 = 0")
    return wall.center_b == v.c2 / v.c1


@dataclass(frozen=True)
class ExtremalWallReport:
    """Tangent-wall analysis for the maximal-genus torsion class on P^3."""

    n: int
    d: int
    tangent_center: Fraction
    tangent_radius_sq: Fraction
    x: Fraction
    y: Fraction
    x_integral: bool
    extremal_genus: Fraction
    genus_integral: bool

    @property
    def classification_applies(self) -> bool:
        return self.x_integral and self.genus_integral


def extremal_wall_analysis(n: int, d: int) -> ExtremalWallReport:
    """Solve the rank-one wall constraints for I_{C/D} on P^3 exactly.

    The torsion class (0, n, -d - n^2/2) admits a unique wall tangent to the
    line b = -d/n, centered at -d/n - n/2 with radius n/2.  The rank-one
    subobject constraints force (x, y) = (-d/n, d^2/(2n^2)); the wall exists
    as an actual destabilizer only when x is an integer, i.e. n | d, in which
    case the extremal genus d^2/(2n) + ((n-4)/2)d + 1 is an integer too.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    center = Fraction(-d, n) - Fraction(n, 2)
    radius_sq = Fraction(n * n, 4)

    # slope-vanishing constraint at the apex fixes y as a function of x
    def y_of(x: Fraction) -> Fraction:
        return -((Fraction(d, n) + Fraction(n, 2)) * x
                 + Fraction(d * d, 2 * n * n) + Fraction(d, 2))

    # the two discriminant constraints, y eliminated
    def ineq_sub(x: Fraction) -> Fraction:          # Delta(subobject) >= 0
        return x * x - 2 * y_of(x)

    def ineq_quot(x: Fraction) -> Fraction:         # Delta(quotient) >= 0
        return (n - x) ** 2 - 2 * (d + Fraction(n * n, 2) + y_of(x))

    # both factor through u = x + d/n as u(u + n) and u(u - n): verify the
    # quadratic identities at three sample points, which pins them exactly.
    for s in (Fraction(0), Fraction(1), Fraction(-1)):
        u = s + Fraction(d, n)
        if ineq_sub(s) != u * (u + n) or ineq_quot(s) != u * (u - n):
            raise AssertionError("discriminant constraints failed to factor")
    # on the open strip |x + d/n| < n/2 both products are nonnegative only
    # at u = 0, so the unique rank-one solution is:
    x = Fraction(-d, n)
    y = y_of(x)

    # cross-checks through independent wall routines
    v = ChernCharacter(ThreefoldProfile.general(1, 4), 0, n,
                       Fraction(-d) - Fraction(n * n, 2), 0)
    wall = WallLocus.semicircle(center, radius_sq)
    if not apex_on_slope_zero_locus(v, wall):
        raise AssertionError("tangent wall violates the apex law")
    if numerical_wall(v, ChernCharacter(v.profile, 1, x, y, 0)) != wall:
        raise AssertionError("solved subobject does not induce the tangent wall")

    genus = _genus_bound(1, 4, n, d)  # a degree-n surface in P^3
    return ExtremalWallReport(
        n, d, center, radius_sq, x, y, x.denominator == 1, genus,
        genus.denominator == 1)
