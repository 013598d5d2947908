"""Closed-form genus bounds, vanishing thresholds, and extremal values.

Everything here is exact rational arithmetic: the boundary case where the
degree-20 threshold equals genus 51 is an exact equality, so no tolerance is
permitted anywhere.  Profiles describe Picard-rank-one 3-folds by degree
n = H^3 and index i (K = -iH).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

__all__ = [
    "ThreefoldProfile",
    "BoundReport",
    "bps_threshold",
    "bps_threshold_floor",
    "genus_bound_general",
    "genus_bound_hypersurface",
    "genus_bound_nonhyperplane",
    "genus_bound_divisor",
    "extremal_gv",
    "extremal_moduli_euler",
    "castelnuovo_corollary_check",
    "bound_function_properties",
    "max_vanishing_degree",
    "CorollaryReport",
    "BoundPropertyReport",
]

KIND_GENERAL = "general-bmt"
KIND_HYPERSURFACE = "hypersurface-in-p4"
KIND_QUINTIC = "quintic"


@dataclass(frozen=True)
class ThreefoldProfile:
    degree: int  # n = H^3
    index: int   # i with K_X = -iH
    kind: str = KIND_GENERAL

    def __post_init__(self):
        _at_least(degree=(self.degree, 1))
        if self.kind == KIND_QUINTIC and (self.degree, self.index) != (5, 0):
            raise ValueError("quintic profile requires n=5, i=0")
        if self.kind == KIND_HYPERSURFACE:
            if self.degree > 5 or self.index != 5 - self.degree:
                raise ValueError("hypersurface profile requires n<=5, i=5-n")

    @classmethod
    def quintic(cls) -> ThreefoldProfile:
        return cls(5, 0, KIND_QUINTIC)

    @classmethod
    def hypersurface(cls, n: int) -> ThreefoldProfile:
        return cls(n, 5 - n, KIND_HYPERSURFACE)

    @classmethod
    def general(cls, n: int, i: int) -> ThreefoldProfile:
        return cls(n, i, KIND_GENERAL)


@dataclass(frozen=True)
class BoundReport:
    d: int
    bound: Fraction

    @property
    def bound_floor(self) -> int:
        return math.floor(self.bound)


def _threshold_numerator(d: int) -> int:
    """10 B(d) = d^2 + 5d + 10, the one home of the threshold law."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return d * d + 5 * d + 10


def bps_threshold(d: int) -> Fraction:
    """B(d) = (d^2 + 5d + 10)/10, the quintic genus-vanishing threshold."""
    return Fraction(_threshold_numerator(d), 10)


def bps_threshold_floor(d: int) -> int:
    """floor(B(d)): for an integer g, g > B(d) iff g > floor(B(d)), and
    n < 1 - B(d) iff n < 1 - floor(B(d)), so the vanishing laws compare ints."""
    return _threshold_numerator(d) // 10


def _at_least(**limits: tuple[int, int]) -> None:
    """Raise ValueError for the first name=(value, low) with value < low."""
    for name, (value, low) in limits.items():
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


def _genus_bound(n: int, i: int, m: int, d: int) -> Fraction:
    """d^2/(2nm) + ((m-i)/2) d + 1, the one home of the divisor-type bounds."""
    return Fraction(d * d, 2 * n * m) + Fraction(m - i, 2) * d + 1


def genus_bound_general(profile: ThreefoldProfile, d: int) -> BoundReport:
    """d^2/(2n) + ((1-i)/2) d + 1."""
    _at_least(d=(d, 1))
    return BoundReport(d, _genus_bound(profile.degree, profile.index, 1, d))


def genus_bound_hypersurface(n: int, d: int) -> BoundReport:
    """d^2/(2n) + ((n-4)/2) d + 1, degree-n hypersurface in P^4."""
    if n > 5:
        raise ValueError("hypersurface bound needs n <= 5")
    _at_least(n=(n, 1), d=(d, 1))
    return BoundReport(d, _genus_bound(n, 5 - n, 1, d))


def genus_bound_nonhyperplane(n: int, d: int) -> BoundReport:
    """d^2/(2n) + (n/2 - 1/n - 2) d + 2 + 1/n, for curves off hyperplane sections."""
    if n > 5:
        raise ValueError("non-hyperplane bound needs n <= 5")
    _at_least(n=(n, 1), d=(d, 1))
    b = (Fraction(d * d, 2 * n)
         + (Fraction(n, 2) - Fraction(1, n) - 2) * d + 2 + Fraction(1, n))
    return BoundReport(d, b)


def genus_bound_divisor(n: int, i: int, m: int, d: int) -> BoundReport:
    """d^2/(2nm) + ((m-i)/2) d + 1, for curves on a degree-m divisor."""
    _at_least(m=(m, 1), n=(n, 1), d=(d, 1))
    return BoundReport(d, _genus_bound(n, i, m, d))


def _h0_quintic_surface(m: int) -> int:
    """h^0(D, O_D(m)) for a quintic surface D in P^3 (binomial difference)."""
    return comb(m + 3, 3) - comb(m - 2, 3)


def extremal_gv(m: int) -> int:
    """GV value at the threshold genus for degree d = 5m.

    m >= 2: sign (-1)^(C(m+3,3)-C(m-2,3)+3) times 5(C(m+3,3)-C(m-2,3)),
    with C(m-2,3) := 0 when m < 5.  m = 1 is the special value 10.
    """
    _at_least(m=(m, 1))
    if m == 1:
        return 10
    h0 = _h0_quintic_surface(m)
    return (-1) ** (h0 + 3) * 5 * h0


def extremal_moduli_euler(m: int) -> tuple[int, int]:
    """(euler, dim) of the extremal-curve moduli space at d = 5m, m >= 2.

    A projective-space bundle over P^4: euler = 5 * h^0(D, O_D(m)) and
    dim = euler/5 + 3.  Independent route: (-1)^dim * euler = extremal_gv(m).
    """
    _at_least(m=(m, 2))
    h0 = _h0_quintic_surface(m)
    return 5 * h0, h0 + 3


@dataclass(frozen=True)
class CorollaryReport:
    g_max: int
    checked: int
    equalities: tuple[tuple[int, int], ...]
    violations: tuple[tuple[int, int], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _deficit(g: int, Dg: int) -> tuple[int, int, range]:
    """(K, E, missing degrees E+1..K), K = floor((2g-2)/5), E = min(Dg, K).

    At genus g the degrees 1..K need g > B(d); with Dg = D(g) the first E
    of them have it and the missing ones have B(d) >= g.
    """
    K = (2 * g - 2) // 5
    E = min(Dg, K)
    return K, E, range(E + 1, K + 1)


def castelnuovo_corollary_check(g_max: int = 53) -> CorollaryReport:
    """Check g <= g_max: g > B(d) must hold for 1 <= d <= floor((2g-2)/5).

    Below genus 2 no degree d >= 1 is in range.  From genus 2 on, the degrees
    that ``_deficit`` leaves missing are the ones with B(d) >= g: exact
    equalities are reported apart from strict violations.  For g_max = 53 the
    single equality is (g, d) = (51, 20) and there are no strict violations.
    """
    _at_least(g_max=(g_max, 0))
    equalities: list[tuple[int, int]] = []
    violations: list[tuple[int, int]] = []
    checked = 0
    for g in range(2, g_max + 1):
        K, _, missing = _deficit(g, max_vanishing_degree(g))
        checked += K
        for d in missing:
            (equalities if bps_threshold(d) == g else violations).append((g, d))
    return CorollaryReport(g_max, checked, tuple(equalities), tuple(violations))


@dataclass(frozen=True)
class BoundPropertyReport:
    partitions_checked: int
    covers_checked: int
    superadditivity_violations: tuple = ()
    cover_violations: tuple = ()
    strictness_violations: tuple = ()

    @property
    def passed(self) -> bool:
        return not (self.superadditivity_violations or self.cover_violations
                    or self.strictness_violations)


def _partitions(total: int, parts: int, smallest: int = 1):
    if parts == 1:
        if total >= smallest:
            yield (total,)
        return
    for first in range(smallest, total // parts + 1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def bound_function_properties(d_max: int, r_max: int,
                              parts_max: int) -> BoundPropertyReport:
    """Exhaustive check of the threshold's combinatorial hypotheses.

    Superadditivity: B(sum d_i) - 1 >= sum (B(d_i) - 1) over all partitions
    with at most parts_max parts and total <= d_max.  Cover inequality:
    (B(d)-1)/r + 1 >= B(d/r) for divisors r <= r_max of d <= d_max, strict
    for r >= 2.  d_max >= 2, so that both halves check something.
    """
    _at_least(d_max=(d_max, 2), r_max=(r_max, 1), parts_max=(parts_max, 2))
    super_bad = []
    part_count = 0
    for total in range(2, d_max + 1):
        for k in range(2, parts_max + 1):
            for p in _partitions(total, k):
                part_count += 1
                lhs = bps_threshold(total) - 1
                rhs = sum(bps_threshold(di) - 1 for di in p)
                if lhs < rhs:
                    super_bad.append((total, p))
    cover_bad = []
    strict_bad = []
    cover_count = 0
    for d in range(1, d_max + 1):
        for r in range(1, min(r_max, d) + 1):
            if d % r:
                continue
            cover_count += 1
            lhs = (bps_threshold(d) - 1) / r + 1
            rhs = bps_threshold(d // r)
            if lhs < rhs:
                cover_bad.append((d, r))
            if r >= 2 and lhs <= rhs:
                strict_bad.append((d, r))
    return BoundPropertyReport(part_count, cover_count, tuple(super_bad),
                               tuple(cover_bad), tuple(strict_bad))


def max_vanishing_degree(g: int) -> int:
    """D(g) = max{d >= 1 : B(d) < g}, or 0 when no degree qualifies.

    B(d) < g is (2d+5)^2 < 40g - 15, so D(g) = (isqrt(40g-16) - 5) // 2.
    Strict inequality is forced by the (g, d) = (51, 20) boundary case:
    B(20) = 51 exactly, so D(51) = 19.
    """
    _at_least(g=(g, 1))
    return max(0, (math.isqrt(40 * g - 16) - 5) // 2)
