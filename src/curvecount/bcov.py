"""Holomorphic-ambiguity bookkeeping and the two closed-form solves.

For genus g >= 2 the ambiguity polynomial sum_{i=0}^{3g-3} a_i Y^i has its
coefficients pinned in three stages: regularity zeros a_i for
i <= ceil((3g-3)/5), the conifold-gap match fixes a_i for i >= g from the
coefficients of Delta^{-1}..Delta^{-(2g-2)}, and the remaining
floor((2g-2)/5) middle coefficients come from low-degree data by matching
q^0..q^E against the basis (1 - 5^5 q)^k.  Both solves are closed-form sums.
The gap match runs in s = 1/Y = delta/(1+delta), so delta = s/(1-s) and
Delta(s) is the binomial transform [s^n] Delta = sum_{k=1}^{n} C(n-1, k-1) c_k
of the supplied Delta(delta) = sum c_k delta^k, and with w = 2g-2 and the
principal part R(Delta) = sum_{j=1}^{w} r_j Delta^{-j} = P(Delta) Delta^{-w}
that the gap prescribes, a_{i+g-1} = [s^{-i}] R(Delta(s)).  The middle
match is the binomial inversion
a_{g-1-k} = sum_{j=k}^{K} (-1)^{j-k} C(j,k) t_j / (-5^5)^j of the data t_j.
The gap solve reads Delta(delta) through delta^{2g-2} and nothing else of
the frame: a frame derives Y(Delta) only when ``y_of_flat`` is first read
(by ``to_json_dict`` or a caller of ``assemble_fg``), and checks a stated Y
against Delta(delta) without deriving it.  The frames delta(q),
Delta(delta) and the low-degree data are external inputs; only the solves
live here.

The bookkeeping is O(1) in g and lives in ``bounds``: of the
K = floor((2g-2)/5) initial conditions, the E = min(D(g), K) below the
threshold are fixed and the degrees E+1..K are missing.  Only d = D(g) + 1
can have B(d) = g; it is then a multiple of 5 whose extremal GV value
supplies that condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import comb

from .bernoulli import bernoulli
from .bounds import _deficit, bps_threshold, extremal_gv, max_vanishing_degree
from .series import (
    LaurentSeries,
    WindowError,
    _json_fields,
    _numerators,
    format_rational,
    series_compose,
    series_invert,
    series_reversion,
)

__all__ = [
    "HolomorphicAmbiguity",
    "ConifoldFrame",
    "CastelnuovoSolveResult",
    "ResolutionPlan",
    "regularity_indices",
    "castelnuovo_indices",
    "gap_indices",
    "gap_solve",
    "castelnuovo_solve",
    "assemble_fg",
    "resolution_plan",
]

STATUS_UNKNOWN = "unknown"
STATUS_REGULARITY = "fixed-regularity"
STATUS_GAP = "fixed-gap"

# The quintic's conifold discriminant is 1 - 5^5 q.
QUINTIC_CONIFOLD = 5 ** 5


def regularity_indices(g: int) -> range:
    """Indices forced to zero: 0 .. ceil((3g-3)/5)."""
    _check_genus(g)
    return range(0, -(-(3 * g - 3) // 5) + 1)


def castelnuovo_indices(g: int) -> range:
    """The floor((2g-2)/5) middle indices ceil((3g-3)/5)+1 .. g-1."""
    return range(regularity_indices(g).stop, g)


def gap_indices(g: int) -> range:
    """Indices fixed by the conifold gap: g .. 3g-3."""
    _check_genus(g)
    return range(g, 3 * g - 2)


def _check_genus(g: int) -> None:
    if g < 2:
        raise ValueError("ambiguity solves start at genus 2")


@dataclass(frozen=True)
class HolomorphicAmbiguity:
    """Coefficients a_0..a_{3g-3} with a per-index resolution status."""

    g: int
    coeffs: tuple[Fraction | None, ...]
    status: tuple[str, ...]

    def __post_init__(self):
        _check_genus(self.g)
        if len(self.coeffs) != 3 * self.g - 2 or len(self.status) != 3 * self.g - 2:
            raise ValueError(f"need exactly {3 * self.g - 2} coefficient slots")

    @classmethod
    def blank(cls, g: int) -> HolomorphicAmbiguity:
        """Regularity zeros filled in; everything else unknown."""
        return cls(g, (None,) * (3 * g - 2),
                   (STATUS_UNKNOWN,) * (3 * g - 2)).with_values(
            dict.fromkeys(regularity_indices(g), 0), STATUS_REGULARITY)

    def with_values(self, values: dict[int, Fraction],
                    status: str) -> HolomorphicAmbiguity:
        coeffs = list(self.coeffs)
        stat = list(self.status)
        for i, v in values.items():
            coeffs[i] = Fraction(v)
            stat[i] = status
        return HolomorphicAmbiguity(self.g, tuple(coeffs), tuple(stat))

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "coefficients": [
                {"index": i,
                 "value": None if c is None else format_rational(c),
                 "status": s}
                for i, (c, s) in enumerate(zip(self.coeffs, self.status))],
        }


@dataclass(frozen=True)
class ConifoldFrame:
    """Coordinate data near the conifold point.

    delta_of_q and Delta_of_delta (with Delta = delta + O(delta^2)) are
    supplied; construction checks only that normalization.  Y as a series in
    Delta is derived on first read of ``y_of_flat`` and then kept (two
    threads that read it first at the same time may both derive it, equal
    values either way) from
    Y^{-1} = delta/(1+delta), that is Y = 1 + 1/delta(Delta) with
    delta(Delta) the compositional inverse of Delta(delta); it satisfies
    Y = Delta^{-1}(1 + O(Delta)) on [-1, T-2] for Delta(delta) on [1, T].
    The gap solve needs no inverse: in s = 1/Y = delta/(1+delta),
    Delta(s) = Delta(s/(1-s)) is a binomial transform of Delta(delta), so it
    reads Delta(delta) through delta^{2g-2} and never Y.
    """

    delta_of_q: LaurentSeries
    delta_to_flat: LaurentSeries  # Delta as a series in delta

    def __post_init__(self):
        flat = self.delta_to_flat
        if flat.is_zero or flat.min_exp != 1 or flat.coefficient(1) != 1:
            raise ValueError("flat coordinate must satisfy Delta = delta + O(delta^2)")

    @cached_property
    def y_of_flat(self) -> LaurentSeries:
        """Y as a Laurent series in Delta, derived on first read."""
        inv = series_invert(series_reversion(self.delta_to_flat))
        T = inv.trunc_order
        return LaurentSeries("Delta", inv.min_exp, inv.coeffs, T) \
            + LaurentSeries.from_dict("Delta", {0: 1}, T)

    @classmethod
    def toy(cls, trunc: int = 24) -> ConifoldFrame:
        """Non-physical testing frame with Delta := delta (solver mechanics only)."""
        delta_of_q = LaurentSeries("q", 0, [1, Fraction(-1, QUINTIC_CONIFOLD)], 1)
        identity = LaurentSeries.monomial("delta", 1, 1, trunc)
        return cls(delta_of_q, identity)

    def to_json_dict(self) -> dict:
        return {
            "delta_of_q": self.delta_of_q.to_json_dict(),
            "Delta_of_delta": self.delta_to_flat.to_json_dict(),
            "Y_of_Delta": self.y_of_flat.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> ConifoldFrame:
        """Frame from its JSON form; a malformed one raises ValueError."""
        q, flat = _json_fields(d, "delta_of_q", "Delta_of_delta")
        frame = cls(LaurentSeries.from_json_dict(q),
                    LaurentSeries.from_json_dict(flat))
        if "Y_of_Delta" in d:
            stated = LaurentSeries.from_json_dict(d["Y_of_Delta"])
            frame._check_stated_y(stated)
        return frame

    def _check_stated_y(self, stated: LaurentSeries) -> None:
        """Raise ValueError unless stated, a series in Delta, agrees with Y
        through Delta^m, m = min(stated trunc, T-2) for Delta(delta) known
        through delta^T, without deriving Y.

        Written as Y = Delta^{-1} U(Delta), Y = (1+delta)/delta says
        U(Delta(delta)) = (1+delta) Delta(delta)/delta.  Delta = delta +
        O(delta^2) makes U -> U(Delta(delta)) unitriangular, so the
        coefficients of U through Delta^{m+1} (those of Y through Delta^m)
        are Y's exactly when the identity holds through delta^{m+1}.  Below
        Delta^{-1}, Y and so stated vanish.
        """
        c = self.delta_to_flat.coefficient
        m = min(stated.trunc_order, self.delta_to_flat.trunc_order - 2)
        ok = stated.variable == "Delta" \
            and (stated.is_zero or stated.min_exp >= -1)
        if ok and m >= -1:
            u = LaurentSeries("Delta", 0, [stated.coefficient(k - 1)
                                           for k in range(m + 2)])
            lhs = series_compose(u, self.delta_to_flat)  # on [0, m+1]
            ok = all(lhs.coefficient(k) == c(k + 1) + c(k)
                     for k in range(m + 2))
        if not ok:
            raise ValueError("stated Y_of_Delta disagrees with the frame")


def gap_target(g: int) -> Fraction:
    """Coefficient of Delta^{-(2g-2)} in the prescribed singular part."""
    sign = 1 if (g - 1) % 2 == 0 else -1
    return sign * bernoulli(2 * g) / (2 * g * (2 * g - 2))


def gap_solve(g: int, known_terms: LaurentSeries,
              frame: ConifoldFrame) -> dict[int, Fraction]:
    """Fix a_g..a_{3g-3} by matching Delta^{-1}..Delta^{-(2g-2)}.

    Solves sum_{i=1}^{w} x_i Y^i = R modulo Delta^0, w = 2g-2, with
    R = target Delta^{-w} - known_terms and x_i = a_{i+g-1}.  In
    s = 1/Y = delta/(1+delta) the left side is sum_i x_i s^{-i}, so
    x_i = [s^{-i}] R(Delta(s)) = [s^{-i}] P(Delta(s)) Delta(s)^{-w}, with
    [s^n] Delta(s) = sum_{k=1}^{n} C(n-1, k-1) c_k for the supplied
    Delta(delta) = sum c_k delta^k and P(z) = sum_{j=1}^{w} r_j z^{w-j} over
    the principal coefficients r_j = [Delta^{-j}] R: one composition, one
    power and one product.  Delta(s) is needed on [1, w], so the frame must
    know Delta(delta) through delta^w (equivalently Y through Delta^{w-2});
    Y itself is never derived and the known terms are a series in Delta.  A
    pole of known_terms deeper than Delta^{-w} raises ValueError: no
    polynomial in Y of degree w cancels it.
    """
    _check_genus(g)
    width = 2 * g - 2
    if known_terms.trunc_order < -1:
        raise WindowError("known terms must be known through Delta^{-1}")
    if frame.delta_to_flat.trunc_order < width:
        raise WindowError(
            f"frame window too small: need Delta(delta) trunc >= {width} "
            f"(Y trunc >= {width - 2})")
    if known_terms.variable != "Delta":
        raise ValueError("known terms must be a series in the flat coordinate")
    if known_terms.min_exp < -width:
        raise ValueError(
            f"known terms have a pole at Delta^{known_terms.min_exp}, deeper "
            f"than the gap's Delta^{-width}")
    c, den = _numerators(frame.delta_to_flat.coeffs[:width])  # c_1..c_w
    ds = LaurentSeries("s", 1, [
        Fraction(sum(comb(n - 1, k) * c[k] for k in range(n)), den)
        for n in range(1, width + 1)], width)
    r = [-known_terms.coefficient(-j) for j in range(width, 0, -1)]
    r[0] += gap_target(g)
    p = LaurentSeries("Delta", 0, r, width - 1)  # [Delta^k] P = r_{w-k}
    x = series_compose(p, ds) * ds ** -width
    return {i + g - 1: x.coefficient(-i) for i in range(1, width + 1)}


@dataclass(frozen=True)
class CastelnuovoSolveResult:
    g: int
    values: dict[int, Fraction]
    unresolved: range  # a_{g-1-k} for the missing degrees k
    E: int
    K: int
    missing_degrees: range

    @property
    def closed(self) -> bool:
        return not self.unresolved


def castelnuovo_solve(g: int, known_poly_q: LaurentSeries, Dg: int,
                      supplied_gw: list[Fraction]) -> CastelnuovoSolveResult:
    """Fix the middle coefficients from degree <= Dg data.

    Matches q^0..q^E of sum_{k=0}^{K} a_{g-1-k} (1 - 5^5 q)^k against
    t = (supplied degree data) - known_poly_q, K = floor(2(g-1)/5) and
    E = min(Dg, K); supplied_gw[j] is the degree-j datum, j from 0.  With
    E = K the solution is the binomial inversion
    a_{g-1-k} = sum_{j=k}^{K} (-1)^{j-k} C(j,k) t_j / (-5^5)^j; with E < K
    the K - E missing initial conditions leave the system underdetermined
    and the result reports them as unresolved.
    """
    _check_genus(g)
    K, E, missing = _deficit(g, Dg)
    if Dg < 0:
        raise ValueError(f"max vanishing degree must be >= 0, got {Dg}")
    if known_poly_q.variable != "q":
        raise ValueError("known polynomial must be a series in q")
    if len(supplied_gw) < E + 1:
        raise ValueError(f"need degree data through q^{E}")
    if known_poly_q.trunc_order < E:
        raise WindowError(f"known polynomial must be known through q^{E}")
    unresolved = range(g - 2 - E, g - 2 - K, -1)
    if missing:
        return CastelnuovoSolveResult(g, {}, unresolved, E, K, missing)
    s, den = _numerators([
        (Fraction(supplied_gw[j]) - known_poly_q.coefficient(j))
        / (-QUINTIC_CONIFOLD) ** j for j in range(K + 1)])  # s_j = s[j] / den
    values = {g - 1 - k: Fraction(sum((-1) ** (j - k) * comb(j, k) * s[j]
                                      for j in range(k, K + 1)), den)
              for k in range(K, -1, -1)}
    return CastelnuovoSolveResult(g, values, unresolved, E, K, missing)


def assemble_fg(coeffs: dict, y: LaurentSeries) -> LaurentSeries:
    """sum_i a_i Y^i on Y's window from the map i -> a_i; an unknown a_i
    (None) raises ValueError rather than counting as zero."""
    out = LaurentSeries.zero(y.variable, y.trunc_order)
    for i, c in sorted(coeffs.items()):
        if c is None:
            raise ValueError(f"coefficient a_{i} is unknown")
        if c:
            out = out + (y ** i).scale(c)
    return out


@dataclass(frozen=True)
class ResolutionPlan:
    """Which axiom fixes which index, and whether the system closes."""

    g: int
    regularity: range
    castelnuovo: range
    gap: range
    K: int
    Dg: int
    E: int
    missing_degrees: range
    supplements: tuple[tuple[int, int], ...]  # (degree, extremal GV value)
    status: str  # closed | conditional | open

    def to_json_dict(self) -> dict:
        span = lambda r: {"start": r.start, "stop": r.stop}
        return {
            "g": self.g,
            "indices": {
                "fixed_regularity": span(self.regularity),
                "castelnuovo_window": span(self.castelnuovo),
                "fixed_gap": span(self.gap),
            },
            "initial_conditions": self.K,
            "max_vanishing_degree": self.Dg,
            "resolved_conditions": self.E,
            "missing_degrees": span(self.missing_degrees),
            "extremal_supplements": [
                {"d": d, "value": v} for d, v in self.supplements],
            "status": self.status,
        }


def first_open_genus() -> int:
    """Smallest genus whose plan neither closes nor admits supplements."""
    return next(g for g in count(2) if resolution_plan(g).status == "open")


def resolution_plan(g: int) -> ResolutionPlan:
    """Closure of the index bookkeeping at genus g, in O(1): closed when
    D(g) >= K, conditional when the one missing degree d has B(d) = g (its
    extremal value is known), else open."""
    _check_genus(g)
    Dg = max_vanishing_degree(g)
    K, E, missing = _deficit(g, Dg)
    d = Dg + 1  # B strictly increases: no other degree can have B(d) = g
    supplements = ((d, extremal_gv(d // 5)),) \
        if d in missing and bps_threshold(d) == g else ()
    if not missing:
        status = "closed"
    elif supplements and K - E == 1:
        status = "conditional"
    else:
        status = "open"
    return ResolutionPlan(
        g, regularity_indices(g), castelnuovo_indices(g), gap_indices(g),
        K, Dg, E, missing, supplements, status)
