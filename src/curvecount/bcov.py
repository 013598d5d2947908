"""Holomorphic-ambiguity bookkeeping and the two triangular linear solves.

For genus g >= 2 the ambiguity polynomial sum_{i=0}^{3g-3} a_i Y^i has its
coefficients pinned in three stages: regularity zeros a_i for
i <= ceil((3g-3)/5), the conifold-gap match fixes a_i for i >= g by reading
coefficients of Delta^{-1}..Delta^{-(2g-2)} (upper triangular with unit
pivots because Y^k = Delta^{-k}(1 + O(Delta))), and the remaining
floor((2g-2)/5) middle coefficients come from low-degree data by matching
q^0..q^E against the basis (1 - 5^5 q)^k (triangular with pivots
(-5^5)^k).  The frames delta(q), Delta(delta) and the low-degree data are
external inputs; only the solves live here.  A ConifoldFrame derives
Y = 1 + 1/delta(Delta) once and builds each power of Y at most once, so
gap solves at several genera on one frame share their products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .bernoulli import bernoulli
from .bounds import bps_threshold, extremal_gv, max_vanishing_degree
from .series import (
    LaurentSeries,
    WindowError,
    format_rational,
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
STATUS_CASTELNUOVO = "fixed-castelnuovo"
STATUS_SUPPLIED = "supplied"

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
        _check_genus(g)
        coeffs: list[Fraction | None] = [None] * (3 * g - 2)
        status = [STATUS_UNKNOWN] * (3 * g - 2)
        for i in regularity_indices(g):
            coeffs[i] = Fraction(0)
            status[i] = STATUS_REGULARITY
        return cls(g, tuple(coeffs), tuple(status))

    def with_values(self, values: dict[int, Fraction],
                    status: str) -> HolomorphicAmbiguity:
        coeffs = list(self.coeffs)
        stat = list(self.status)
        for i, v in values.items():
            coeffs[i] = Fraction(v)
            stat[i] = status
        return HolomorphicAmbiguity(self.g, tuple(coeffs), tuple(stat))

    @property
    def resolved(self) -> bool:
        return all(c is not None for c in self.coeffs)

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
    supplied.  Y as a series in Delta is derived from Y^{-1} = delta/(1+delta),
    that is Y = 1 + 1/delta(Delta) with delta(Delta) the compositional
    inverse of Delta(delta); it satisfies Y = Delta^{-1}(1 + O(Delta)).  The
    powers Y^2, Y^3, ... are built once per frame and shared by every gap
    solve on it; that memo is not a field, so ==, repr and JSON ignore it.
    """

    delta_of_q: LaurentSeries
    delta_to_flat: LaurentSeries  # Delta as a series in delta
    y_of_flat: LaurentSeries      # derived: Y as a Laurent series in Delta

    def __init__(self, delta_of_q: LaurentSeries, delta_to_flat: LaurentSeries):
        if delta_to_flat.is_zero or delta_to_flat.min_exp != 1 \
                or delta_to_flat.coefficient(1) != 1:
            raise ValueError("flat coordinate must satisfy Delta = delta + O(delta^2)")
        inv = series_invert(series_reversion(delta_to_flat))
        y = LaurentSeries("Delta", inv.min_exp, inv.coeffs, inv.trunc_order) \
            + LaurentSeries.from_dict("Delta", {0: 1}, inv.trunc_order)
        if y.min_exp != -1 or y.coefficient(-1) != 1:
            raise ValueError("derived Y must be Delta^{-1}(1 + O(Delta))")
        object.__setattr__(self, "delta_of_q", delta_of_q)
        object.__setattr__(self, "delta_to_flat", delta_to_flat)
        object.__setattr__(self, "y_of_flat", y)
        object.__setattr__(self, "_y_power_memo", (None, y))

    def _y_powers(self, n: int) -> tuple:
        """(None, Y, Y^2, ..., Y^n), extending the frame's memo on demand.

        The memo tuple is replaced by a longer one, never mutated, so a frame
        stays safe to share across threads.
        """
        powers = self._y_power_memo
        if len(powers) <= n:
            grown = list(powers)
            while len(grown) <= n:
                grown.append(grown[-1] * self.y_of_flat)
            powers = tuple(grown)
            object.__setattr__(self, "_y_power_memo", powers)
        return powers[:n + 1]

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
        frame = cls(LaurentSeries.from_json_dict(d["delta_of_q"]),
                    LaurentSeries.from_json_dict(d["Delta_of_delta"]))
        if "Y_of_Delta" in d:
            stated = LaurentSeries.from_json_dict(d["Y_of_Delta"])
            derived = frame.y_of_flat.truncate(
                min(stated.trunc_order, frame.y_of_flat.trunc_order))
            if stated.truncate(derived.trunc_order) != derived:
                raise ValueError("stated Y_of_Delta disagrees with the frame")
        return frame


def gap_target(g: int) -> Fraction:
    """Coefficient of Delta^{-(2g-2)} in the prescribed singular part."""
    sign = 1 if (g - 1) % 2 == 0 else -1
    return sign * bernoulli(2 * g) / (2 * g * (2 * g - 2))


def gap_solve(g: int, known_terms: LaurentSeries,
              frame: ConifoldFrame) -> dict[int, Fraction]:
    """Fix a_g..a_{3g-3} by matching Delta^{-1}..Delta^{-(2g-2)}.

    Solves sum_{i=1}^{2g-2} a_{i+g-1} Y^i + known_terms = target Delta^{-(2g-2)}
    modulo Delta^0.  The system is upper triangular with unit pivots since
    Y^i = Delta^{-i}(1 + O(Delta)); the solution is unique.  The powers
    Y^1..Y^(2g-2) come from the frame's memo.
    """
    _check_genus(g)
    width = 2 * g - 2
    if known_terms.trunc_order < -1:
        raise WindowError("known terms must be known through Delta^{-1}")
    y = frame.y_of_flat
    if y.trunc_order < width - 2:
        raise WindowError(
            f"frame Y window too small: need trunc >= {width - 2}")
    if known_terms.variable != y.variable:
        raise ValueError("known terms must be a series in the flat coordinate")
    powers = frame._y_powers(width)
    target = gap_target(g)
    x: dict[int, Fraction] = {}
    for j in range(width, 0, -1):
        rhs = (target if j == width else Fraction(0)) \
            - known_terms.coefficient(-j)
        acc = rhs
        for i in range(j + 1, width + 1):
            acc -= x[i] * powers[i].coefficient(-j)
        pivot = powers[j].coefficient(-j)
        if pivot == 0:
            raise ValueError("singular gap system: invalid frame")
        x[j] = acc / pivot
    return {i + g - 1: x[i] for i in range(1, width + 1)}


@dataclass(frozen=True)
class CastelnuovoSolveResult:
    g: int
    values: dict[int, Fraction]
    unresolved: tuple[int, ...]
    E: int
    K: int
    missing_degrees: tuple[int, ...]

    @property
    def closed(self) -> bool:
        return not self.unresolved


def castelnuovo_solve(g: int, known_poly_q: LaurentSeries, Dg: int,
                      supplied_gw: list[Fraction]) -> CastelnuovoSolveResult:
    """Fix the middle coefficients from degree <= Dg data.

    Matches q^0..q^E of sum_{k=0}^{K} a_{g-1-k} (1 - 5^5 q)^k against
    (supplied degree data) - known_poly_q, K = floor(2(g-1)/5) and
    E = min(Dg, K); supplied_gw[j] is the degree-j datum, j from 0.  With
    E = K the system is triangular with pivots (-5^5)^k and solves uniquely
    top power down; with E < K the K - E missing initial conditions leave
    the system underdetermined and the result reports them as unresolved.
    """
    K = len(castelnuovo_indices(g))
    E = min(Dg, K)
    if len(supplied_gw) < E + 1:
        raise ValueError(f"need degree data through q^{E}")
    if known_poly_q.trunc_order < E:
        raise WindowError(f"known polynomial must be known through q^{E}")
    if E < K:
        missing = tuple(range(E + 1, K + 1))
        unresolved = tuple(g - 1 - k for k in missing)
        return CastelnuovoSolveResult(g, {}, unresolved, E, K, missing)
    t = [Fraction(supplied_gw[j]) - known_poly_q.coefficient(j)
         for j in range(K + 1)]
    base = Fraction(-QUINTIC_CONIFOLD)
    x: dict[int, Fraction] = {}
    for j in range(K, -1, -1):
        acc = t[j] / base ** j
        for k in range(j + 1, K + 1):
            acc -= x[k] * comb(k, j)
        x[j] = acc
    return CastelnuovoSolveResult(
        g, {g - 1 - k: v for k, v in x.items()}, (), E, K, ())


def assemble_fg(coeffs, y: LaurentSeries) -> LaurentSeries:
    """sum_i a_i Y^i on Y's window; accepts an ambiguity object or a map."""
    if isinstance(coeffs, HolomorphicAmbiguity):
        if not coeffs.resolved:
            raise ValueError("unresolved ambiguity cannot be assembled")
        items = dict(enumerate(coeffs.coeffs))
    else:
        items = dict(coeffs)
    top = max(items, default=0)
    out = LaurentSeries.monomial(y.variable, 0, items.get(0, Fraction(0)),
                                 y.trunc_order) if items.get(0) else None
    power = None
    for i in range(1, top + 1):
        power = y if power is None else power * y
        c = items.get(i)
        if c:
            term = power.scale(c)
            out = term if out is None else out + term
    if out is None:
        return LaurentSeries.zero(y.variable, y.trunc_order)
    return out


@dataclass(frozen=True)
class ResolutionPlan:
    """Which axiom fixes which index, and whether the system closes."""

    g: int
    regularity: tuple[int, ...]
    castelnuovo: tuple[int, ...]
    gap: tuple[int, ...]
    K: int
    Dg: int
    E: int
    missing_degrees: tuple[int, ...]
    supplements: tuple[tuple[int, int], ...]  # (degree, extremal GV value)
    status: str  # closed | conditional | open

    @property
    def closes(self) -> bool:
        return self.status in ("closed", "conditional")

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "indices": {
                "fixed_regularity": list(self.regularity),
                "castelnuovo_window": list(self.castelnuovo),
                "fixed_gap": list(self.gap),
            },
            "initial_conditions": self.K,
            "max_vanishing_degree": self.Dg,
            "resolved_conditions": self.E,
            "missing_degrees": list(self.missing_degrees),
            "extremal_supplements": [
                {"d": d, "value": v} for d, v in self.supplements],
            "status": self.status,
        }


def first_open_genus(g_limit: int = 200) -> int | None:
    """Smallest genus whose plan neither closes nor admits supplements."""
    for g in range(2, g_limit + 1):
        if resolution_plan(g).status == "open":
            return g
    return None


def resolution_plan(g: int) -> ResolutionPlan:
    """Report closure of the index bookkeeping at genus g.

    Closes outright when D(g) >= floor(2(g-1)/5); a missing degree d can be
    supplied exactly when the threshold is hit on the nose (B(d) = g with
    d = 5m), where the extremal value is known.
    """
    middle = castelnuovo_indices(g)
    K = len(middle)
    Dg = max_vanishing_degree(g)
    E = min(Dg, K)
    missing = tuple(range(E + 1, K + 1))
    supplements = []
    feasible = True
    for d in missing:
        if d % 5 == 0 and bps_threshold(d) == g:
            supplements.append((d, extremal_gv(d // 5)))
        else:
            feasible = False
    if not missing:
        status = "closed"
    elif feasible:
        status = "conditional"
    else:
        status = "open"
    return ResolutionPlan(
        g, tuple(regularity_indices(g)), tuple(middle),
        tuple(gap_indices(g)), K, Dg, E, missing, tuple(supplements), status)
