"""Transforms between GW, GV, connected-PT, PT, and DT data.

The GW/GV dictionary expands every GV entry through its multiple covers:

    N_{g,d} = sum_{r | d} sum_{g'} (n_{g'}^{d/r} / r) [lam^(2g-2)] K_{g',r}

with kernel K_{g',r} = (2 sin(r lam / 2))^(2g'-2) = (2 - 2cos(r lam))^(g'-1),
an honest Laurent series at g' = 0 (lowest exponent -2).  Two identities
build every kernel from one power of 2 - 2cos(lam) per genus:

    K_{g',r}(lam) = K_{g',1}(r lam)    ([lam^e] scales by r^e; r^-2 at g' = 0)
    K_{g',1} = K_{g'-1,1} * (2 - 2cos lam)    (g' >= 3, truncated at lam_trunc)

The inversion runs degrees ascending, then genus ascending; the diagonal
coefficient is 1, so the map is triangular and exactly invertible.

The stable-pair side expands the same table in u := -q:

    t^d layer of log PT = sum n_g^{d'} ((-1)^(g-1)/r) u^(r(1-g)) (1-u^r)^(2g-2)

(for g = 0 the kernel is the infinite series sum_m m u^(rm)).  All internal
bookkeeping stays in u; signs convert to q-coefficients in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .series import BivariateSeries, LaurentSeries, WindowError
from .tables import GvTable, GwTable, PtTable, TruncationError

__all__ = [
    "gv_to_gw",
    "gw_to_gv",
    "integrality_check",
    "gv_to_pt_connected",
    "pt_connected_to_table",
    "pt_table_to_connected",
    "pt_to_dt",
    "apply_castelnuovo_vanishing",
    "connected_vanishing_check",
    "VanishingReport",
]


@lru_cache(maxsize=None)
def _cover_kernel(r: int, g_prime: int, lam_trunc: int) -> LaurentSeries:
    """(2 sin(r*lam/2))^(2g'-2), known from its lowest exponent to lam^lam_trunc.

    Only the r = 1 kernels are built; the genus recursion and the rescaling
    to r > 1 both look their inputs up through this cache.
    """
    if r > 1:  # K_{g',r}(lam) = K_{g',1}(r lam)
        k = _cover_kernel(1, g_prime, lam_trunc)
        return LaurentSeries(
            "lambda", k.min_exp,
            [c * Fraction(r) ** e for e, c in enumerate(k.coeffs, k.min_exp)],
            k.trunc_order)
    if g_prime == 1:
        return LaurentSeries.one("lambda", lam_trunc)
    if g_prime >= 3:  # K_{g',1} = K_{g'-1,1} * K_{2,1}
        prev = _cover_kernel(1, g_prime - 1, lam_trunc)
        return (prev * _cover_kernel(1, 2, lam_trunc)).truncate(lam_trunc)
    base_trunc = lam_trunc + (4 if g_prime == 0 else 0)
    coeffs = [Fraction(0)] * (base_trunc + 1)
    for j in range(1, base_trunc // 2 + 1):
        coeffs[2 * j] = Fraction(2 * (-1) ** (j + 1), factorial(2 * j))
    base = LaurentSeries("lambda", 0, coeffs, base_trunc)  # 2 - 2cos(lam)
    return base.invert() if g_prime == 0 else base


def _require_window(table, g_out: int, d_out: int) -> None:
    if g_out > table.g_max or d_out > table.d_max:
        raise TruncationError(
            f"requested ({g_out},{d_out}) exceeds the input window "
            f"g<={table.g_max}, d<={table.d_max}")


def _cover_sum(values: dict, g: int, d: int, lam_trunc: int) -> Fraction:
    """sum_{r | d} sum_{g' <= g} (n_{g'}^{d/r} / r) [lam^(2g-2)] K_{g',r}."""
    total = Fraction(0)
    for r in range(1, d + 1):
        if d % r:
            continue
        for gp in range(g + 1):
            val = values.get((gp, d // r))
            if val:
                c = _cover_kernel(r, gp, lam_trunc).coefficient(2 * g - 2)
                if c:
                    total += val * c / r
    return total


def gv_to_gw(gv: GvTable, g_out: int, d_out: int) -> GwTable:
    """GW table on g <= g_out, d <= d_out from a GV table covering it."""
    _require_window(gv, g_out, d_out)
    lam_trunc = 2 * g_out - 2
    out = {(g, d): _cover_sum(gv.entries, g, d, lam_trunc)
           for d in range(1, d_out + 1) for g in range(g_out + 1)}
    return GwTable(out, g_out, d_out)


def gw_to_gv(gw: GwTable, g_out: int, d_out: int) -> GvTable:
    """Triangular inversion of gv_to_gw (degrees ascending, genus ascending).

    Cell (g, d) is not in ``out`` yet, so the cover sum over ``out`` misses
    exactly its own diagonal term, whose coefficient is 1.
    """
    _require_window(gw, g_out, d_out)
    lam_trunc = 2 * g_out - 2
    out: dict[tuple[int, int], Fraction] = {}
    for d in range(1, d_out + 1):
        for g in range(g_out + 1):
            out[(g, d)] = gw.value(g, d) - _cover_sum(out, g, d, lam_trunc)
    return GvTable(out, g_out, d_out)


def integrality_check(gv: GvTable) -> list[tuple[tuple[int, int], Fraction]]:
    """Entries that are not integers; empty means BPS-integral."""
    return [(key, v) for key, v in gv.sorted_items() if v.denominator != 1]


def _pt_block_terms(gv: GvTable, d: int, n_min: int, n_max: int
                    ) -> dict[int, Fraction]:
    """u-exponent -> coefficient of the t^d layer of the connected series."""
    terms: dict[int, Fraction] = {}
    for r in range(1, d + 1):
        if d % r:
            continue
        dp = d // r
        for gp in range(0, gv.g_max + 1):
            val = gv.entries.get((gp, dp))
            if not val:
                continue
            sign = 1 if (gp - 1) % 2 == 0 else -1
            pref = val * Fraction(sign, r)
            lead = r * (1 - gp) if gp >= 1 else r
            if lead < n_min:
                raise WindowError(
                    f"q-window [{n_min},{n_max}] clips the leading exponent "
                    f"{lead} of the (g={gp}, d'={dp}, r={r}) contribution")
            if gp == 0:
                # u^r/(1-u^r)^2 = sum_{m>=1} m u^(rm)
                m = 1
                while r * m <= n_max:
                    terms[r * m] = terms.get(r * m, Fraction(0)) + pref * m
                    m += 1
            else:
                # u^(r(1-g)) (1-u^r)^(2g-2), a Laurent polynomial
                for j in range(2 * gp - 1):
                    e = r * (1 - gp) + r * j
                    if e > n_max:
                        break
                    c = pref * comb(2 * gp - 2, j) * (-1) ** j
                    terms[e] = terms.get(e, Fraction(0)) + c
    return terms


def _u_terms_to_q_series(terms: dict[int, Fraction],
                         n_max: int) -> LaurentSeries:
    """Convert u = -q exponent data to a q-series: coefficient picks (-1)^e."""
    qterms = {e: (c if e % 2 == 0 else -c) for e, c in terms.items()}
    return LaurentSeries.from_dict("q", qterms, n_max)


def gv_to_pt_connected(gv: GvTable, d_out: int,
                       q_window: tuple[int, int]) -> BivariateSeries:
    """Connected stable-pair series, t-layers 0..d_out on the given q-window.

    The table is taken as complete data (the declared window bounds its
    support).  Raises WindowError rather than clipping any leading exponent.
    """
    n_min, n_max = q_window
    if n_min > n_max:
        raise ValueError("empty q_window")
    if d_out > gv.d_max:
        raise TruncationError(
            f"d_out={d_out} exceeds the input window d<={gv.d_max}")
    layers = [LaurentSeries.zero("q", n_max)]
    for d in range(1, d_out + 1):
        terms = _pt_block_terms(gv, d, n_min, n_max)
        layers.append(_u_terms_to_q_series(terms, n_max))
    return BivariateSeries(layers)


def pt_connected_to_table(F: BivariateSeries) -> PtTable:
    """Exponentiate a connected series and read the layers into a table.

    The table gets the tightest single window every layer justifies, so
    coefficients a narrow layer cannot vouch for are dropped.
    """
    series = F.exp()
    blocks = series.per_degree[1:]
    if not blocks:
        raise ValueError("need at least one positive t-degree")
    n_max = min(b.trunc_order for b in blocks)
    n_min = min(min((b.min_exp for b in blocks), default=n_max), n_max)
    entries: dict[tuple[int, int], Fraction] = {}
    for d, block in enumerate(blocks, start=1):
        for e, c in block.terms():
            if e <= n_max:
                entries[(e, d)] = c
    return PtTable(entries, len(blocks), (n_min, n_max))


def pt_table_to_connected(pt: PtTable) -> BivariateSeries:
    """Logarithm of the generating series 1 + sum P_{n,d} q^n t^d.

    The window floor is read as a completeness claim: no support below n_min.
    The degree-0 layer is exactly 1, so its window reaches q^0 even when the
    table's ends below it.
    """
    n_max = pt.q_window[1]
    layers = [LaurentSeries.one("q", max(n_max, 0))]
    for d in range(1, pt.d_max + 1):
        terms = {n: v for (n, dd), v in pt.entries.items() if dd == d}
        layers.append(LaurentSeries.from_dict("q", terms, n_max))
    return BivariateSeries(layers).log()


def pt_to_dt(pt: PtTable, dt0: LaurentSeries) -> PtTable:
    """Degree-0 convolution: I_{n,d} = sum_{m>=0} P_{n-m,d} I_{m,0}.

    dt0 is the degree-0 series and must have constant term 1 and no negative
    exponents.
    """
    if dt0.variable != "q":
        raise ValueError("dt0 must be a series in q")
    if dt0.is_zero or dt0.min_exp < 0:
        raise ValueError("dt0 must have no negative exponents")
    if dt0.coefficient(0) != 1:
        raise ValueError("dt0 must have constant term 1")
    n_min, n_max = pt.q_window
    out: dict[tuple[int, int], Fraction] = {}
    out_max = n_max
    for d in range(1, pt.d_max + 1):
        terms = {n: v for (n, dd), v in pt.entries.items() if dd == d}
        prod = LaurentSeries.from_dict("q", terms, n_max) * dt0
        out_max = min(out_max, prod.trunc_order)
        for e, c in prod.terms():
            out[(e, d)] = c
    entries = {k: v for k, v in out.items() if k[0] <= out_max}
    return PtTable(entries, pt.d_max, (n_min, out_max))


@dataclass(frozen=True)
class VanishingReport:
    """Entries zeroed (or flagged) by a vanishing rule, with their values."""

    rule: str
    removed: tuple[tuple[tuple[int, int], Fraction], ...]

    @property
    def clean(self) -> bool:
        return not self.removed


def apply_castelnuovo_vanishing(table):
    """Zero the entries the quintic threshold forbids and flag the table.

    GV tables: entries with g > B(d).  PT tables: entries with n < 1 - B(d).
    Returns (flagged table, report of the nonzero entries that were zeroed).
    """
    if not isinstance(table, (GvTable, PtTable)):
        raise TypeError("expected a GV or PT table")
    kept = {}
    removed = []
    for key, v in table.sorted_items():
        if table.forbids(*key):
            removed.append((key, v))
        else:
            kept[key] = v
    return (replace(table, entries=kept, castelnuovo_valid=True),
            VanishingReport("castelnuovo", tuple(removed)))


def connected_vanishing_check(F: BivariateSeries
                              ) -> list[tuple[int, int, Fraction]]:
    """Violations of the threshold law in a connected series.

    Every known coefficient of q^m t^d with m < 1 - B(d) must vanish;
    returns the (d, m, value) triples that do not.
    """
    bad = []
    for d in range(1, F.t_trunc + 1):
        for m, c in F.per_degree[d].terms():
            if PtTable.forbids(m, d):
                bad.append((d, m, c))
    return bad
