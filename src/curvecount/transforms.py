"""Transforms between GW, GV, connected-PT, PT, and DT data.

The GW/GV dictionary (Gopakumar-Vafa) expands every GV entry through its
multiple covers.  With K_{g'} = (2 sin(lam/2))^(2g'-2) = (2 - 2cos lam)^(g'-1)
(a Laurent series at g' = 0) and the genus matrix
M[g][g'] = [lam^(2g-2)] K_{g'}, the r-fold cover has
[lam^(2g-2)] (2 sin(r lam/2))^(2g'-2) = r^(2g-2) M[g][g'], so the dictionary
is one matrix and one divisor sum:

    N_{g,d} = sum_{r | d} r^(2g-3) v_{d/r}[g],    v_{d'} = M n_{., d'}

Written as (1/d^3) sum_{r | d} r^(2g) (d/r)^3 v_{d/r}[g], the divisor sum has
integer weights at every g, g = 0 and 1 included.  M is lower triangular
with a unit diagonal, so the inverse is a forward substitution per degree.
With k = g' - 1, K_{g'} = (2 sin(lam/2))^(2k) solves
K_{g'}'' = 2k(2k-1) K_{g'-1} - k^2 K_{g'}, so for g' >= 2

    [lam^m] K_{g'} = (2k(2k-1) [lam^(m-2)] K_{g'-1} - k^2 [lam^(m-2)] K_{g'})
                     / (m(m-1)),    m = 2k, 2k+2, ...,

and [lam^(2g-2)] K_0 = (-1)^(g+1) (2g-1) B_2g/(2g)!.  One loop builds the
columns g' >= 1 on the integers e_m = m! [lam^m] K_{g'}; each row is integer
numerators over one denominator D_g, reduced by one gcd, and the rows
g <= g_out are the one cached value (the last g_out only), shared by both
directions.  The cover sums hold v_{d'}[g] over D_g times one denominator per
degree d', so the weights are integers fixed per degree; one Fraction is
built per output cell.

The stable-pair side expands the same table in u := -q:

    t^d layer of log PT = sum n_g^{d'} ((-1)^(g-1)/r) u^(r(1-g)) (1-u^r)^(2g-2)

(for g = 0 the kernel is the infinite series sum_m m u^(rm)); one loop over
the binomial coefficients of (1-u^r)^(2g-2) covers every g.  The block terms
run on integers: each t^d layer sums numerators over one denominator, the lcm
of r den(n_g^{d'}), and builds one Fraction per exponent.  All internal
bookkeeping stays in u; signs convert to q-coefficients in exactly one place.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from operator import mul

from .bernoulli import bernoulli
from .bounds import _at_least, bps_threshold_floor
from .series import BivariateSeries, LaurentSeries, WindowError, _numerators
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
]


@lru_cache(maxsize=1)
def _cover_kernel(g_out: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Rows g <= g_out of M: M[g][g'] = [lam^(2g-2)] K_{g'} for g' <= g, each
    as (numerators, den) from :func:`~curvecount.series._numerators`, but
    built on integers: over lcm((2g-2)!, den M[g][0]) the columns g' >= 1 are
    e_{g-1} times one quotient, and one gcd reduces the row to exactly the
    lcm of its reduced denominators.  Column 0 is closed form in B_2g."""
    # Column g' >= 1 as e_j = (2j)! [lam^(2j)] K_{g'}, j < g_out: K_1 = 1, and
    # the recurrence of the module docstring times m! = (2j)! steps K_{k+1}
    # from K_k on the integers, e_j = 2k(2k-1) e'_{j-1} - k^2 e_{j-1}
    cols = [[1] + [0] * (g_out - 1)]
    for k in range(1, g_out):
        a, b = 2 * k * (2 * k - 1), k * k
        new = [0] * k  # K_{k+1} = O(lam^(2k))
        for p in cols[-1][k - 1:g_out - 1]:
            new.append(a * p - b * new[-1])
        cols.append(new)
    rows = []
    for g in range(g_out + 1):
        fact = factorial(max(2 * g - 2, 0))
        c = (-1) ** (g + 1) * (2 * g - 1) * bernoulli(2 * g) / factorial(2 * g)
        den = lcm(fact, c.denominator)
        f = den // fact
        nums = [c.numerator * (den // c.denominator)] + [
            col[g - 1] * f for col in cols[:g]]
        div = gcd(den, *nums)
        rows.append((tuple(x // div for x in nums), den // div))
    return tuple(rows)


def _dot(row: tuple[tuple[int, ...], int], ns: list[int]) -> int:
    """Numerator over den * nden of a matrix row (cs, den) times (ns, nden)."""
    return sum(map(mul, row[0], ns))


def _cover_weights(dens: dict, d: int, r_min: int
                   ) -> tuple[list[int], int, list[int]]:
    """The divisors r >= r_min of d, the lcm L of their dens[d/r] and the
    weights w_r = (d/r)^3 L / dens[d/r].  With v[d'][g] = x[d'][g] over
    D_g dens[d'], sum_{r | d, r >= r_min} r^(2g-3) v[d/r][g] is
    sum_r w_r r^(2g) x[d/r][g] over D_g L d^3, integer weights at every g."""
    rs = [r for r in range(r_min, d + 1) if d % r == 0]
    big = lcm(*[dens[d // r] for r in rs])
    return rs, big, [(d // r) ** 3 * (big // dens[d // r]) for r in rs]


def _require_window(table, g_out: int, d_out: int) -> None:
    if g_out > table.g_max or d_out > table.d_max:
        raise TruncationError(
            f"requested ({g_out},{d_out}) exceeds the input window "
            f"g<={table.g_max}, d<={table.d_max}")
    _at_least(g_max=(g_out, 0), d_max=(d_out, 1))


def gv_to_gw(gv: GvTable, g_out: int, d_out: int) -> GwTable:
    """GW table on g <= g_out, d <= d_out: v_{d'} = M n_{., d'}, then
    N_{g,d} = sum_{r | d} r^(2g-3) v_{d/r}[g]."""
    _require_window(gv, g_out, d_out)
    m = _cover_kernel(g_out)
    v, dens, out = {}, {}, {}  # v[d'][g] over m[g][1] * dens[d']
    for d in range(1, d_out + 1):
        col = [gv.entries.get((gp, d), 0) for gp in range(g_out + 1)]
        while col and not col[-1]:  # n_{g', d} = 0 for g' > B(d)
            col.pop()
        ns, dens[d] = _numerators(col)
        v[d] = [_dot(row, ns) for row in m]
        rs, big, ws = _cover_weights(dens, d, 1)
        xs, den = [v[d // r] for r in rs], big * d ** 3
        for g, row in enumerate(m):
            out[(g, d)] = Fraction(sum([w * x[g] for w, x in zip(ws, xs)]),
                                   row[1] * den)
            ws = [w * r * r for w, r in zip(ws, rs)]
    return GwTable(out, g_out, d_out)


def gw_to_gv(gw: GwTable, g_out: int, d_out: int) -> GvTable:
    """Inverse of gv_to_gw, degrees ascending: v_d = N_{., d} minus the r >= 2
    covers of lower degrees, then M n_{., d} = v_d (M[g][g] = 1) by forward
    substitution on integer numerators over one denominator, grown to lcms."""
    _require_window(gw, g_out, d_out)
    m = _cover_kernel(g_out)
    v, dens, out = {}, {}, {}
    for d in range(1, d_out + 1):
        rs, big, ws = _cover_weights(dens, d, 2)
        xs, cden = [v[d // r] for r in rs], big * d ** 3
        nums, nden, e = [], 1, cden  # n_{g' < g} = nums[g'] / nden
        ys = []  # v_d[g] = y / (row[1] q) for (y, q) = ys[g]
        for g, row in enumerate(m):
            val = gw.entries.get((g, d), 0)
            b, c = val.denominator, sum([w * x[g] for w, x in zip(ws, xs)])
            ws = [w * r * r for w, r in zip(ws, rs)]
            t = _dot(row, nums)  # over row[1] * nden; the diagonal drops out
            # val - c/(row[1] cden) - t/(row[1] nden) over lcm(den, b),
            # den = row[1] e and e = lcm(cden, nden)
            den = row[1] * e
            xden = lcm(den, b)
            x = out[(g, d)] = Fraction(val.numerator * (xden // b) - (
                c * (e // cden) + t * (e // nden)) * (xden // den), xden)
            if nden % (q := x.denominator):  # nden becomes lcm(nden, q)
                grow = q // gcd(nden, q)
                nums, nden, t = [y * grow for y in nums], nden * grow, t * grow
                e = lcm(cden, nden)
            if y := x.numerator * (nden // q):  # nums keeps no zero tail
                nums += [0] * (g - len(nums)) + [y]
            ys.append((t + row[0][g] * y, nden))  # M n = v_d
        v[d], dens[d] = [y * (nden // q) for y, q in ys], nden
    return GvTable(out, g_out, d_out)


def integrality_check(gv: GvTable) -> list[tuple[tuple[int, int], Fraction]]:
    """Entries that are not integers; empty means BPS-integral."""
    return [(key, v) for key, v in gv.sorted_items() if v.denominator != 1]


def _pt_layer(gv: GvTable, d: int, n_min: int, n_max: int) -> LaurentSeries:
    """The t^d layer of the connected series as a q-series: its u-exponent
    terms summed as numerators over den = lcm(r den(n)) of the
    contributions, then read in q = -u, (-1)^e on the coefficient of u^e."""
    parts = []
    for r in range(1, d + 1):
        if d % r:
            continue
        dp = d // r
        for gp in range(0, gv.g_max + 1):
            val = gv.entries.get((gp, dp))
            if not val:
                continue
            lead = r * (1 - gp)
            if lead < n_min:
                raise WindowError(
                    f"q-window [{n_min},{n_max}] clips the leading exponent "
                    f"{lead} of the (g={gp}, d'={dp}, r={r}) contribution")
            parts.append((r, gp, lead, val))
    den = lcm(*[r * val.denominator for r, _, _, val in parts])
    terms: dict[int, int] = {}
    for r, gp, lead, val in parts:
        pref = (val.numerator if gp % 2 else -val.numerator) * (
            den // (r * val.denominator))
        # u^(r(1-g)) (1-u^r)^(2g-2) = sum_j b_j u^(r(1-g)+rj) with
        # b_j = (-1)^j C(2g-2, j): zero past j = 2g-2 for g >= 1, and
        # j+1 at g = 0, where it is u^r/(1-u^r)^2
        b, j = 1, 0
        while b and (e := lead + r * j) <= n_max:
            terms[e] = terms.get(e, 0) + pref * b
            b, j = b * (j + 2 - 2 * gp) // (j + 1), j + 1
    return LaurentSeries.from_dict("q", {
        e: Fraction(-x if e % 2 else x, den) for e, x in terms.items()}, n_max)


def gv_to_pt_connected(gv: GvTable, d_out: int,
                       q_window: tuple[int, int]) -> BivariateSeries:
    """Connected stable-pair series, t-layers 0..d_out on the given q-window.

    Genera above the table's window are unknown, and they are zero only by
    the vanishing theorem n_{g,d} = 0 for g > B(d).  B grows with d, so the
    table must reach g_max >= floor(B(d_out)); otherwise TruncationError.
    Raises WindowError rather than clipping any leading exponent.
    """
    n_min, n_max = q_window
    if n_min > n_max:
        raise ValueError("empty q_window")
    if d_out > gv.d_max:
        raise TruncationError(
            f"d_out={d_out} exceeds the input window d<={gv.d_max}")
    if d_out >= 1 and gv.g_max < bps_threshold_floor(d_out):
        raise TruncationError(
            f"g_max={gv.g_max} is below floor(B({d_out}))="
            f"{bps_threshold_floor(d_out)}: the genera above it are unknown")
    return BivariateSeries([LaurentSeries.zero("q", n_max)] + [
        _pt_layer(gv, d, n_min, n_max) for d in range(1, d_out + 1)])


def _pt_layers(pt: PtTable) -> list[LaurentSeries]:
    """The t^1..t^{d_max} q-layers of a PT table, known to its window top."""
    terms: list[dict[int, Fraction]] = [{} for _ in range(pt.d_max)]
    for (n, d), v in pt.entries.items():
        terms[d - 1][n] = v
    return [LaurentSeries.from_dict("q", t, pt.q_window[1]) for t in terms]


def _layers_to_table(layers: list[LaurentSeries], n_min: int) -> PtTable:
    """The t^1.. layers as a PT table on their common window
    [min(n_min, T), T], T the lowest trunc; entries above T are dropped."""
    n_max = min(b.trunc_order for b in layers)
    return PtTable({(e, d): c for d, layer in enumerate(layers, start=1)
                    for e, c in layer.terms() if e <= n_max},
                   len(layers), (min(n_min, n_max), n_max))


def pt_connected_to_table(F: BivariateSeries) -> PtTable:
    """Exponentiate a connected series and read the layers into a table.

    The table gets the tightest single window every layer justifies, so
    coefficients a narrow layer cannot vouch for are dropped.
    """
    blocks = F.exp().per_degree[1:]
    if not blocks:
        raise ValueError("need at least one positive t-degree")
    return _layers_to_table(blocks, min(b.min_exp for b in blocks))


def pt_table_to_connected(pt: PtTable) -> BivariateSeries:
    """Logarithm of the generating series 1 + sum P_{n,d} q^n t^d.

    The window floor is read as a completeness claim: no support below n_min.
    The degree-0 layer is exactly 1, so its window reaches q^0 even when the
    table's ends below it.
    """
    one = LaurentSeries.one("q", max(pt.q_window[1], 0))
    return BivariateSeries([one] + _pt_layers(pt)).log()


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
    return _layers_to_table([layer * dt0 for layer in _pt_layers(pt)],
                            pt.q_window[0])


def apply_castelnuovo_vanishing(table):
    """Zero the entries the quintic threshold forbids and flag the table.

    GV tables: entries with g > B(d).  PT tables: entries with n < 1 - B(d).
    Returns (flagged table, the zeroed nonzero entries as (key, value) pairs).
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
    return replace(table, entries=kept, castelnuovo_valid=True), tuple(removed)


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
