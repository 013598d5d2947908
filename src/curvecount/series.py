"""Truncated Laurent/power series over exact rationals.

A :class:`LaurentSeries` stores dense coefficients on an explicit exponent
window ``[min_exp, trunc_order]``.  Exponents below ``min_exp`` are known to
be zero; exponents above ``trunc_order`` are *unknown*, never silently zero.
Every operation computes the tightest window it can guarantee:

    f + g : [min(m_f, m_g), min(T_f, T_g)]
    f * g : [m_f + m_g,     min(T_f + m_g, T_g + m_f)]
    f ** n: [n m_f,         T_f + (n - 1) m_f]     (any integer n != 0)

so windows shrink when negative exponents convolve.  Every power, f ** -1
included, exp f and the Bernoulli numbers come from one recurrence
(Miller's, :func:`_miller`); log f is the integral of (x f') f**-1 dx/x.

Coefficients are :class:`~fractions.Fraction` values, and that stays the
public type, but the exact hot loops (the product, the recurrence,
composition, and the bivariate log/exp) do not normalize a Fraction after
every step: they bring their inputs to integer numerators over one common
denominator (:func:`_numerators`), run on Python integers and build one
Fraction per output value.  A product of two numerator lists, in f * g and
in each term of the bivariate log/exp, is one product of packed integers
(:func:`_convolve`).  Composition f(m) is one Horner pass on those
numerators over one running denominator, each step truncated by the
valuation of m.  The bivariate log and exp run on t-layers.

A :class:`BivariateSeries` is a finite t-graded stack of Laurent series in
one secondary variable (the degree-0 layer of a generating series is treated
as exactly 1).

All values are immutable after construction and all operations are pure, so
they are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

__all__ = [
    "LaurentSeries",
    "BivariateSeries",
    "VariableMismatchError",
    "WindowError",
    "series_mul",
    "series_invert",
    "series_log",
    "series_exp",
    "series_compose",
    "series_reversion",
    "format_rational",
    "parse_rational",
]

Scalar = Union[int, Fraction, str]
_ZERO = Fraction(0)  # the one zero of every gap; Fractions are immutable


class VariableMismatchError(ValueError):
    """Two series in different variables were combined."""


class WindowError(ValueError):
    """A coefficient outside the known exponent window was required."""


def format_rational(x: Fraction) -> str:
    """Exact "p/q" string ("p" when the denominator is 1)."""
    return str(x)


def parse_rational(s: str) -> Fraction:
    """Fraction(s), except that a zero denominator raises
    ValueError("zero denominator in '1/0'"); "p" and "p/q" in ASCII digits,
    p optionally led by "-", are read by int() instead of Fraction's regex."""
    try:
        if isinstance(s, str) and s.isascii():
            p, slash, q = s.partition("/")
            if p.removeprefix("-").isdigit() and (q.isdigit() or not slash):
                return Fraction(int(p), int(q)) if slash else Fraction(int(p))
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def _coerce(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _numerators(cs: Sequence[Fraction]) -> tuple[list[int], int]:
    """(ints, den) with cs[i] == ints[i] / den and den the lcm of denominators.

    The one conversion from Fractions (or ints) to integers of the exact hot
    loops.
    """
    den = lcm(*{c.denominator for c in cs})
    return [c.numerator * (den // c.denominator) for c in cs], den


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _json_fields(d, *keys) -> list:
    """d[key] for each key of the JSON object d; ValueError if one is absent."""
    if not isinstance(d, dict):
        raise ValueError("expected a JSON object")
    for key in keys:
        if key not in d:
            raise ValueError(f"missing key {key!r}")
    return [d[key] for key in keys]


@dataclass(frozen=True)
class LaurentSeries:
    """Exact Laurent series known on the window [min_exp, trunc_order].

    The zero-on-window series is stored with an empty coefficient tuple and
    ``min_exp == trunc_order + 1``.  Leading zero coefficients are trimmed on
    construction (they stay known-zero, below ``min_exp``); trailing zeros are
    kept because they carry knowledge up to ``trunc_order``.
    """

    variable: str
    min_exp: int
    coeffs: tuple[Fraction, ...]
    trunc_order: int

    def __init__(self, variable: str, min_exp: int,
                 coeffs: Iterable[Scalar], trunc_order: int | None = None):
        cs = [_coerce(c) for c in coeffs]
        if trunc_order is None:
            trunc_order = min_exp + len(cs) - 1
        if len(cs) != trunc_order - min_exp + 1:
            raise ValueError(
                f"window [{min_exp}, {trunc_order}] needs "
                f"{trunc_order - min_exp + 1} coefficients, got {len(cs)}")
        if not variable:
            raise ValueError("empty variable tag")
        while cs and cs[0] == 0:
            cs.pop(0)
            min_exp += 1
        if not cs:
            min_exp = trunc_order + 1
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "min_exp", min_exp)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "trunc_order", trunc_order)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, variable: str, trunc_order: int) -> LaurentSeries:
        return cls(variable, trunc_order + 1, (), trunc_order)

    @classmethod
    def one(cls, variable: str, trunc_order: int) -> LaurentSeries:
        if trunc_order < 0:
            raise WindowError(f"1 is not known on a window ending at "
                              f"{variable}^{trunc_order}")
        return cls.monomial(variable, 0, 1, trunc_order)

    @classmethod
    def monomial(cls, variable: str, exp: int, coeff: Scalar = 1,
                 trunc_order: int | None = None) -> LaurentSeries:
        if trunc_order is None:
            trunc_order = exp
        if exp > trunc_order:
            raise ValueError("monomial exponent above truncation order")
        return cls.from_dict(variable, {exp: coeff}, trunc_order)

    @classmethod
    def from_dict(cls, variable: str, terms: dict[int, Scalar],
                  trunc_order: int) -> LaurentSeries:
        """Series from an exponent -> coefficient map; gaps are zero."""
        keep = {e: _coerce(c) for e, c in terms.items() if e <= trunc_order}
        if not keep:
            return cls.zero(variable, trunc_order)
        lo = min(keep)
        cs = [keep.get(e, _ZERO) for e in range(lo, trunc_order + 1)]
        return cls(variable, lo, cs, trunc_order)

    # -- basic queries -----------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True when every *known* coefficient vanishes."""
        return not self.coeffs

    def coefficient(self, exp: int) -> Fraction:
        """Exact coefficient at ``exp``; raises above the known window."""
        if exp > self.trunc_order:
            raise WindowError(
                f"coefficient of {self.variable}^{exp} is unknown "
                f"(window ends at {self.trunc_order})")
        if exp < self.min_exp:
            return _ZERO
        return self.coeffs[exp - self.min_exp]

    def terms(self) -> list[tuple[int, Fraction]]:
        """Known nonzero terms as (exponent, coefficient), ascending."""
        return [(self.min_exp + i, c) for i, c in enumerate(self.coeffs) if c]

    def _check_var(self, other: LaurentSeries) -> None:
        if self.variable != other.variable:
            raise VariableMismatchError(
                f"cannot combine series in {self.variable!r} and {other.variable!r}")

    # -- ring operations ---------------------------------------------

    def __add__(self, other: LaurentSeries) -> LaurentSeries:
        self._check_var(other)
        trunc = min(self.trunc_order, other.trunc_order)
        lo = min(self.min_exp, other.min_exp, trunc + 1)
        cs = [self.coefficient(e) + other.coefficient(e)
              for e in range(lo, trunc + 1)]
        return LaurentSeries(self.variable, lo, cs, trunc)

    def __neg__(self) -> LaurentSeries:
        return self.scale(-1)

    def __sub__(self, other: LaurentSeries) -> LaurentSeries:
        return self + (-other)

    def scale(self, scalar: Scalar) -> LaurentSeries:
        s = _coerce(scalar)
        return LaurentSeries(self.variable, self.min_exp,
                             [s * c for c in self.coeffs], self.trunc_order)

    def __mul__(self, other):
        if isinstance(other, LaurentSeries):
            self._check_var(other)
            lo = self.min_exp + other.min_exp
            trunc = min(self.trunc_order + other.min_exp,
                        other.trunc_order + self.min_exp)
            # The window holds n = min(len f, len g) coefficients, so only
            # the first n of each factor reach it.
            n = max(trunc - lo + 1, 0)
            a, da = _numerators(self.coeffs[:n])
            b, db = _numerators(other.coeffs[:n])
            den = da * db
            return LaurentSeries(self.variable, lo, [
                Fraction(x, den) for x in _convolve(a, b, n)], trunc)
        return self.scale(other)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentSeries:
        """f**n for any integer n, on [n a, T + (n-1) a] for f on [a, T].

        n = 0 gives 1 on [0, T]; a zero series has no negative powers.
        """
        if not isinstance(n, int):
            raise ValueError("only integer powers")
        if n == 0:
            return LaurentSeries.one(self.variable, self.trunc_order)
        if n == 1:
            return self
        if self.is_zero and n < 0:
            raise ValueError("cannot invert: zero leading coefficient")
        a, u = self.min_exp, self.coeffs
        return LaurentSeries(self.variable, n * a,
                             _miller(u, n + 1, -1, u[0] ** n, len(u))
                             if u else (),
                             self.trunc_order + (n - 1) * a)

    def truncate(self, trunc_order: int) -> LaurentSeries:
        """Forget knowledge above ``trunc_order`` (must not exceed current)."""
        if trunc_order > self.trunc_order:
            raise WindowError("cannot extend a window by truncation")
        return self + LaurentSeries.zero(self.variable, trunc_order)

    # -- inversion / log / exp ----------------------------------------

    def invert(self) -> LaurentSeries:
        """Multiplicative inverse, f**-1: known on [-a, T - 2a] for f on [a, T]."""
        return self ** -1

    def log(self) -> LaurentSeries:
        """log(f) for f with constant term 1; result has valuation >= 1.

        With theta = x d/dx, n [x^n] log f = [x^n] (theta f) f**-1.
        """
        if self.is_zero or self.min_exp != 0 or self.coeffs[0] != 1:
            raise ValueError("series_log requires constant term 1")
        T = self.trunc_order
        d = LaurentSeries(self.variable, 0, [
            e * c for e, c in enumerate(self.coeffs)], T) * self ** -1
        return LaurentSeries(self.variable, 0, [0] + [
            d.coefficient(n) / n for n in range(1, T + 1)], T)

    def exp(self) -> LaurentSeries:
        """exp(f) for f with zero constant term (valuation >= 1)."""
        if self.trunc_order < 0:
            raise WindowError("exp needs the window to reach exponent 0")
        if self.min_exp < 1 and not self.is_zero:
            raise ValueError("series_exp requires zero constant term")
        T = self.trunc_order
        u = [Fraction(1)] + [self.coefficient(e) for e in range(1, T + 1)]
        return LaurentSeries(self.variable, 0,
                             _miller(u, 1, 0, Fraction(1), T + 1), T)

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "variable": self.variable,
            "min_exp": self.min_exp,
            "trunc": self.trunc_order,
            "coeffs": [format_rational(c) for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> LaurentSeries:
        """Series from its JSON form; a malformed one raises ValueError."""
        var, lo, trunc, cs = _json_fields(d, "variable", "min_exp", "trunc",
                                          "coeffs")
        for key, value, ok, want in [
                ("variable", var, isinstance(var, str), "a string"),
                ("min_exp", lo, _is_int(lo), "an integer"),
                ("trunc", trunc, _is_int(trunc), "an integer"),
                ("coeffs", cs, isinstance(cs, list) and all(
                    isinstance(c, str) or _is_int(c) for c in cs),
                 'a list of "p/q" strings')]:
            if not ok:
                raise ValueError(f"{key} must be {want}, got {value!r}")
        return cls(var, lo, map(parse_rational, cs), trunc)

    def __str__(self) -> str:
        ts = self.terms()
        if not ts:
            body = "0"
        else:
            body = " + ".join(f"({c})*{self.variable}^{e}" for e, c in ts)
        return f"{body} + O({self.variable}^{self.trunc_order + 1})"


def _convolve(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """The first n coefficients (none for n <= 0) of the product of the
    integer lists a and b, by one product of two packed integers.

    Kronecker substitution: a list x is packed as sum x_i 2^(8 w i), in
    slots of w bytes wide enough for every |c_i| <= max|a| max|b|
    min(len a, len b) and a sign bit, so no coefficient of the product
    spills into the next slot.  Slots are written and read as unsigned
    bytes shifted by h = 2^(8w - 1): a list packs as the bytes of x_i + h,
    less h in every slot, and after h is added to the low n slots of the
    product, slot i holds c_i + h, in [0, 2h).
    """
    if n <= 0:
        return []
    a, b = a[:n], b[:n]
    bound = max(map(abs, a), default=0) * max(map(abs, b), default=0) \
        * min(len(a), len(b))
    if not bound:
        return [0] * n
    w = bound.bit_length() // 8 + 1
    h = 1 << (8 * w - 1)
    hs = bytes(w - 1) + b"\x80"  # h in one slot

    def pack(xs):
        return int.from_bytes(b"".join([(x + h).to_bytes(w, "little")
                                        for x in xs]), "little") \
            - int.from_bytes(hs * len(xs), "little")

    p = pack(a) * pack(b) + int.from_bytes(hs * n, "little")
    slots = (p & ((1 << 8 * w * n) - 1)).to_bytes(w * n, "little")
    return [int.from_bytes(slots[i:i + w], "little") - h
            for i in range(0, w * n, w)]


def _miller(u: Sequence[Fraction], p: int, q: int, h0: Fraction,
            count: int) -> list:
    """First ``count`` coefficients of the series h with h_0 = h0 and
    k u_0 h_k = sum_{j=1..k} (p j + q k) u_j h_{k-j}, for u[0] != 0.

    J.C.P. Miller's recurrence.  From u h' = alpha u' h, the power
    h = u**alpha has (p, q) = (alpha + 1, -1) and h0 = u_0**alpha; from
    h' = u' h, exp(u - 1) for u_0 = 1 has (p, q) = (1, 0) and h0 = 1.  It
    reads u only below ``count``.

    The sums run on integers: u_j = a_j / D and h_j = n_j / den, with den
    the lcm of the denominators of h_0..h_{k-1}, so
    h_k = sum_j (p j + q k) a_j n_{k-j} / (den k a_0).
    """
    # Own loop, not _convolve: h_k needs h_{k-1}, and packed products lose
    # to this loop once numerators pass a few hundred bits (Karatsuba only).
    a, _ = _numerators(u[:count])
    ja = [j * x for j, x in enumerate(a)]
    h = [h0]
    den, nums = h0.denominator, [h0.numerator]
    for k in range(1, count):
        rev = nums[::-1]  # n_{k-1}, ..., n_0
        s = 0
        if p:
            s += p * sum(map(mul, ja[1:k + 1], rev))
        if q:
            s += q * k * sum(map(mul, a[1:k + 1], rev))
        hk = Fraction(s, den * k * a[0])
        d = hk.denominator
        if den % d:  # den becomes lcm(den, d)
            grow = d // gcd(den, d)
            nums = [x * grow for x in nums]
            den *= grow
        nums.append(hk.numerator * (den // d))
        h.append(hk)
    return h


def _exp_log_terms(f: Sequence[LaurentSeries], sign: int
                   ) -> list[LaurentSeries]:
    """[g_1, ..., g_N] for g = exp f (sign 1, g_0 = 1) or log f (sign -1,
    f_0 = 1; f[0] is unread) on the t-layers f_n of a
    :class:`BivariateSeries`: g_n = f_n + sign
    sum_{0<k<n} (k/n) a_k b_{n-k} with (a, b) = (f, g) for exp, (g, f) for log.

    g_n gets the window of the LaurentSeries sum of those products, leading
    zeros trimmed.  Each f_n is A / D once (:func:`_numerators`); over
    L = lcm(D_{f_n}, D_{a_k} D_{b_{n-k}}) the sum runs on integers,
    n L g_n = n L f_n + sign sum_k k (L / (D_{a_k} D_{b_{n-k}})) A_k B_{n-k},
    and g_n's own A and D are that sum and n L over their gcd.
    """
    fs = [None] + [(p.min_exp, p.trunc_order, *_numerators(p.coeffs))
                   for p in f[1:]]
    gs, out = [None], []
    for n in range(1, len(fs)):
        pairs = [(fs[k], gs[n - k]) if sign > 0 else (gs[k], fs[n - k])
                 for k in range(1, n)]
        m, trunc, nums, den = fs[n]
        lo = m
        for (ma, ta, _, _), (mb, tb, _, _) in pairs:
            trunc = min(trunc, ta + mb, tb + ma)
            lo = min(lo, ma + mb)  # <= trunc + 1: no bound is below its lo - 1
        common = lcm(den, *[da * db for (*_, da), (*_, db) in pairs])
        acc, scale = [0] * (trunc + 1 - lo), n * (common // den)
        acc[m - lo:] = [scale * x for x in nums[:max(trunc + 1 - m, 0)]]
        for k, ((ma, _, a, da), (mb, _, b, db)) in enumerate(pairs, 1):
            w = trunc + 1 - ma - mb  # coefficients of a_k b_{n-k} in the window
            scale = sign * k * (common // (da * db))
            for e, x in enumerate(_convolve(a, b, w), ma + mb - lo):
                acc[e] += scale * x
        first = next((i for i, x in enumerate(acc) if x), len(acc))
        div = gcd(n * common, *acc[first:])
        gs.append((lo + first, trunc, [x // div for x in acc[first:]],
                   n * common // div))
        out.append(LaurentSeries(f[0].variable, lo + first, [
            Fraction(x, n * common) for x in acc[first:]], trunc))
    return out


def _compose_power_series(f: LaurentSeries, m: LaurentSeries) -> LaurentSeries:
    """f(m(x)) for a power series f (min_exp >= 0) and m of valuation >= 1.

    Known on [0, trunc], trunc = min(v (T_f + 1) - 1, T_m) for m of
    valuation v; an f known on no exponent >= 0 gives the zero series on
    that empty window.  Horner's rule acc_k = f_k + m acc_{k+1} ends in
    acc_0 = f(m), and acc_k is multiplied by m^k, of valuation v k, so it is
    needed only mod x^(trunc + 1 - v k) and the pass starts at
    k = top = trunc // v.  It runs on integers: f_k = a_k / Df,
    m = x^v (b_0 + b_1 x + ...) / Dm and acc_k = A_k / (Df Dm^(top-k)), so
    A_k = a_k Dm^(top-k) + x^v (b * A_{k+1}), with one Fraction per output
    coefficient.
    """
    # Own loop, not _convolve: packed, bcov-paper pass_s went from 0.0103 to
    # 0.0113 s (Python 3.11, 2-vCPU host), the A_k being hundreds of bits.
    if f.min_exp < 0:
        raise ValueError("composition target must be a power series")
    if m.is_zero or m.min_exp < 1:
        raise ValueError("composition argument needs valuation >= 1")
    v = m.min_exp
    trunc = min(v * (f.trunc_order + 1) - 1, m.trunc_order)
    if trunc < 0:
        return LaurentSeries.zero(m.variable, trunc)
    top = trunc // v
    a, da = _numerators([f.coefficient(k) for k in range(top + 1)])
    b, db = _numerators(m.coeffs[:trunc - v + 1])
    acc = [a[top]] + [0] * (trunc - v * top)  # A_top on [0, trunc - v top]
    scale = 1  # Dm^(top - k)
    for k in range(top - 1, -1, -1):
        scale *= db
        n = len(acc)
        rev = acc[::-1]
        acc = [a[k] * scale] + [0] * (v - 1) + \
            [sum(map(mul, b[:e + 1], rev[n - 1 - e:])) for e in range(n)]
    den = da * scale
    return LaurentSeries(m.variable, 0, [Fraction(x, den) for x in acc], trunc)


def series_reversion(m: LaurentSeries) -> LaurentSeries:
    """Compositional inverse of m = c1*x + ... with c1 != 0, on [1, T].

    Lagrange inversion: w_n = (1/n) [x^(n-1)] (m(x)/x)^(-n), with the power
    from :func:`_miller` up to x^(n-1) only, so the whole reversion
    costs O(T^3) operations.
    """
    if m.is_zero or m.min_exp != 1:
        raise ValueError("reversion needs valuation exactly 1")
    T, u = m.trunc_order, m.coeffs
    w = [_miller(u, 1 - n, -1, u[0] ** -n, n)[n - 1] / n
         for n in range(1, T + 1)]
    return LaurentSeries(m.variable, 1, w, T)


@dataclass(frozen=True)
class BivariateSeries:
    """t-graded stack of Laurent series in one secondary variable.

    ``per_degree[d]`` is the coefficient of t^d; ``t_trunc`` is the highest
    known t-degree.  Generating series carry an exact constant 1 at degree 0
    (connected series carry the zero series there); log/exp treat that layer
    exactly rather than as a windowed series.
    """

    per_degree: tuple[LaurentSeries, ...]

    def __init__(self, per_degree: Sequence[LaurentSeries]):
        entries = tuple(per_degree)
        if not entries:
            raise ValueError("need at least the degree-0 layer")
        var = entries[0].variable
        for e in entries[1:]:
            if e.variable != var:
                raise VariableMismatchError("mixed secondary variables")
        object.__setattr__(self, "per_degree", entries)

    @property
    def t_trunc(self) -> int:
        return len(self.per_degree) - 1

    @property
    def variable(self) -> str:
        return self.per_degree[0].variable

    def log(self) -> BivariateSeries:
        """log of a generating series (degree-0 layer exactly 1)."""
        p0 = self.per_degree[0]
        if p0.min_exp != 0 or p0.coefficient(0) != 1 or any(
                c for c in p0.coeffs[1:]):
            raise ValueError("bivariate log requires degree-0 layer == 1")
        zero = LaurentSeries.zero(self.variable, p0.trunc_order)
        return BivariateSeries([zero] + _exp_log_terms(self.per_degree, -1))

    def exp(self) -> BivariateSeries:
        """exp of a connected series (degree-0 layer zero)."""
        f0 = self.per_degree[0]
        if not f0.is_zero:
            raise ValueError("bivariate exp requires zero degree-0 layer")
        if f0.trunc_order < 0:
            raise WindowError("degree-0 window must reach exponent 0")
        one = LaurentSeries.one(self.variable, f0.trunc_order)
        return BivariateSeries([one] + _exp_log_terms(self.per_degree, 1))


# -- spec-facing operation names --------------------------------------

def series_mul(f: LaurentSeries, g: LaurentSeries) -> LaurentSeries:
    return f * g


def series_invert(f: LaurentSeries) -> LaurentSeries:
    return f.invert()


def series_log(f):
    """Logarithm; accepts a Laurent series or a bivariate generating series."""
    return f.log()


def series_exp(f):
    """Exponential; accepts a Laurent series or a bivariate connected series."""
    return f.exp()


def series_compose(f: LaurentSeries, m: LaurentSeries) -> LaurentSeries:
    """Univariate substitution f(m(x)); m must have valuation >= 1."""
    return _compose_power_series(f, m)
