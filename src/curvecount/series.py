"""Truncated Laurent/power series over exact rationals.

A :class:`LaurentSeries` stores dense coefficients on an explicit exponent
window ``[min_exp, trunc_order]``.  Exponents below ``min_exp`` are known to
be zero; exponents above ``trunc_order`` are *unknown*, never silently zero.
Every operation computes the tightest window it can guarantee:

    f + g : [min(m_f, m_g), min(T_f, T_g)]
    f * g : [m_f + m_g,     min(T_f + m_g, T_g + m_f)]

so windows shrink when negative exponents convolve.  A :class:`BivariateSeries`
is a finite t-graded stack of Laurent series in one secondary variable (the
degree-0 layer of a generating series is treated as exactly 1).

All values are immutable after construction and all operations are pure, so
they are safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
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


class VariableMismatchError(ValueError):
    """Two series in different variables were combined."""


class WindowError(ValueError):
    """A coefficient outside the known exponent window was required."""


def format_rational(x: Fraction) -> str:
    """Exact "p/q" string ("p" when the denominator is 1)."""
    return str(x)


def parse_rational(s: str) -> Fraction:
    return Fraction(s)


def _coerce(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


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
        return cls.monomial(variable, 0, 1, trunc_order)

    @classmethod
    def monomial(cls, variable: str, exp: int, coeff: Scalar = 1,
                 trunc_order: int | None = None) -> LaurentSeries:
        if trunc_order is None:
            trunc_order = exp
        if exp > trunc_order:
            raise ValueError("monomial exponent above truncation order")
        cs = [Fraction(0)] * (trunc_order - exp + 1)
        cs[0] = _coerce(coeff)
        return cls(variable, exp, cs, trunc_order)

    @classmethod
    def from_dict(cls, variable: str, terms: dict[int, Scalar],
                  trunc_order: int) -> LaurentSeries:
        """Series from an exponent -> coefficient map; gaps are zero."""
        keep = {e: _coerce(c) for e, c in terms.items() if e <= trunc_order}
        if not keep:
            return cls.zero(variable, trunc_order)
        lo = min(keep)
        cs = [keep.get(e, Fraction(0)) for e in range(lo, trunc_order + 1)]
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
            return Fraction(0)
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
        return LaurentSeries(self.variable, self.min_exp,
                             [-c for c in self.coeffs], self.trunc_order)

    def __sub__(self, other: LaurentSeries) -> LaurentSeries:
        return self + (-other)

    def scale(self, scalar: Scalar) -> LaurentSeries:
        s = _coerce(scalar)
        return LaurentSeries(self.variable, self.min_exp,
                             [s * c for c in self.coeffs], self.trunc_order)

    def shift(self, k: int) -> LaurentSeries:
        """Multiply by variable**k (window shifts with the exponents)."""
        return LaurentSeries(self.variable, self.min_exp + k, self.coeffs,
                             self.trunc_order + k)

    def __mul__(self, other):
        if isinstance(other, LaurentSeries):
            self._check_var(other)
            lo = self.min_exp + other.min_exp
            trunc = min(self.trunc_order + other.min_exp,
                        other.trunc_order + self.min_exp)
            acc = [Fraction(0)] * max(trunc - lo + 1, 0)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                ei = self.min_exp + i
                for j, b in enumerate(other.coeffs):
                    e = ei + other.min_exp + j
                    if e > trunc:
                        break
                    if b:
                        acc[e - lo] += a * b
            return LaurentSeries(self.variable, lo, acc, trunc)
        return self.scale(other)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentSeries:
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        if n == 0:
            return LaurentSeries.one(self.variable, self.trunc_order)
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    def truncate(self, trunc_order: int) -> LaurentSeries:
        """Forget knowledge above ``trunc_order`` (must not exceed current)."""
        if trunc_order > self.trunc_order:
            raise WindowError("cannot extend a window by truncation")
        lo = min(self.min_exp, trunc_order + 1)
        cs = [self.coefficient(e) for e in range(lo, trunc_order + 1)]
        return LaurentSeries(self.variable, lo, cs, trunc_order)

    # -- inversion / log / exp ----------------------------------------

    def invert(self) -> LaurentSeries:
        """Multiplicative inverse.

        Requires a nonzero lowest-order coefficient.  For f known on [a, T]
        the inverse is known on [-a, T - 2a] and f * invert(f) = 1 there.
        """
        if self.is_zero:
            raise ValueError("cannot invert: zero leading coefficient")
        a = self.min_exp
        u = self.coeffs  # unit part, u[0] != 0
        order = self.trunc_order - a  # known degrees of the unit part
        inv0 = 1 / u[0]
        out = [inv0] + [Fraction(0)] * order
        for m in range(1, order + 1):
            s = Fraction(0)
            for k in range(1, min(m, len(u) - 1) + 1):
                s += u[k] * out[m - k]
            out[m] = -inv0 * s
        return LaurentSeries(self.variable, -a, out, self.trunc_order - 2 * a)

    def log(self) -> LaurentSeries:
        """log(f) for f with constant term 1; result has valuation >= 1."""
        if self.is_zero or self.min_exp != 0 or self.coeffs[0] != 1:
            raise ValueError("series_log requires constant term 1")
        T = self.trunc_order
        g = _log_terms([self.coefficient(e) for e in range(0, T + 1)])
        return LaurentSeries(self.variable, 0, [0] + g, T)

    def exp(self) -> LaurentSeries:
        """exp(f) for f with zero constant term (valuation >= 1)."""
        if self.trunc_order < 0:
            raise WindowError("exp needs the window to reach exponent 0")
        if self.min_exp < 1 and not self.is_zero:
            raise ValueError("series_exp requires zero constant term")
        T = self.trunc_order
        g = _exp_terms([self.coefficient(e) for e in range(0, T + 1)])
        return LaurentSeries(self.variable, 0, [1] + g, T)

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
        return cls(d["variable"], d["min_exp"],
                   [parse_rational(c) for c in d["coeffs"]], d["trunc"])

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, s: str) -> LaurentSeries:
        return cls.from_json_dict(json.loads(s))

    def __str__(self) -> str:
        ts = self.terms()
        if not ts:
            body = "0"
        else:
            body = " + ".join(f"({c})*{self.variable}^{e}" for e, c in ts)
        return f"{body} + O({self.variable}^{self.trunc_order + 1})"


def _log_terms(f: list) -> list:
    """[g_1, ..., g_T] for g = log f, taking f_0 = 1 exactly (f[0] unread).

    f g' = f' gives g_n = f_n - sum_{0<k<n} (g_k f_{n-k}) k/n.  A term is a
    Fraction or a t-layer (LaurentSeries) of a bivariate series.
    """
    g = [None]
    for n in range(1, len(f)):
        acc = f[n]
        for k in range(1, n):
            acc = acc - Fraction(k, n) * (g[k] * f[n - k])
        g.append(acc)
    return g[1:]


def _exp_terms(f: list) -> list:
    """[g_1, ..., g_T] for g = exp f, taking g_0 = 1 exactly (f[0] unread).

    g' = f' g gives g_n = f_n + sum_{0<k<n} (f_k g_{n-k}) k/n.
    """
    g = [None]
    for n in range(1, len(f)):
        acc = f[n]
        for k in range(1, n):
            acc = acc + Fraction(k, n) * (f[k] * g[n - k])
        g.append(acc)
    return g[1:]


def _compose_power_series(f: LaurentSeries, m: LaurentSeries) -> LaurentSeries:
    """f(m(x)) for a power series f (min_exp >= 0) and m of valuation >= 1."""
    if f.min_exp < 0:
        raise ValueError("composition target must be a power series")
    if m.is_zero or m.min_exp < 1:
        raise ValueError("composition argument needs valuation >= 1")
    v = m.min_exp
    trunc = min(v * (f.trunc_order + 1) - 1, m.trunc_order)
    if f.trunc_order >= 0:
        out = LaurentSeries.monomial(m.variable, 0, f.coefficient(0), trunc)
    else:
        out = LaurentSeries.zero(m.variable, trunc)
    power = LaurentSeries.one(m.variable, trunc)
    for k in range(1, f.trunc_order + 1):
        power = power * m
        if power.trunc_order > trunc:
            power = power.truncate(trunc)
        c = f.coefficient(k)
        if c:
            out = out + power.scale(c)
        if power.min_exp > trunc:
            break
    return out


def series_reversion(m: LaurentSeries) -> LaurentSeries:
    """Compositional inverse of m = c1*x + ... with c1 != 0, on [1, T].

    Lagrange inversion: w_n = (1/n) [x^(n-1)] h^n with h = x/m(x).  The
    coefficients P_k of P = h^n come from J.C.P. Miller's power recurrence
    P_k = (1/(k h_0)) sum_{j=1..k} ((n+1) j - k) h_j P_{k-j}, needed only
    up to k = n - 1, so the whole reversion costs O(T^3) operations.
    """
    if m.is_zero or m.min_exp != 1:
        raise ValueError("reversion needs valuation exactly 1")
    T = m.trunc_order
    h = m.shift(-1).invert().coeffs  # x/m(x), known on [0, T - 1]
    h0 = h[0]
    w = [Fraction(0)] * (T + 1)
    for n in range(1, T + 1):
        p = [h0 ** n]
        for k in range(1, n):
            s = Fraction(0)
            for j in range(1, k + 1):
                if h[j]:
                    s += ((n + 1) * j - k) * h[j] * p[k - j]
            p.append(s / (k * h0))
        w[n] = p[n - 1] / n
    return LaurentSeries(m.variable, 0, w, T)


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

    def coefficient(self, exp: int, degree: int) -> Fraction:
        if not 0 <= degree <= self.t_trunc:
            raise WindowError(f"t-degree {degree} outside [0, {self.t_trunc}]")
        return self.per_degree[degree].coefficient(exp)

    def __add__(self, other: BivariateSeries) -> BivariateSeries:
        n = min(self.t_trunc, other.t_trunc)
        return BivariateSeries([self.per_degree[d] + other.per_degree[d]
                                for d in range(n + 1)])

    def log(self) -> BivariateSeries:
        """log of a generating series (degree-0 layer exactly 1)."""
        p0 = self.per_degree[0]
        if p0.min_exp != 0 or p0.coefficient(0) != 1 or any(
                c for c in p0.coeffs[1:]):
            raise ValueError("bivariate log requires degree-0 layer == 1")
        zero = LaurentSeries.zero(self.variable, p0.trunc_order)
        return BivariateSeries([zero] + _log_terms(self.per_degree))

    def exp(self) -> BivariateSeries:
        """exp of a connected series (degree-0 layer zero)."""
        f0 = self.per_degree[0]
        if not f0.is_zero:
            raise ValueError("bivariate exp requires zero degree-0 layer")
        if f0.trunc_order < 0:
            raise WindowError("degree-0 window must reach exponent 0")
        one = LaurentSeries.one(self.variable, f0.trunc_order)
        return BivariateSeries([one] + _exp_terms(self.per_degree))


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
