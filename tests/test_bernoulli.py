from __future__ import annotations

import importlib
from fractions import Fraction
from math import comb, factorial

import pytest

from curvecount.bernoulli import bernoulli

F = Fraction


def test_standard_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == F(-1, 2)
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(4) == F(-1, 30)
    assert bernoulli(12) == F(-691, 2730)


def test_odd_vanishing():
    assert all(bernoulli(2 * k + 1) == 0 for k in range(1, 16))


def test_defining_recurrence_up_to_30():
    for m in range(1, 31):
        assert sum(comb(m + 1, j) * bernoulli(j) for j in range(m + 1)) == 0


def test_matches_the_fraction_recurrence_up_to_200():
    # the defining recurrence term by term in Fraction arithmetic, odd j too
    want = [F(1)]
    for m in range(1, 201):
        want.append(-sum(comb(m + 1, j) * want[j] for j in range(m)) / (m + 1))
    assert [bernoulli(k) for k in range(201)] == want


def test_generating_function_matches_sympy():
    """x/(e^x - 1) = sum B_k x^k/k!, inverted by sympy: the B_1 = -1/2 convention."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.ring_series import rs_series_inversion
    from sympy.polys.rings import ring

    N = 60
    R, x = ring("x", sympy.QQ)
    quotient = sum((sympy.QQ(1, factorial(k + 1)) * x ** k
                    for k in range(N + 1)), R.zero)  # (e^x - 1)/x
    oracle = rs_series_inversion(quotient, x, N + 1)
    for k in range(N + 1):
        c = oracle.coeff(x ** k) * factorial(k)
        assert bernoulli(k) == F(int(c.numerator), int(c.denominator)), k


def count_miller_runs(monkeypatch) -> list:
    """Patch the recurrence where bernoulli and the series layer look it up;
    the returned list grows by one entry per run."""
    from curvecount import series

    # the package exports the function under the module's name
    bernoulli_mod = importlib.import_module("curvecount.bernoulli")

    runs, miller = [], series._miller

    def counted(*args):
        runs.append(args[-1])
        return miller(*args)

    monkeypatch.setattr(bernoulli_mod, "_miller", counted)
    monkeypatch.setattr(series, "_miller", counted)
    return runs


def test_a_walk_to_400_runs_one_recurrence_per_doubling(monkeypatch):
    from curvecount.bernoulli import _even

    _even.cache_clear()
    runs = count_miller_runs(monkeypatch)
    values = [bernoulli(k) for k in range(401)]
    assert len(runs) <= 9, runs
    # von Staudt-Clausen: den B_400 is the product of the primes p, p - 1 | 400
    assert values[400].denominator == 2 * 3 * 5 * 11 * 17 * 41 * 101 * 401


def test_the_cover_kernel_runs_no_recurrence_on_a_warm_table(monkeypatch):
    from curvecount.transforms import _cover_kernel

    bernoulli(2 * 53)
    runs = count_miller_runs(monkeypatch)
    _cover_kernel.cache_clear()
    _cover_kernel(53)
    assert runs == []


def test_a_negative_index_is_rejected():
    with pytest.raises(ValueError, match="^k must be >= 0$"):
        bernoulli(-1)
