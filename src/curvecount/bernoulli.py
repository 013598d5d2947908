"""Bernoulli numbers as exact rationals, with the B_1 = -1/2 convention."""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, gcd

__all__ = ["bernoulli"]

_cache: list[Fraction] = [Fraction(1)]
# _cache[j] == _nums[j] / _den, _den the lcm of the denominators so far
_nums: list[int] = [1]
_den = 1
_lock = threading.Lock()


def bernoulli(k: int) -> Fraction:
    """B_k via the defining recurrence sum_{j<=m} C(m+1, j) B_j = 0 (m >= 1).

    The sum runs on integer numerators over one common denominator and skips
    the odd j >= 3, whose B_j vanish (as does B_m for odd m >= 3).  Memoized;
    concurrent callers see a consistent table (idempotent writes under a
    lock).
    """
    global _den
    if k < 0:
        raise ValueError("k must be >= 0")
    if k < len(_cache):
        return _cache[k]
    with _lock:
        while len(_cache) <= k:
            m = len(_cache)
            if m % 2 and m > 1:
                _cache.append(Fraction(0))
                _nums.append(0)
                continue
            s = sum(comb(m + 1, j) * _nums[j]
                    for j in (0, 1, *range(2, m, 2)) if j < m)
            b = Fraction(-s, _den * (m + 1))
            q = b.denominator
            if _den % q:  # _den becomes lcm(_den, q)
                grow = q // gcd(_den, q)
                _nums[:] = [x * grow for x in _nums]
                _den *= grow
            _nums.append(b.numerator * (_den // q))
            _cache.append(b)
    return _cache[k]
