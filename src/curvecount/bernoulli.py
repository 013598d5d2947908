"""Bernoulli numbers as exact rationals, with the B_1 = -1/2 convention."""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial

from .series import _miller

__all__ = ["bernoulli"]


@cache
def _even(bits: int) -> tuple[Fraction, ...]:
    """B_0, B_2, ..., B_(2n-2), n = 2**bits: x/sinh x = sum_j (2 - 4^j) B_2j
    x^(2j)/(2j)! inverts sinh(x)/x = sum_j x^(2j)/(2j+1)! in x^2 (Miller)."""
    u = [Fraction(1, factorial(2 * j + 1)) for j in range(1 << bits)]
    return tuple(h * factorial(2 * j) / (2 - 4 ** j)
                 for j, h in enumerate(_miller(u, 0, -1, Fraction(1), len(u))))


def bernoulli(k: int) -> Fraction:
    """B_k = k! [x^k] x/(e^x - 1); odd k in closed form, even k from the table
    of 2**bit_length(k/2) entries, so a walk up to k runs O(log k) tables."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k % 2:
        return Fraction(-(k == 1), 2)  # B_1 = -1/2, and 0 for odd k > 1
    return _even((k // 2).bit_length())[k // 2]
