"""Bernoulli numbers as exact rationals, with the B_1 = -1/2 convention."""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial

from .series import _miller

__all__ = ["bernoulli"]


@cache
def bernoulli(k: int) -> Fraction:
    """B_k = k! [x^k] x/(e^x - 1), the inverse of sum_j x^j/(j+1)! by
    Miller's recurrence (:func:`curvecount.series._miller`, power -1).

    Each new k runs the recurrence afresh; functools.cache keeps the values.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    u = [Fraction(1, factorial(j + 1)) for j in range(k + 1)]
    return factorial(k) * _miller(u, 0, -1, Fraction(1), k + 1)[k]
