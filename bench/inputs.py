"""Seeded inputs for the benchmark workloads.

Every generator takes a ``random.Random`` built from the workload seed, so the
same seed gives the same files byte for byte.  The program under test only
ever sees what these functions produce.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from curvecount.bounds import bps_threshold, extremal_gv

# The quintic's own genus-0 values; higher degrees follow 5^(5d)/d^3.
_QUINTIC_N0 = {1: 2875, 2: 609250}


def gv_table(rng: random.Random, g_max: int, d_max: int) -> dict:
    """(g, d) -> nonzero integer for every g <= min(floor(B(d)), g_max).

    Genus 0 grows like the quintic (about 3125^d / d^3); magnitudes then fall
    geometrically with genus to a small value at the threshold cell, which is
    the extremal GV value whenever B(d) is an integer (d = 5m).
    """
    entries = {}
    for d in range(1, d_max + 1):
        top = math.floor(bps_threshold(d))
        n0 = _QUINTIC_N0.get(d) or \
            3125 ** d * rng.randint(900, 1100) // (1000 * d ** 3)
        if d % 5 == 0:
            edge = extremal_gv(d // 5)
        else:
            edge = rng.choice((-1, 1)) * rng.randint(5, 500)
        for g in range(0, min(top, g_max) + 1):
            if g == 0:
                value = n0
            elif g == top:
                value = edge
            else:
                # log-linear interpolation between n0 and |edge|, jittered
                t = g / top
                mag = int(n0 ** (1 - t) * abs(edge) ** t
                          * rng.uniform(0.5, 1.5)) + 1
                value = mag if g % 2 == 0 else -mag
            entries[(g, d)] = value
    return entries


def gv_csv(entries: dict) -> str:
    """The CSV the ``curvecount`` command writes for a GV table."""
    rows = sorted(entries.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    return "g,d,value\n" + "".join(f"{g},{d},{v}\n" for (g, d), v in rows)


def macmahon_power(chi: int, trunc: int) -> list[Fraction]:
    """Coefficients of M(-q)^chi through q^trunc, M(q) = prod (1 - q^n)^(-n).

    log M(q) = sum_m sigma_2(m)/m q^m; exponentiated by g' = f' g.
    """
    f = [Fraction(0)] * (trunc + 1)
    for m in range(1, trunc + 1):
        sigma2 = sum(k * k for k in range(1, m + 1) if m % k == 0)
        f[m] = Fraction(chi * sigma2 * (-1) ** m, m)
    out = [Fraction(1)] + [Fraction(0)] * trunc
    for n in range(1, trunc + 1):
        out[n] = sum(k * f[k] * out[n - k] for k in range(1, n + 1)) / n
    return out


def series_json(variable: str, min_exp: int, coeffs: list, trunc: int) -> str:
    """A series file in the format ``LaurentSeries.to_json`` reads."""
    return json.dumps({"variable": variable, "min_exp": min_exp,
                       "trunc": trunc, "coeffs": [str(Fraction(c))
                                                  for c in coeffs]},
                      sort_keys=True)


def small_rational(rng: random.Random, k: int) -> Fraction:
    """A seeded sign times the fixed magnitude (k % 3 + 1)/(k % 4 + 1).

    Only the signs depend on the seed: the magnitudes set how fast the
    rationals grow, and with them the cost, so every seed costs about the same.
    """
    return Fraction(rng.choice((-1, 1)) * (k % 3 + 1), k % 4 + 1)


def frame_dict(rng: random.Random, trunc: int) -> dict:
    """Conifold frame JSON: dense Delta(delta) = delta + sum c_k delta^k.

    Only ``delta_of_q`` and ``Delta_of_delta`` are given, so loading the frame
    derives Y itself.
    """
    flat = [0, 1] + [small_rational(rng, k) for k in range(2, trunc + 1)]
    delta_q = [1] + [small_rational(rng, k) for k in range(1, trunc + 1)]
    return {
        "delta_of_q": json.loads(series_json("q", 0, delta_q, trunc)),
        "Delta_of_delta": json.loads(series_json("delta", 0, flat, trunc)),
    }


def gap_known_terms(rng: random.Random, g: int) -> list[Fraction]:
    """Known-term coefficients on Delta^-(2g-2) .. Delta^0."""
    return [Fraction(rng.randint(-60, 60), rng.randint(1, 9))
            for _ in range(2 * g - 1)]


def castelnuovo_case(rng: random.Random, g: int) -> tuple[dict, list]:
    """Chosen middle coefficients and the degree data they produce.

    The data are sum_k a_{g-1-k} C(k, j) (-5^5)^j, the low-degree round trip
    of the holomorphic-ambiguity solve.
    """
    K = (2 * (g - 1)) // 5
    chosen = {g - 1 - k: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for k in range(K + 1)}
    data = [sum(chosen[g - 1 - k] * math.comb(k, j) * Fraction(-3125) ** j
                for k in range(j, K + 1)) for j in range(K + 1)]
    return chosen, data
