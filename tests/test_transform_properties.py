"""Property tests: the GV<->GW and PT log/exp round trips are exact.

Each round trip runs one shared helper through both of its callers: the
cover sum through gv_to_gw and gw_to_gv, the log/exp recurrences through
pt_connected_to_table (exp) and pt_table_to_connected (log).
"""

from __future__ import annotations

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from curvecount.bounds import bps_threshold  # noqa: E402
from curvecount.series import BivariateSeries, LaurentSeries  # noqa: E402
from curvecount.tables import GvTable  # noqa: E402
from curvecount.transforms import (  # noqa: E402
    gv_to_gw,
    gw_to_gv,
    pt_connected_to_table,
    pt_table_to_connected,
)

settings = hypothesis.settings(max_examples=60, deadline=None)


@st.composite
def gv_tables(draw) -> GvTable:
    """Integer GV data at or below the threshold on a window g, d <= 8."""
    g_max = draw(st.integers(0, 8))
    d_max = draw(st.integers(1, 8))
    cells = [(g, d) for d in range(1, d_max + 1)
             for g in range(min(g_max, math.floor(bps_threshold(d))) + 1)]
    entries = draw(st.dictionaries(st.sampled_from(cells),
                                   st.integers(-50, 50), max_size=len(cells)))
    return GvTable(entries, g_max, d_max)


@settings
@hypothesis.given(gv_tables())
def test_gv_gw_gv_round_trip_is_exact(gv):
    gw = gv_to_gw(gv, gv.g_max, gv.d_max)
    assert gw_to_gv(gw, gv.g_max, gv.d_max) == gv


@st.composite
def connected_series(draw) -> BivariateSeries:
    """Zero degree-0 layer, then layers in q reaching down to q^-3."""
    T = draw(st.integers(0, 10))
    layers = [LaurentSeries.zero("q", T)]
    for _ in range(draw(st.integers(1, 4))):
        lo = draw(st.integers(-3, min(T, 2)))
        cs = draw(st.lists(st.fractions(min_value=-5, max_value=5,
                                        max_denominator=4),
                           min_size=T - lo + 1, max_size=T - lo + 1))
        layers.append(LaurentSeries("q", lo, cs, T))
    return BivariateSeries(layers)


@settings
@hypothesis.given(connected_series())
def test_pt_exp_log_round_trip_returns_the_layers(F):
    table = pt_connected_to_table(F)
    back = pt_table_to_connected(table)
    assert back.t_trunc == F.t_trunc and back.per_degree[0].is_zero
    n_max = table.q_window[1]
    # lowest exponent of any table layer (n_max + 1 for an empty one); by the
    # window law for f*g each product in the log costs at most -m of window
    m = min(0, *(min((n for n, dd in table.entries if dd == d), default=n_max + 1)
                 for d in range(1, table.d_max + 1)))
    for d in range(1, F.t_trunc + 1):
        layer = back.per_degree[d]
        assert n_max + (d - 1) * m <= layer.trunc_order <= n_max
        assert layer == F.per_degree[d].truncate(layer.trunc_order)
