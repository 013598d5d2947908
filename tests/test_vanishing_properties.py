"""Property tests: threshold vanishing keeps exactly what B(d) allows."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from curvecount.bounds import bps_threshold  # noqa: E402
from curvecount.tables import (  # noqa: E402
    GvTable,
    PtTable,
    table_from_json_dict,
    table_to_json,
)
from curvecount.transforms import apply_castelnuovo_vanishing  # noqa: E402

values = st.fractions(min_value=-50, max_value=50, max_denominator=7)


def keys(lo: int, hi: int, d_max: int, edge):
    """Uniform keys, plus keys within 2 of the threshold line edge(d)."""
    near = st.builds(lambda d, off: (min(max(math.floor(edge(d)) + off, lo), hi), d),
                     st.integers(1, d_max), st.integers(-2, 2))
    return st.one_of(st.tuples(st.integers(lo, hi), st.integers(1, d_max)), near)


@st.composite
def gv_tables(draw) -> GvTable:
    g_max = draw(st.integers(0, 55))
    d_max = draw(st.integers(1, 20))
    entries = draw(st.dictionaries(keys(0, g_max, d_max, bps_threshold),
                                   values, max_size=40))
    return GvTable(entries, g_max, d_max)


@st.composite
def pt_tables(draw) -> PtTable:
    d_max = draw(st.integers(1, 20))
    n_min = draw(st.integers(-60, 5))
    n_max = draw(st.integers(n_min, 10))
    edge = lambda d: 1 - bps_threshold(d)  # noqa: E731
    entries = draw(st.dictionaries(keys(n_min, n_max, d_max, edge),
                                   values, max_size=40))
    return PtTable(entries, d_max, (n_min, n_max))


def allowed(table, a: int, d: int) -> bool:
    if isinstance(table, GvTable):
        return a <= bps_threshold(d)
    return a >= 1 - bps_threshold(d)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.one_of(gv_tables(), pt_tables()))
def test_vanishing_keeps_exactly_what_the_threshold_allows(table):
    flagged, removed = apply_castelnuovo_vanishing(table)
    assert flagged.entries == {k: v for k, v in table.entries.items()
                               if allowed(table, *k)}
    assert dict(removed) == {k: v for k, v in table.entries.items()
                             if not allowed(table, *k)}
    keys = [k for k, _ in removed]
    assert keys == sorted(keys, key=lambda k: (k[1], k[0]))
    assert flagged.castelnuovo_valid
    assert replace(flagged, entries=table.entries,
                   castelnuovo_valid=False) == table
    # the flagged table constructs again, flag and all
    assert table_from_json_dict(json.loads(table_to_json(flagged))) == flagged
