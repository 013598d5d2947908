"""Property test: the JSON table writer gives the bytes of json.dumps with
sort_keys and indent=1 on the table's dict, the layout it replaced."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from curvecount.tables import (  # noqa: E402
    GvTable,
    GwTable,
    PtTable,
    table_to_json,
)

values = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=7),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
              st.integers(1, 10 ** 20)))


@st.composite
def tables(draw):
    """A GV, GW or PT table, possibly empty, flagged castelnuovo_valid or
    not (a flagged one keeps only the keys its law allows)."""
    cls = draw(st.sampled_from([GvTable, GwTable, PtTable]))
    d_max = draw(st.integers(1, 6))
    if cls is PtTable:
        lo = draw(st.integers(-12, 4))
        window = (lo, draw(st.integers(lo, 8)))
        keys = st.tuples(st.integers(*window), st.integers(1, d_max))
    else:
        window = draw(st.integers(0, 6))
        keys = st.tuples(st.integers(0, window), st.integers(1, d_max))
    valid = cls is not GwTable and draw(st.booleans())
    entries = draw(st.dictionaries(keys, values, max_size=12))
    if valid:
        entries = {k: v for k, v in entries.items() if not cls.forbids(*k)}
    return cls(entries, d_max, window, valid) if cls is PtTable else \
        cls(entries, window, d_max, valid)


def reference_to_json(table) -> str:
    """The writer before it spliced rows: one json.dumps of the whole dict."""
    d = {
        "kind": table.kind,
        "d_max": table.d_max,
        "castelnuovo_valid": table.castelnuovo_valid,
        "entries": [[a, deg, str(v)] for (a, deg), v in table.sorted_items()],
    }
    if isinstance(table, PtTable):
        d["q_window"] = list(table.q_window)
    else:
        d["g_max"] = table.g_max
    return json.dumps(d, sort_keys=True, indent=1) + "\n"


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(tables())
@hypothesis.example(GvTable({}, 0, 1))
@hypothesis.example(PtTable({}, 1, (-3, -3), True))
@hypothesis.example(PtTable({(-2, 1): Fraction(-3, 4)}, 1, (-2, 0)))
def test_json_writer_matches_json_dumps(table):
    assert table_to_json(table) == reference_to_json(table)
