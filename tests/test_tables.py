from __future__ import annotations

import json
import re
from fractions import Fraction

import pytest

from curvecount.tables import (
    GvTable,
    GwTable,
    PtTable,
    TruncationError,
    read_table_csv,
    read_table_json,
    table_from_json_dict,
    table_to_csv,
    table_to_json,
)

F = Fraction


def test_zero_entries_dropped_and_bounds_checked():
    t = GvTable({(0, 1): F(0), (1, 2): F(3)}, 2, 3)
    assert t.entries == {(1, 2): F(3)}
    assert t.value(0, 1) == 0
    with pytest.raises(TruncationError):
        t.value(0, 4)
    with pytest.raises(TruncationError):
        GvTable({(3, 1): F(1)}, 2, 3)


def test_pt_window_enforced():
    t = PtTable({(-2, 1): F(5)}, 2, (-3, 4))
    assert t.value(-3, 2) == 0
    with pytest.raises(TruncationError):
        t.value(5, 1)
    with pytest.raises(TruncationError):
        PtTable({(9, 1): F(1)}, 2, (-3, 4))


def test_csv_round_trip(tmp_path):
    t = GvTable({(1, 2): F(3), (0, 1): F(-7, 2)}, 4, 6)
    text = table_to_csv(t)
    assert text == "g,d,value\n0,1,-7/2\n1,2,3\n"
    p = tmp_path / "gv.csv"
    p.write_text(text)
    back = read_table_csv(str(p), "gv", g_max=4, d_max=6)
    assert back.entries == t.entries and back.g_max == 4


def test_json_round_trip(tmp_path):
    t = PtTable({(0, 1): F(2, 3)}, 3, (-5, 5), castelnuovo_valid=True)
    p = tmp_path / "pt.json"
    p.write_text(table_to_json(t))
    back = read_table_json(str(p))
    assert back == t


def test_csv_header_mismatch(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("n,d,value\n0,1,2\n")
    with pytest.raises(ValueError):
        read_table_csv(str(p), "gv")
    pt = read_table_csv(str(p), "pt")
    assert pt.value(0, 1) == 2


def test_gv_gw_tables_not_interchangeable():
    gv = GvTable({(0, 1): F(1)}, 1, 1)
    gw = GwTable({(0, 1): F(1)}, 1, 1)
    assert gv != gw


def test_castelnuovo_flag_enforced_on_construction():
    with pytest.raises(ValueError):
        GvTable({(7, 5): F(1)}, 9, 6, castelnuovo_valid=True)
    with pytest.raises(ValueError):
        PtTable({(-51, 20): F(1)}, 20, (-60, 0), castelnuovo_valid=True)
    # boundary entries are allowed: g = B(5) = 6 and n = 1 - B(20) = -50
    GvTable({(6, 5): F(10)}, 9, 6, castelnuovo_valid=True)
    PtTable({(-50, 20): F(175)}, 20, (-60, 0), castelnuovo_valid=True)
    # the (g, d) = (51, 20) boundary: B(20) = 51 exactly
    GvTable({(51, 20): F(175)}, 53, 20, castelnuovo_valid=True)
    with pytest.raises(ValueError, match="threshold"):
        GvTable({(52, 20): F(1)}, 53, 20, castelnuovo_valid=True)


def test_csv_errors_name_file_and_line(tmp_path):
    p = tmp_path / "bad.csv"
    for row, why in [("0,1", "expected 3 fields, got 2"),
                     ("0,1,2,3", "expected 3 fields, got 4"),
                     ("x,1,2", "invalid literal"),
                     ("0,1,2/x", "Invalid literal for Fraction"),
                     ("0,1,1/0", "zero denominator in '1/0'")]:
        p.write_text(f"g,d,value\n0,2,1\n\n{row}\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{p}:4: {why}")):
            read_table_csv(str(p), "gv")


def test_duplicate_keys_rejected(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("g,d,value\n0,1,5\n0,1,7\n")
    with pytest.raises(ValueError, match=r"dup.csv:3: duplicate entry \(0,1\)"):
        read_table_csv(str(p), "gv")
    d = {"kind": "gv", "d_max": 1, "g_max": 0,
         "entries": [[0, 1, "5"], [0, 1, "7"]]}
    with pytest.raises(ValueError, match=r"duplicate entry \(0,1\)"):
        table_from_json_dict(d)


def test_unknown_kind_rejected(tmp_path):
    d = {"kind": "xyz", "d_max": 1, "entries": [[0, 1, "1"]]}
    with pytest.raises(ValueError, match="^unknown table kind 'xyz'$"):
        table_from_json_dict(d)
    p = tmp_path / "xyz.json"
    p.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="unknown table kind 'xyz'"):
        read_table_json(str(p))


def test_json_errors_name_file_and_entry(tmp_path):
    p = tmp_path / "bad.json"
    for entry, why in [([0, 1], "expected [key, d, value], got [0, 1]"),
                       (5, "expected [key, d, value], got 5"),
                       (["x", 1, "2"], "invalid literal"),
                       ([0, 1, "1/0"], "zero denominator in '1/0'"),
                       ([0, 1, None], "argument should be")]:
        p.write_text(json.dumps({"kind": "gw", "d_max": 2, "g_max": 1,
                                 "entries": [[0, 2, "1"], entry]}))
        with pytest.raises(ValueError,
                           match="^" + re.escape(f"{p}: entry 1: {why}")):
            read_table_json(str(p))


def test_json_floats_and_bools_rejected(tmp_path):
    p = tmp_path / "bad.json"
    for entry in ([0, 1.7, "1"], [0, 1, 0.1], [0, 1, 2.0], [True, 1, "1"],
                  [0, 1, False]):
        p.write_text(json.dumps({"kind": "gw", "d_max": 2, "g_max": 1,
                                 "entries": [entry]}))
        why = ("expected integer keys and an exact value, "
               f"got {json.dumps(entry)}")
        with pytest.raises(ValueError,
                           match="^" + re.escape(f"{p}: entry 0: {why}") + "$"):
            read_table_json(str(p))
    # integers and exact text still read
    p.write_text(json.dumps({"kind": "gw", "d_max": 2, "g_max": 1,
                             "entries": [[0, 1, 3], [1, 2, "-1/2"]]}))
    assert read_table_json(str(p)).entries == {(0, 1): 3, (1, 2): F(-1, 2)}


def test_json_metadata_errors_name_the_file(tmp_path):
    p = tmp_path / "meta.json"
    full = {"kind": "gv", "d_max": 1, "g_max": 0, "entries": [[0, 1, "1"]]}
    cases = [({k: v for k, v in full.items() if k != key}, f"missing key '{key}'")
             for key in ("kind", "d_max", "entries")]
    cases += [(dict(full, kind="xyz"), "unknown table kind 'xyz'"),
              ([full], "expected a JSON object")]
    for doc, why in cases:
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="^" + re.escape(f"{p}: {why}") + "$"):
            read_table_json(str(p))
    with pytest.raises(ValueError, match="^missing key 'entries'$"):
        table_from_json_dict(cases[2][0])


@pytest.mark.parametrize("make, why", [
    (lambda: GvTable({}, -1, 1), "g_max must be >= 0, got -1"),
    (lambda: GwTable({}, 0, 0), "d_max must be >= 1, got 0"),
    (lambda: PtTable({}, -3, (0, 1)), "d_max must be >= 1, got -3"),
], ids=["gv_g_max", "gw_d_max", "pt_d_max"])
def test_negative_windows_are_rejected(make, why):
    with pytest.raises(ValueError, match=re.escape(why)):
        make()
    # the smallest windows stay valid
    assert GvTable({}, 0, 1).entries == PtTable({}, 1, (0, 0)).entries == {}


def _write_json(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("make, error, message", [
    (lambda tmp: PtTable({}, 1, (3, 2)), ValueError, "empty q_window"),
    (lambda tmp: read_table_json(_write_json(tmp / "gv.json", {
        "kind": "gv", "g_max": 1, "d_max": 1, "entries": [[2, 1, "5"]]})),
     TruncationError, "{tmp}/gv.json: entry (2,1) outside window g<=1, d<=1"),
], ids=["pt_empty_window", "json_entry_outside_window"])
def test_input_checks_name_the_problem(tmp_path, make, error, message):
    message = message.format(tmp=tmp_path)
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        make(tmp_path)
