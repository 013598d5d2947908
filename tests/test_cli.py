"""End-to-end CLI pipelines, exit codes, and byte determinism."""

from __future__ import annotations

import errno
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from curvecount import cli
from curvecount.cli import main
from curvecount.series import LaurentSeries
from curvecount.tables import (
    GwTable,
    read_table_csv,
    read_table_json,
    table_to_csv,
    table_to_json,
)

F = Fraction


def write(path, text):
    path.write_text(text)
    return str(path)


def test_gv2gw_pipeline(tmp_path):
    src = write(tmp_path / "gv.csv", "g,d,value\n1,1,1\n")
    out = tmp_path / "gw.csv"
    rc = main(["transform", "gv2gw", "--in", src, "--out", str(out),
               "--gmax", "2", "--dmax", "6"])
    assert rc == 0
    gw = read_table_csv(str(out), "gw")
    assert gw.value(1, 6) == F(1, 6)


def test_gw2gv_integrality_failure(tmp_path):
    src = write(tmp_path / "gw.csv", "g,d,value\n0,1,1/2\n")
    out = tmp_path / "gv.csv"
    report = tmp_path / "report.json"
    rc = main(["transform", "gw2gv", "--in", src, "--out", str(out),
               "--gmax", "1", "--dmax", "2", "--integrality",
               "--report", str(report)])
    assert rc == 2
    rep = json.loads(report.read_text())
    assert rep["reports"][0]["check"] == "integrality"
    assert rep["reports"][0]["violations"][0]["value"] == "1/2"


def test_gv2pt_with_castelnuovo(tmp_path):
    # a genus-7 degree-5 entry violates B(5) = 6 and gets zeroed (exit 2)
    src = write(tmp_path / "gv.csv", "g,d,value\n0,1,1\n7,5,2\n")
    out = tmp_path / "pt.csv"
    rc = main(["transform", "gv2pt", "--in", src, "--out", str(out),
               "--dmax", "5", "--qwindow", "-10:10", "--apply-castelnuovo"])
    assert rc == 2
    pt = read_table_csv(str(out), "pt")
    assert all(n >= 1 - 6 for (n, d) in pt.entries if d == 5)


def test_pt2dt(tmp_path):
    src = write(tmp_path / "pt.csv", "n,d,value\n0,1,2\n1,1,3\n")
    dt0 = tmp_path / "dt0.json"
    dt0.write_text(json.dumps(
        LaurentSeries("q", 0, [1, 1, 0, 0], 3).to_json_dict()))
    out = tmp_path / "dt.csv"
    rc = main(["transform", "pt2dt", "--in", src, "--out", str(out),
               "--dt0", str(dt0), "--qwindow", "0:3"])
    assert rc == 0
    dt = read_table_csv(str(out), "pt")
    assert dt.value(1, 1) == 5


def test_bounds_table_row_20(tmp_path):
    out = tmp_path / "bounds.csv"
    rc = main(["bounds", "table", "--n", "5", "--i", "0", "--dmax", "25",
               "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    header = rows[0].split(",")
    d20 = rows[20].split(",")
    assert header[:3] == ["d", "B", "B_floor"]
    assert d20[0] == "20" and d20[1] == "51"


def test_bounds_checks(tmp_path):
    out = tmp_path / "c.json"
    assert main(["bounds", "check", "corollary", "--gmax", "53",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] and rep["equalities"] == [[51, 20]]
    out2 = tmp_path / "p.json"
    assert main(["bounds", "check", "properties", "--dmax", "20",
                 "--rmax", "20", "--parts", "3", "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["passed"]


def test_walls_candidates_csv_and_svg(tmp_path):
    out = tmp_path / "walls.csv"
    svg = tmp_path / "walls.svg"
    rc = main(["walls", "candidates", "--n", "5", "--d", "20", "--b", "-2",
               "--out", str(out), "--emit-svg", str(svg)])
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "k,d1,center_b,radius_sq"
    assert len(rows) == 1 + 9  # 8 candidates at k=1, 1 at k=2
    assert rows[1] == "1,1,-43/10,1049/100"
    body = svg.read_text()
    assert body.startswith("<svg") and body.count("<path") == 9


def test_bcov_plan(tmp_path):
    out = tmp_path / "plan.json"
    rc = main(["bcov", "plan", "--g", "51", "--out", str(out)])
    assert rc == 0
    plan = json.loads(out.read_text())
    assert plan["status"] == "conditional"
    assert plan["extremal_supplements"] == [{"d": 20, "value": 175}]
    assert plan["indices"] == {
        "fixed_regularity": {"start": 0, "stop": 31},
        "castelnuovo_window": {"start": 31, "stop": 51},
        "fixed_gap": {"start": 51, "stop": 151}}
    assert plan["missing_degrees"] == {"start": 20, "stop": 21}
    assert (plan["initial_conditions"], plan["max_vanishing_degree"],
            plan["resolved_conditions"]) == (20, 19, 19)


def test_bcov_gap_solve(tmp_path):
    from curvecount.bcov import ConifoldFrame

    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(ConifoldFrame.toy(12).to_json_dict()))
    known = tmp_path / "known.json"
    known.write_text(json.dumps(LaurentSeries.zero("Delta", 0).to_json_dict()))
    out = tmp_path / "amb.json"
    rc = main(["bcov", "gap-solve", "--g", "2", "--frame", str(frame),
               "--known", str(known), "--out", str(out)])
    assert rc == 0
    amb = json.loads(out.read_text())
    values = {e["index"]: e["value"] for e in amb["coefficients"]}
    assert values[3] == "1/240" and values[2] == "-1/120"


def test_bcov_gap_solve_rejects_a_pole_deeper_than_the_gap(tmp_path, capsys):
    from curvecount.bcov import ConifoldFrame

    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(ConifoldFrame.toy(12).to_json_dict()))
    known = tmp_path / "known.json"
    known.write_text(json.dumps({"variable": "Delta", "min_exp": -3,
                                 "trunc": 0, "coeffs": ["7", "0", "0", "0"]}))
    out = tmp_path / "amb.json"
    rc = main(["bcov", "gap-solve", "--g", "2", "--frame", str(frame),
               "--known", str(known), "--out", str(out)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_validate_command(tmp_path):
    src = write(tmp_path / "gv.csv", "g,d,value\n7,5,1\n")
    rep = tmp_path / "rep.json"
    rc = main(["validate", "--in", src, "--kind", "gv", "--castelnuovo",
               "--report", str(rep)])
    assert rc == 2
    assert not json.loads(rep.read_text())["passed"]
    ok = write(tmp_path / "ok.csv", "g,d,value\n6,5,10\n")
    assert main(["validate", "--in", ok, "--kind", "gv", "--castelnuovo",
                 "--integrality", "--report", str(rep)]) == 0


def test_usage_and_io_errors(tmp_path):
    assert main(["transform", "gv2gw", "--out", "x.csv"]) == 1  # missing --in
    assert main(["transform", "gv2gw", "--in", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "o.csv"),
                 "--gmax", "1", "--dmax", "1"]) == 1
    bad = write(tmp_path / "bad.csv", "x,y\n1,2\n")
    assert main(["transform", "gv2gw", "--in", bad,
                 "--out", str(tmp_path / "o.csv"),
                 "--gmax", "1", "--dmax", "1"]) == 1


def test_short_csv_row_names_file_and_line(tmp_path, capsys):
    src = write(tmp_path / "gv.csv", "g,d,value\n0,1,1\n0,2\n")
    rc = main(["transform", "gv2gw", "--in", src,
               "--out", str(tmp_path / "o.csv"), "--gmax", "1", "--dmax", "2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: {src}:3: expected 3 fields, got 2\n"
    assert not (tmp_path / "o.csv").exists()


def test_duplicate_key_fails_validation_input(tmp_path, capsys):
    src = write(tmp_path / "gv.csv", "g,d,value\n0,1,5\n0,1,7\n")
    rc = main(["validate", "--in", src, "--kind", "gv"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: {src}:3: duplicate entry (0,1)\n"


def test_written_tables_are_the_formatter_text(tmp_path):
    src = write(tmp_path / "gv.csv", "g,d,value\n0,1,2875\n1,2,-3/2\n")
    gw = tmp_path / "gw.csv"
    assert main(["transform", "gv2gw", "--in", src, "--out", str(gw),
                 "--gmax", "2", "--dmax", "4"]) == 0
    assert gw.read_text() == table_to_csv(read_table_csv(str(gw), "gw"))
    pt = tmp_path / "pt.json"
    assert main(["transform", "gv2pt", "--in", src, "--out", str(pt),
                 "--gmax", "3", "--dmax", "3", "--qwindow", "-4:6"]) == 0
    assert pt.read_text() == table_to_json(read_table_json(str(pt)))


def test_zero_denominator_is_a_usage_error(capsys):
    rc = main(["walls", "candidates", "--n", "3", "--d", "1", "--b", "1/0"])
    assert rc == 1
    assert capsys.readouterr().err == "error: zero denominator in '1/0'\n"


@pytest.mark.parametrize("name, text, where", [
    ("gw.csv", "g,d,value\n0,1,1/0\n", ":2:"),
    ("gw.json", json.dumps({"kind": "gw", "d_max": 1, "g_max": 0,
                            "entries": [[0, 1, "1/0"]]}), ": entry 0:"),
], ids=["csv_table", "json_table"])
def test_zero_denominator_in_a_table_names_the_file_and_value(
        tmp_path, capsys, name, text, where):
    src = write(tmp_path / name, text)
    out = tmp_path / "gv.csv"
    assert main(["transform", "gw2gv", "--in", src, "--out", str(out),
                 "--gmax", "0", "--dmax", "1"]) == 1
    assert capsys.readouterr().err == \
        f"error: {src}{where} zero denominator in '1/0'\n"
    assert not out.exists()


def test_determinism(tmp_path):
    src = write(tmp_path / "gv.csv", "g,d,value\n0,1,1\n1,2,3\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["transform", "gv2gw", "--in", src, "--out", str(out),
                     "--gmax", "3", "--dmax", "6"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    svg1, svg2 = tmp_path / "w1.svg", tmp_path / "w2.svg"
    for svg in (svg1, svg2):
        assert main(["walls", "candidates", "--n", "5", "--d", "20",
                     "--b", "-2", "--out", str(tmp_path / "w.csv"),
                     "--emit-svg", str(svg)]) == 0
    assert svg1.read_bytes() == svg2.read_bytes()


def test_config_file_defaults(tmp_path):
    cfg = write(tmp_path / "cc.conf", "gmax = 2\ndmax = 6\n")
    src = write(tmp_path / "gv.csv", "g,d,value\n1,1,1\n")
    out = tmp_path / "gw.csv"
    rc = main(["--config", cfg, "transform", "gv2gw", "--in", src,
               "--out", str(out)])
    assert rc == 0
    gw = read_table_csv(str(out), "gw")
    assert gw.value(1, 6) == F(1, 6)
    # explicit flag wins over the config value
    rc = main(["--config", cfg, "transform", "gv2gw", "--in", src,
               "--out", str(out), "--dmax", "3"])
    assert rc == 0
    assert read_table_csv(str(out), "gw").d_max == 3


def test_config_reaches_options_with_defaults(tmp_path):
    cfg = write(tmp_path / "cc.conf", "gmax = 10  # below the default 53\n")
    out = tmp_path / "c.json"
    assert main(["--config", cfg, "bounds", "check", "corollary",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["g_max"] == 10
    cfg = write(tmp_path / "p.conf", "dmax = 2\n")
    assert main([f"--config={cfg}", "bounds", "check", "properties",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["partitions_checked"] == 1


def test_config_values_are_checked_like_flags(tmp_path, capsys):
    src = write(tmp_path / "gv.csv", "g,d,value\n0,1,1\n")
    for line, argv, why in [
            ("kind = xyz", ["validate", "--in", src],
             "argument --kind: invalid choice: 'xyz'"),
            ("integrality = true", ["validate", "--in", src, "--kind", "gv"],
             "argument --integrality: ignored explicit argument 'true'"),
            ("what = properties", ["bounds", "check", "corollary"],
             "unrecognized arguments: --what=properties"),
            ("gmax = ten", ["bounds", "check", "corollary"],
             "argument --gmax: invalid int value: 'ten'")]:
        cfg = write(tmp_path / "cc.conf", line + "\n")
        assert main(["--config", cfg] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {why}" in captured.err


def test_config_keys_are_long_option_names(tmp_path, capsys):
    src = write(tmp_path / "gv.csv", "g,d,value\n1,1,1\n")
    out = tmp_path / "gw.csv"
    cfg = write(tmp_path / "cc.conf", f"in = {src}\ngmax = 2\ndmax = 6\n")
    assert main(["--config", cfg, "transform", "gv2gw",
                 "--out", str(out)]) == 0
    assert read_table_csv(str(out), "gw").value(1, 6) == F(1, 6)
    cfg = write(tmp_path / "old.conf", f"infile = {src}\n")
    assert main(["--config", cfg, "transform", "gv2gw", "--out", str(out),
                 "--gmax", "2", "--dmax", "6"]) == 1
    assert "unrecognized arguments: --infile=" in capsys.readouterr().err


def test_a_config_line_without_equals_names_file_and_line(tmp_path, capsys):
    cfg = write(tmp_path / "cc.conf", "gmax = 2\n# note\n--bogus line\n")
    assert main(["--config", cfg, "bounds", "check", "corollary"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cfg}:3: expected key = value\n"


@pytest.mark.parametrize("window", ["1", "abc", "1:x", ":5"])
def test_a_bad_qwindow_names_the_option_and_its_form(tmp_path, capsys,
                                                     window):
    src = write(tmp_path / "gv.csv", "g,d,value\n0,1,2875\n")
    out = tmp_path / "pt.csv"
    assert main(["transform", "gv2pt", "--in", src, "--out", str(out),
                 "--dmax", "1", "--qwindow", window]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --qwindow expects n_min:n_max"), err
    assert repr(window) in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("n,d,b", [("5", "4", "-1/2"), ("5", "20", "-3/2")])
def test_a_fractional_negative_b_may_be_a_separate_token(tmp_path, n, d, b):
    joined, split = tmp_path / "joined.csv", tmp_path / "split.csv"
    argv = ["walls", "candidates", "--n", n, "--d", d]
    assert main(argv + [f"--b={b}", "--out", str(joined)]) == 0
    assert main(argv + ["--b", b, "--out", str(split)]) == 0
    assert split.read_bytes() == joined.read_bytes()


def test_no_partial_output_on_failure(tmp_path):
    src = write(tmp_path / "gv.csv", "g,d,value\n3,1,1\n")
    out = tmp_path / "pt.csv"
    # window clips the leading exponent: error, no output file
    rc = main(["transform", "gv2pt", "--in", src, "--out", str(out),
               "--dmax", "1", "--qwindow", "-1:5"])
    assert rc == 1
    assert not out.exists()


def test_gv2pt_refuses_a_window_below_the_threshold(tmp_path, capsys):
    # floor(B(3)) = 3: with --gmax 0 the d = 3 layer would take n_{1,3} = 0
    src = write(tmp_path / "gv.csv",
                "g,d,value\n0,1,2875\n0,2,609250\n0,3,317206375\n")
    out = tmp_path / "pt.csv"
    rc = main(["transform", "gv2pt", "--in", src, "--out", str(out),
               "--gmax", "0", "--dmax", "3", "--qwindow", "1:5"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == ("error: g_max=0 is below floor(B(3))=3: "
                   "the genera above it are unknown\n")
    assert not out.exists()


def test_short_json_entry_names_file_and_entry(tmp_path, capsys):
    src = write(tmp_path / "gw.json",
                json.dumps({"kind": "gw", "d_max": 1, "g_max": 0,
                            "entries": [[0, 1]]}))
    rc = main(["transform", "gw2gv", "--in", src,
               "--out", str(tmp_path / "o.csv"), "--gmax", "1", "--dmax", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: {src}: entry 0: expected [key, d, value], got [0, 1]\n"
    assert "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


def test_float_json_entry_is_a_usage_error(tmp_path, capsys):
    src = write(tmp_path / "gw.json",
                json.dumps({"kind": "gw", "d_max": 2, "g_max": 0,
                            "entries": [[0, 1.7, 0.1]]}))
    out = tmp_path / "o.csv"
    rc = main(["transform", "gw2gv", "--in", src, "--out", str(out),
               "--gmax", "0", "--dmax", "2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == (f"error: {src}: entry 0: expected integer keys and an "
                   "exact value, got [0, 1.7, 0.1]\n")
    assert not out.exists()


def test_json_table_errors_name_the_file(tmp_path, capsys):
    for table, why in [({"kind": "gw", "d_max": 1, "g_max": 0},
                        "missing key 'entries'"),
                       ({"kind": "xyz", "d_max": 1, "entries": []},
                        "unknown table kind 'xyz'")]:
        src = write(tmp_path / "t.json", json.dumps(table))
        rc = main(["transform", "gw2gv", "--in", src,
                   "--out", str(tmp_path / "o.csv"),
                   "--gmax", "0", "--dmax", "1"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {src}: {why}\n"


@pytest.mark.parametrize("field, value, why", [
    ("entries", 5, "entries must be a list, got 5"),
    ("d_max", "2", 'd_max must be an integer, got "2"'),
    ("d_max", True, "d_max must be an integer, got true"),
    ("g_max", "0", 'g_max must be an integer, got "0"'),
], ids=["entries", "d_max", "d_max_bool", "g_max"])
def test_json_table_field_types_are_checked(tmp_path, capsys, field, value,
                                            why):
    table = {"kind": "gw", "d_max": 1, "g_max": 0, "entries": [], field: value}
    src = write(tmp_path / "t.json", json.dumps(table))
    rc = main(["transform", "gw2gv", "--in", src,
               "--out", str(tmp_path / "o.csv"), "--gmax", "0", "--dmax", "1"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {src}: {why}\n"
    assert not (tmp_path / "o.csv").exists()


def test_json_q_window_must_be_two_integers(tmp_path, capsys):
    for value in ("-1:5", [0], [0, "5"], [0, 1, 2]):
        src = write(tmp_path / "pt.json", json.dumps(
            {"kind": "pt", "d_max": 1, "q_window": value, "entries": []}))
        rc = main(["validate", "--in", src, "--kind", "pt"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {src}: q_window must be a list of 2 integers, "
            f"got {json.dumps(value)}\n"), value


def test_json_castelnuovo_flag_must_be_a_boolean(tmp_path, capsys):
    # A string "false" is not the boolean false: it must not switch the
    # threshold check on and reject a table that breaks no declared law.
    src = write(tmp_path / "gv.json", json.dumps(
        {"kind": "gv", "d_max": 1, "g_max": 5, "castelnuovo_valid": "false",
         "entries": [[5, 1, "1"]]}))
    rc = main(["validate", "--in", src, "--kind", "gv"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f'error: {src}: castelnuovo_valid must be true or false, '
        f'got "false"\n')


def test_truncated_json_table_names_the_file(tmp_path, capsys):
    src = write(tmp_path / "t.json", '{"kind": "gw",\n')
    rc = main(["transform", "gw2gv", "--in", src,
               "--out", str(tmp_path / "o.csv"), "--gmax", "0", "--dmax", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == (f"error: {src}: Expecting property name enclosed in "
                   "double quotes: line 2 column 1 (char 15)\n")
    assert "Traceback" not in err


UTF8_FAULT = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
SERIES_ONE = json.dumps(LaurentSeries("q", 0, [1], 0).to_json_dict())


@pytest.mark.parametrize("role, name, data, why", [
    ("in", "pt.csv", b"\xffn,d,value\n", UTF8_FAULT),
    ("in", "pt.json", b"\xff{}", UTF8_FAULT),
    ("dt0", "dt0.json", b"\xff{}", UTF8_FAULT),
    ("dt0", "dt0.json", b'{"variable": "q",\n', "Expecting property name "
     "enclosed in double quotes: line 2 column 1 (char 18)"),
    ("dt0", "dt0.json", b'{"variable": "q", "coeffs": ["1"], "trunc": 0}',
     "missing key 'min_exp'"),
    ("dt0", "dt0.json",
     b'{"variable": "q", "min_exp": 0, "coeffs": 5, "trunc": 0}',
     'coeffs must be a list of "p/q" strings, got 5'),
    ("dt0", "dt0.json",
     b'{"variable": "q", "min_exp": 0, "coeffs": ["1/0"], "trunc": 0}',
     "zero denominator in '1/0'"),
    ("dt0", "dt0.json", b"[1, 2]", "expected a JSON object"),
    ("frame", "frame.json", b"[1, 2]", "expected a JSON object"),
    ("frame", "frame.json", b'{"delta_of_q": ' + SERIES_ONE.encode() + b"}",
     "missing key 'Delta_of_delta'"),
    ("frame", "frame.json", b'{"delta_of_q": 3, "Delta_of_delta": 4}',
     "expected a JSON object"),
    ("known", "known.json", b"\xff{}", UTF8_FAULT),
    ("config", "defaults.cfg", b"\xffdmax = 2\n", UTF8_FAULT),
], ids=["csv_table_utf8", "json_table_utf8", "series_utf8", "series_truncated",
        "series_missing_key", "series_coeffs_not_a_list",
        "series_zero_denominator", "series_top_level_list",
        "frame_top_level_list", "frame_missing_key", "frame_part_not_an_object",
        "known_utf8", "config_utf8"])
def test_input_file_errors_name_the_file(tmp_path, capsys, role, name, data,
                                         why):
    from curvecount.bcov import ConifoldFrame

    bad = tmp_path / "bad" / name
    bad.parent.mkdir()
    bad.write_bytes(data)
    out = str(tmp_path / "out.csv")
    good = {
        "in": write(tmp_path / "pt.csv", "n,d,value\n0,1,1\n"),
        "dt0": write(tmp_path / "dt0.json", SERIES_ONE),
        "frame": write(tmp_path / "frame.json", json.dumps(
            ConifoldFrame.toy(12).to_json_dict())),
        "known": write(tmp_path / "known.json", json.dumps(
            LaurentSeries.zero("Delta", 0).to_json_dict())),
    }
    good[role] = str(bad)
    if role in ("in", "dt0"):
        argv = ["transform", "pt2dt", "--in", good["in"], "--dt0", good["dt0"]]
    elif role in ("frame", "known"):
        argv = ["bcov", "gap-solve", "--g", "2", "--frame", good["frame"],
                "--known", good["known"]]
    else:
        argv = ["--config", good["config"], "bounds", "check", "corollary"]
    argv += ["--out", out]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {bad}: {why}\n"
    assert not (tmp_path / "out.csv").exists()


def test_negative_window_in_a_json_table_is_rejected(tmp_path, capsys):
    src = write(tmp_path / "gv.json", json.dumps(
        {"kind": "gv", "d_max": -3, "g_max": -1, "entries": []}))
    out = tmp_path / "gw.csv"
    assert main(["validate", "--in", src, "--kind", "gv"]) == 1
    assert main(["transform", "gv2gw", "--in", src, "--out", str(out),
                 "--gmax", "-1", "--dmax", "-3"]) == 1
    assert capsys.readouterr().err == \
        f"error: {src}: g_max must be >= 0, got -1\n" * 2
    assert not out.exists()


def test_negative_window_options_are_rejected(tmp_path, capsys):
    src = write(tmp_path / "gv.json", json.dumps(
        {"kind": "gv", "d_max": 1, "g_max": 0, "entries": [[0, 1, "1"]]}))
    out = tmp_path / "gw.csv"
    assert main(["transform", "gv2gw", "--in", src, "--out", str(out),
                 "--gmax", "-1", "--dmax", "-3"]) == 1
    assert capsys.readouterr().err == "error: g_max must be >= 0, got -1\n"
    assert main(["transform", "gv2gw", "--in", src, "--out", str(out),
                 "--gmax", "0", "--dmax", "0"]) == 1
    assert capsys.readouterr().err == "error: d_max must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("direction, flags, message", [
    ("gv2gw", ["--gmax", "-1", "--dmax", "3"], "g_max must be >= 0, got -1"),
    ("gv2gw", ["--gmax", "2", "--dmax", "0"], "d_max must be >= 1, got 0"),
    ("gv2pt", ["--dmax", "0", "--qwindow", "0:4"], "d_max must be >= 1, got 0"),
], ids=["gv2gw_gmax", "gv2gw_dmax", "gv2pt_dmax"])
def test_bad_window_flags_on_a_csv_table_name_no_file(tmp_path, capsys,
                                                      direction, flags,
                                                      message):
    src = write(tmp_path / "gv.csv", "g,d,value\n0,1,2875\n")
    out = tmp_path / "out.csv"
    assert main(["transform", direction, "--in", src, "--out", str(out),
                 *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_gv2gw_and_gw2gv_apply_castelnuovo_report_removed_entries(tmp_path):
    # (7, 5) lies above B(5) = 6: each direction zeroes it and exits 2
    window = ["--gmax", "7", "--dmax", "5"]
    src = write(tmp_path / "gv.csv", "g,d,value\n0,1,2875\n7,5,4\n")
    clean = write(tmp_path / "clean.csv", "g,d,value\n0,1,2875\n")
    gw, gw_clean, back = (tmp_path / n for n in ("gw.csv", "gwc.csv", "b.csv"))
    report = tmp_path / "report.json"
    removed = [{"check": "castelnuovo-gv",
                "violations": [{"key": [7, 5], "value": "4"}]}]
    assert main(["transform", "gv2gw", "--in", src, "--out", str(gw),
                 "--apply-castelnuovo", "--report", str(report),
                 *window]) == 2
    assert json.loads(report.read_text()) == {"reports": removed}
    assert main(["transform", "gv2gw", "--in", clean, "--out", str(gw_clean),
                 *window]) == 0
    assert gw.read_bytes() == gw_clean.read_bytes()
    assert main(["transform", "gv2gw", "--in", src, "--out", str(gw),
                 *window]) == 0
    assert main(["transform", "gw2gv", "--in", str(gw), "--out", str(back),
                 "--apply-castelnuovo", "--report", str(report),
                 *window]) == 2
    assert json.loads(report.read_text()) == {"reports": removed}
    assert back.read_text() == "g,d,value\n0,1,2875\n"


def test_table_of_the_wrong_kind_is_a_usage_error(tmp_path, capsys):
    src = write(tmp_path / "gw.json", table_to_json(GwTable({(0, 1): F(1)}, 0, 1)))
    out = tmp_path / "out.csv"
    assert main(["transform", "gv2gw", "--in", src, "--out", str(out),
                 "--gmax", "0", "--dmax", "1"]) == 1
    assert capsys.readouterr().err == f"error: expected a gv table in {src}\n"
    assert not out.exists()


def test_atomic_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    target = str(tmp_path / "t.csv")
    with pytest.raises(UnicodeEncodeError):  # a lone surrogate
        cli._atomic_write(target, "g,d,value\n\ud800")
    assert list(tmp_path.iterdir()) == []

    def refuse(src, dst):
        raise OSError("rename refused")
    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        cli._atomic_write(target, "g,d,value\n")
    assert list(tmp_path.iterdir()) == []


# sha256 of `bounds table --dmax 25`, pinned before the columns became one list
@pytest.mark.parametrize("n, i, digest", [
    (5, 0, "ca45073373f525d3c6e78c3ae5e2b507a35e4e137636495d8ac56fe562b9d5a6"),
    (4, 1, "bbed13cea7806a2dbcda59b2a876c79cf1ea875989619fd02338eaae1bbfdca1"),
    (3, 2, "863067758a1b943f63ab9321440aeb67ff445f61222a9e8a44956411ad8ae910"),
    (7, 2, "4e3ef7fdaec1bfaa4cfce0fd5066defc172b51d282c218b0b930bc9190237154"),
])
def test_bounds_table_bytes(tmp_path, n, i, digest):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "table", "--n", str(n), "--i", str(i),
                 "--dmax", "25", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, message", [
    (["bounds", "check", "properties", "--dmax", "-2", "--rmax", "0",
      "--parts", "0"], "d_max must be >= 2, got -2"),
    (["bounds", "check", "properties", "--dmax", "1", "--rmax", "1",
      "--parts", "2"], "d_max must be >= 2, got 1"),
    (["bounds", "check", "corollary", "--gmax", "-4"],
     "g_max must be >= 0, got -4"),
    (["bounds", "table", "--n", "5", "--i", "0", "--dmax", "-3"],
     "d_max must be >= 1, got -3"),
], ids=["properties", "properties_dmax_one", "corollary", "table"])
def test_bounds_commands_reject_an_empty_range(tmp_path, capsys, argv,
                                               message):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_bounds_table_rejects_a_profile_of_degree_zero(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["bounds", "table", "--n", "0", "--i", "0", "--dmax", "2",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: degree must be >= 1, got 0\n"
    assert not out.exists()


# an argv each command accepts once --in (and for transforms --out) is added
_BASE_ARGV = {
    "gv2gw": ["transform", "gv2gw", "--gmax", "1", "--dmax", "1"],
    "gw2gv": ["transform", "gw2gv", "--gmax", "1", "--dmax", "1"],
    "gv2pt": ["transform", "gv2pt", "--dmax", "1", "--qwindow", "0:3"],
    "pt2dt": ["transform", "pt2dt", "--dt0", "dt0.json"],
    "validate --kind pt": ["validate", "--kind", "pt", "--report", "r.json"],
}


_UNREAD = [
    ("gv2gw", ["--qwindow", "0:3"]),
    ("gv2gw", ["--dt0", "nope.json"]),
    ("gv2gw", ["--integrality"]),
    ("gw2gv", ["--qwindow", "0:3"]),
    ("gw2gv", ["--dt0", "nope.json"]),
    ("gv2pt", ["--dt0", "nope.json"]),
    ("gv2pt", ["--integrality"]),
    ("pt2dt", ["--gmax", "3"]),
    ("pt2dt", ["--apply-castelnuovo"]),
    ("pt2dt", ["--integrality"]),
    ("validate --kind pt", ["--gmax", "3"]),
    ("validate --kind pt", ["--integrality"]),
]


@pytest.mark.parametrize("label, flag", _UNREAD, ids=[
    f"{label.replace(' --kind ', '-')}{flag[0]}" for label, flag in _UNREAD])
def test_an_option_the_command_does_not_read_is_a_usage_error(
        tmp_path, monkeypatch, capsys, label, flag):
    monkeypatch.chdir(tmp_path)  # no input exists; nothing may be written
    argv = _BASE_ARGV[label] + ["--in", "absent.csv", *flag]
    if argv[0] == "transform":
        argv += ["--out", "out.csv"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {label} does not read {flag[0]}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("line, label, option", [
    ("qwindow = 0:3", "gv2gw", "--qwindow"),
    ("gmax = 2", "pt2dt", "--gmax"),
], ids=["gv2gw--qwindow", "pt2dt--gmax"])
def test_an_unread_config_key_is_a_usage_error(tmp_path, capsys, line, label,
                                               option):
    cfg = write(tmp_path / "cc.conf", line + "\n")
    out = tmp_path / "out.csv"
    argv = _BASE_ARGV[label] + [
        "--in", str(tmp_path / "absent.csv"), "--out", str(out)]
    assert main(["--config", cfg] + argv) == 1
    assert capsys.readouterr().err == f"error: {label} does not read {option}\n"
    assert not out.exists()


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    """main() builds its parser on the first call only; calls that mix
    subcommands, a --config run and usage errors give the exit codes,
    streams and files that a parser built afresh for each call gives."""
    src = write(tmp_path / "gv.csv", "g,d,value\n0,1,2875\n1,2,1/7\n")
    cfg = write(tmp_path / "cc.conf", "gmax = 1\ndmax = 2\n")

    def session(out, fresh):
        out.mkdir()
        runs = [
            ["transform", "gv2gw", "--in", src, "--out", str(out / "gw.csv"),
             "--gmax", "1", "--dmax", "2"],
            ["transform", "sideways"],
            ["--config", cfg, "transform", "gw2gv", "--in",
             str(out / "gw.csv"), "--out", str(out / "gv.csv")],
            ["bounds", "check", "corollary", "--gmax", "5"],
            ["transform", "gv2gw", "--in", src, "--out", str(out / "x.csv"),
             "--gmax", "1", "--dmax", "2", "--qwindow", "0:4"],
            ["transform", "gv2pt", "--in", src, "--gmax", "2", "--dmax", "2",
             "--qwindow", "-2:6", "--out", str(out / "pt.json")],
            ["walls", "candidates", "--n", "5", "--d", "20", "--b", "-1"],
        ]
        seen = []
        for argv in runs:
            if fresh:
                cli.build_parser.cache_clear()
            rc = main(argv)
            captured = capsys.readouterr()
            seen.append((rc, captured.out, captured.err))
        return seen, {p.name: p.read_bytes() for p in out.iterdir()}

    cli.build_parser.cache_clear()
    seen, files = session(tmp_path / "cached", fresh=False)
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(seen) - 1)
    assert [rc for rc, _, _ in seen] == [0, 1, 0, 0, 1, 0, 0]
    for _, out, err in (seen[1], seen[4]):
        assert out == ""
        assert err.splitlines()[-1].startswith("error: ")
    assert seen[1][2].startswith("usage: curvecount transform")
    assert sorted(files) == ["gv.csv", "gw.csv", "pt.json"]
    assert session(tmp_path / "fresh", fresh=True) == (seen, files)


def test_cli_imports_walls_svg_and_bcov_only_for_their_subcommands(tmp_path):
    """A fresh `import curvecount.cli` loads no module that only one
    subcommand uses; `bcov plan` and `walls candidates --emit-svg` still
    run, each loading its own modules."""
    script = """if True:
        import sys
        from curvecount import cli
        deferred = ("curvecount.walls", "curvecount.svg", "curvecount.bcov")
        assert not set(deferred) & set(sys.modules), sorted(sys.modules)
        out, svg = sys.argv[1:]
        assert cli.main(["bcov", "plan", "--g", "5", "--out", out]) == 0
        assert cli.main(["walls", "candidates", "--n", "5", "--d", "20",
                         "--b", "-2", "--emit-svg", svg]) == 0
        assert set(deferred) <= set(sys.modules)
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    plan, svg = tmp_path / "plan.json", tmp_path / "walls.svg"
    done = subprocess.run([sys.executable, "-c", script, str(plan), str(svg)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(plan.read_text())["g"] == 5
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize("what, flags, config, unread", [
    ("corollary", ["--gmax", "3", "--dmax", "999", "--rmax", "7",
                   "--parts", "9"], "", "dmax"),
    ("properties", ["--gmax", "0", "--dmax", "5"], "", "gmax"),
    ("corollary", [], "rmax = 7\n", "rmax"),
], ids=["corollary_flags", "properties_flag", "corollary_config_key"])
def test_bounds_check_rejects_an_option_it_does_not_read(tmp_path, capsys,
                                                          what, flags, config,
                                                          unread):
    cfg = write(tmp_path / "cc.conf", config)
    out = tmp_path / "out.json"
    assert main(["--config", cfg, "bounds", "check", what, *flags,
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bounds check {what} does not read --{unread}\n"
    assert not out.exists()


_JSON_WINDOW = [
    ("gv2pt", ["--gmax", "0"]),
    ("pt2dt", ["--dmax", "5"]),
    ("pt2dt", ["--qwindow", "0:1"]),
    ("validate --kind gv", ["--gmax", "0"]),
    ("validate --kind gv", ["--dmax", "1"]),
    ("validate --kind pt", ["--dmax", "1"]),
]


@pytest.mark.parametrize("label, flag", _JSON_WINDOW, ids=[
    f"{label.replace(' --kind ', '-')}{flag[0]}" for label, flag in _JSON_WINDOW])
def test_a_csv_window_option_on_a_json_table_is_a_usage_error(
        tmp_path, monkeypatch, capsys, label, flag):
    """A JSON table carries its own window, so an option that only states a
    CSV table's window is refused before the file is read."""
    monkeypatch.chdir(tmp_path)  # no input exists; nothing may be written
    base = {**_BASE_ARGV, "validate --kind gv": [
        "validate", "--kind", "gv", "--report", "r.json"]}[label]
    argv = base + ["--in", "absent.json", *flag]
    if argv[0] == "transform":
        argv += ["--out", "out.json"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {label} does not read {flag[0]} for a JSON table\n")
    assert list(tmp_path.iterdir()) == []


def test_a_csv_window_config_key_on_a_json_table_is_a_usage_error(tmp_path,
                                                                 capsys):
    src = write(tmp_path / "g.json", json.dumps(
        {"kind": "gv", "d_max": 2, "g_max": 3,
         "entries": [[0, 1, "2875"], [0, 2, "609250"]]}))
    cfg = write(tmp_path / "cc.conf", "gmax = 0\n")
    out = tmp_path / "pt.json"
    assert main(["--config", cfg, "transform", "gv2pt", "--in", src,
                 "--dmax", "2", "--qwindow", "-3:5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: gv2pt does not read --gmax for a JSON table\n")
    assert not out.exists()
    assert main(["transform", "gv2pt", "--in", src, "--dmax", "2",
                 "--qwindow", "-3:5", "--out", str(out)]) == 0


@pytest.mark.parametrize("role", ["in", "dt0", "frame", "known"])
def test_a_json_file_nested_too_deeply_is_an_error_not_a_traceback(
        tmp_path, capsys, role):
    from curvecount.bcov import ConifoldFrame

    text = "[" * 100000 + "]" * 100000
    with pytest.raises(RecursionError) as caught:
        json.loads(text)
    why = str(caught.value)
    deep = write(tmp_path / "deep.json", text)
    good = {
        "in": write(tmp_path / "pt.csv", "n,d,value\n0,1,1\n"),
        "dt0": write(tmp_path / "dt0.json", SERIES_ONE),
        "frame": write(tmp_path / "frame.json", json.dumps(
            ConifoldFrame.toy(12).to_json_dict())),
        "known": write(tmp_path / "known.json", json.dumps(
            LaurentSeries.zero("Delta", 0).to_json_dict())),
        role: deep,
    }
    out = tmp_path / "out.json"
    if role in ("in", "dt0"):
        argv = ["transform", "pt2dt", "--in", good["in"], "--dt0", good["dt0"]]
    else:
        argv = ["bcov", "gap-solve", "--g", "2", "--frame", good["frame"],
                "--known", good["known"]]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {deep}: {why}\n"
    assert not out.exists()


@pytest.mark.parametrize("target", ["out", "report", "emit-svg"])
def test_a_failed_write_names_the_requested_path(tmp_path, capsys, target):
    src = write(tmp_path / "gv.csv", "g,d,value\n0,1,2875\n")
    missing = str(tmp_path / "missing" / "x")
    written = {"out": [], "report": ["gw.csv"], "emit-svg": ["w.csv"]}[target]
    if target == "emit-svg":
        argv = ["walls", "candidates", "--n", "5", "--d", "20", "--b", "-2",
                "--out", str(tmp_path / "w.csv"), "--emit-svg", missing]
    else:
        out = missing if target == "out" else str(tmp_path / "gw.csv")
        argv = ["transform", "gv2gw", "--in", src, "--gmax", "1", "--dmax", "1",
                "--out", out]
        if target == "report":
            argv += ["--report", missing]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: "
        f"{missing!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gv.csv"] + written


def test_a_failed_rename_names_the_target_and_leaves_no_file(tmp_path,
                                                             capsys):
    src = write(tmp_path / "gv.csv", "g,d,value\n0,1,2875\n")
    target = tmp_path / "gw.csv"
    target.mkdir()
    assert main(["transform", "gv2gw", "--in", src, "--gmax", "1",
                 "--dmax", "1", "--out", str(target)]) == 1
    assert capsys.readouterr().err == (
        f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
        f"{str(target)!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gv.csv", "gw.csv"]
    assert list(target.iterdir()) == []
