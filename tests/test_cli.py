"""End-to-end CLI pipelines, exit codes, and byte determinism."""

from __future__ import annotations

import json
from fractions import Fraction

from curvecount.cli import main
from curvecount.series import LaurentSeries
from curvecount.tables import (
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
                 "--dmax", "3", "--qwindow", "-4:6"]) == 0
    assert pt.read_text() == table_to_json(read_table_json(str(pt)))


def test_zero_denominator_is_a_usage_error(capsys):
    rc = main(["walls", "candidates", "--n", "3", "--d", "1", "--b", "1/0"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


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


def test_no_partial_output_on_failure(tmp_path):
    src = write(tmp_path / "gv.csv", "g,d,value\n3,1,1\n")
    out = tmp_path / "pt.csv"
    # window clips the leading exponent: error, no output file
    rc = main(["transform", "gv2pt", "--in", src, "--out", str(out),
               "--dmax", "1", "--qwindow", "-1:5"])
    assert rc == 1
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
