"""Command-line front end.

Subcommands: transform (gv2gw, gw2gv, gv2pt, pt2dt), bounds (table, check),
walls (candidates), bcov (plan, gap-solve), validate.  All data files carry
exact "p/q" strings; identical configuration and inputs produce byte-identical
outputs.  Exit codes: 0 clean, 1 usage/IO/parse error, 2 validation failure.
``_atomic_write`` is the one file writer: it writes a temporary sibling and
renames it atomically, so failures never leave partial files.  Table text
comes from ``tables``.  An optional config file of ``key = value`` lines
(keys are long option names) supplies defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

from . import bcov as bcov_mod
from . import bounds as bounds_mod
from . import transforms
from .series import LaurentSeries, WindowError, format_rational
from .svg import render_candidates_svg
from .tables import (
    TruncationError,
    read_table_csv,
    read_table_json,
    table_to_csv,
    table_to_json,
)
from .walls import enumerate_destabilizers

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-curvecount-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_out(path: str | None, body: str) -> None:
    """Write body to path atomically, or to stdout when no path is given."""
    if path:
        _atomic_write(path, body)
    else:
        sys.stdout.write(body)


def _write_table(table, path: str) -> None:
    _atomic_write(path, table_to_json(table) if path.endswith(".json")
                  else table_to_csv(table))


def _read_table(path: str, kind: str, **kw):
    if path.endswith(".json"):
        table = read_table_json(path)
        if table.kind != kind:
            raise ValueError(f"expected a {kind} table in {path}")
        return table
    return read_table_csv(path, kind, **kw)


def _load_series(path: str) -> LaurentSeries:
    with open(path, "r", encoding="utf-8") as fh:
        return LaurentSeries.from_json_dict(json.load(fh))


def _write_json(path: str | None, payload: dict) -> None:
    _write_out(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _parse_window(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


def _with_config(argv: list[str], args: argparse.Namespace) -> list[str]:
    """argv with ``--key=value`` for each ``key = value`` config line.

    The tokens go right after the (sub)command, so argparse types and checks
    them like any flag and the explicit flags that follow win.
    """
    tokens = []
    with open(args.config, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                key, _, value = line.partition("=")
                tokens.append(f"--{key.strip()}={value.strip()}")
    at = 0
    while argv[at].startswith("-"):  # --config PATH or --config=PATH
        at += 1 if "=" in argv[at] else 2
    at += 2 if hasattr(args, "action") else 1
    return argv[:at] + tokens + argv[at:]


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise _UsageError(f"missing required option --{name.replace('_', '-')}")


def build_parser() -> _Parser:
    p = _Parser(prog="curvecount", description=__doc__.splitlines()[0])
    p.add_argument("--config", help="key = value defaults file (flags win)")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    tr = sub.add_parser("transform", help="convert invariant tables")
    tr.add_argument("direction", choices=["gv2gw", "gw2gv", "gv2pt", "pt2dt"])
    tr.add_argument("--in", dest="infile", help="input table (csv or json)")
    tr.add_argument("--out", dest="outfile", help="output table (csv or json)")
    tr.add_argument("--gmax", type=int, default=None)
    tr.add_argument("--dmax", type=int, default=None)
    tr.add_argument("--qwindow", default=None, help="n_min:n_max")
    tr.add_argument("--dt0", default=None, help="degree-0 series (json)")
    tr.add_argument("--apply-castelnuovo", action="store_true")
    tr.add_argument("--integrality", action="store_true")
    tr.add_argument("--report", default=None, help="validation report (json)")

    bd = sub.add_parser("bounds", help="genus-bound tables and checks")
    bd_sub = bd.add_subparsers(dest="action", required=True, parser_class=_Parser)
    bt = bd_sub.add_parser("table")
    bt.add_argument("--n", type=int, default=None)
    bt.add_argument("--i", type=int, default=None)
    bt.add_argument("--dmax", type=int, default=None)
    bt.add_argument("--out", dest="outfile", default=None)
    bc = bd_sub.add_parser("check")
    bc.add_argument("what", choices=["corollary", "properties"])
    bc.add_argument("--gmax", type=int, default=53)
    bc.add_argument("--dmax", type=int, default=30)
    bc.add_argument("--rmax", type=int, default=30)
    bc.add_argument("--parts", type=int, default=4)
    bc.add_argument("--out", dest="outfile", default=None)

    wl = sub.add_parser("walls", help="destabilizer candidates")
    wl_sub = wl.add_subparsers(dest="action", required=True, parser_class=_Parser)
    wc = wl_sub.add_parser("candidates")
    wc.add_argument("--n", type=int, default=None)
    wc.add_argument("--d", type=int, default=None)
    wc.add_argument("--b", default=None, help="tilt parameter, exact p/q")
    wc.add_argument("--out", dest="outfile", default=None, help="csv output")
    wc.add_argument("--emit-svg", dest="svgfile", default=None)

    bv = sub.add_parser("bcov", help="ambiguity plans and gap solves")
    bv_sub = bv.add_subparsers(dest="action", required=True, parser_class=_Parser)
    bp = bv_sub.add_parser("plan")
    bp.add_argument("--g", type=int, default=None)
    bp.add_argument("--out", dest="outfile", default=None)
    bs = bv_sub.add_parser("gap-solve")
    bs.add_argument("--g", type=int, default=None)
    bs.add_argument("--frame", default=None, help="conifold frame (json)")
    bs.add_argument("--known", default=None, help="known-terms series (json)")
    bs.add_argument("--out", dest="outfile", default=None)

    va = sub.add_parser("validate", help="check a table file")
    va.add_argument("--in", dest="infile", default=None)
    va.add_argument("--kind", choices=["gv", "pt"], default=None)
    va.add_argument("--gmax", type=int, default=None)
    va.add_argument("--dmax", type=int, default=None)
    va.add_argument("--integrality", action="store_true")
    va.add_argument("--castelnuovo", action="store_true")
    va.add_argument("--report", default=None)
    return p


def _violation_payload(kind: str, items) -> dict:
    return {"check": kind,
            "violations": [{"key": list(k), "value": format_rational(v)}
                           for k, v in items]}


def _vanishing(table, reports: list):
    """Apply the table's threshold law and report the entries it removed."""
    table, rep = transforms.apply_castelnuovo_vanishing(table)
    reports.append(_violation_payload(f"castelnuovo-{table.kind}", rep.removed))
    return table


def _integrality(table, reports: list) -> None:
    reports.append(_violation_payload("integrality",
                                      transforms.integrality_check(table)))


def _failed(reports: list) -> bool:
    return any(r["violations"] for r in reports)


def _run_transform(args) -> int:
    _require(args, "infile", "outfile")
    reports = []
    if args.direction == "gv2gw":
        _require(args, "gmax", "dmax")
        gv = _read_table(args.infile, "gv", g_max=args.gmax, d_max=args.dmax)
        if args.apply_castelnuovo:
            gv = _vanishing(gv, reports)
        out = transforms.gv_to_gw(gv, args.gmax, args.dmax)
    elif args.direction == "gw2gv":
        _require(args, "gmax", "dmax")
        gw = _read_table(args.infile, "gw", g_max=args.gmax, d_max=args.dmax)
        out = transforms.gw_to_gv(gw, args.gmax, args.dmax)
        if args.integrality:
            _integrality(out, reports)
        if args.apply_castelnuovo:
            out = _vanishing(out, reports)
    elif args.direction == "gv2pt":
        _require(args, "dmax", "qwindow")
        gv = _read_table(args.infile, "gv", g_max=args.gmax, d_max=args.dmax)
        window = _parse_window(args.qwindow)
        connected = transforms.gv_to_pt_connected(gv, args.dmax, window)
        out = transforms.pt_connected_to_table(connected)
        if args.apply_castelnuovo:
            out = _vanishing(out, reports)
    else:  # pt2dt
        _require(args, "dt0")
        window = _parse_window(args.qwindow) if args.qwindow else None
        pt = _read_table(args.infile, "pt", q_window=window, d_max=args.dmax)
        out = transforms.pt_to_dt(pt, _load_series(args.dt0))
    _write_table(out, args.outfile)
    if args.report:
        _write_json(args.report, {"reports": reports})
    return EXIT_VALIDATION if _failed(reports) else EXIT_OK


def _run_bounds(args) -> int:
    if args.action == "table":
        _require(args, "n", "i", "dmax")
        n, i, dmax = args.n, args.i, args.dmax
        profile = bounds_mod.ThreefoldProfile.general(n, i)
        quintic = (n, i) == (5, 0)
        cols = ["d", "general", "general_floor"]
        if quintic:
            cols = ["d", "B", "B_floor", "hyp_bound", "hyp_bound_floor",
                    "nonhyp_bound", "nonhyp_bound_floor",
                    "general", "general_floor"]
        elif n <= 5:
            cols = ["d", "hyp_bound", "hyp_bound_floor",
                    "nonhyp_bound", "nonhyp_bound_floor",
                    "general", "general_floor"]
        lines = [",".join(cols)]
        for d in range(1, dmax + 1):
            row = [str(d)]
            if quintic:
                b = bounds_mod.bps_threshold(d)
                row += [format_rational(b), str(math.floor(b))]
            if n <= 5:
                h = bounds_mod.genus_bound_hypersurface(n, d)
                nh = bounds_mod.genus_bound_nonhyperplane(n, d)
                row += [format_rational(h.bound), str(h.bound_floor),
                        format_rational(nh.bound), str(nh.bound_floor)]
            gen = bounds_mod.genus_bound_general(profile, d)
            row += [format_rational(gen.bound), str(gen.bound_floor)]
            lines.append(",".join(row))
        _write_out(args.outfile, "\n".join(lines) + "\n")
        return EXIT_OK
    if args.what == "corollary":
        rep = bounds_mod.castelnuovo_corollary_check(args.gmax)
        payload = {
            "check": "castelnuovo-corollary",
            "g_max": rep.g_max,
            "pairs_checked": rep.checked,
            "equalities": [list(e) for e in rep.equalities],
            "violations": [list(v) for v in rep.violations],
            "passed": rep.passed,
        }
        _write_json(args.outfile, payload)
        return EXIT_OK if rep.passed else EXIT_VALIDATION
    rep = bounds_mod.bound_function_properties(args.dmax, args.rmax, args.parts)
    payload = {
        "check": "bound-function-properties",
        "partitions_checked": rep.partitions_checked,
        "covers_checked": rep.covers_checked,
        "superadditivity_violations": [list(map(str, v)) for v in
                                       rep.superadditivity_violations],
        "cover_violations": [list(v) for v in rep.cover_violations],
        "strictness_violations": [list(v) for v in rep.strictness_violations],
        "passed": rep.passed,
    }
    _write_json(args.outfile, payload)
    return EXIT_OK if rep.passed else EXIT_VALIDATION


def _run_walls(args) -> int:
    _require(args, "n", "d", "b")
    cands = enumerate_destabilizers(args.n, args.d, Fraction(args.b))
    lines = ["k,d1,center_b,radius_sq"]
    for c in cands:
        lines.append(f"{c.k},{c.d1},{format_rational(c.wall.center_b)},"
                     f"{format_rational(c.wall.radius_sq)}")
    _write_out(args.outfile, "\n".join(lines) + "\n")
    if args.svgfile:
        title = f"numerical wall candidates n={args.n} d={args.d} b={args.b}"
        _atomic_write(args.svgfile, render_candidates_svg(cands, title))
    return EXIT_OK


def _run_bcov(args) -> int:
    _require(args, "g")
    g = args.g
    if args.action == "plan":
        _write_json(args.outfile, bcov_mod.resolution_plan(g).to_json_dict())
        return EXIT_OK
    _require(args, "frame", "known")
    with open(args.frame, "r", encoding="utf-8") as fh:
        frame = bcov_mod.ConifoldFrame.from_json_dict(json.load(fh))
    known = _load_series(args.known)
    values = bcov_mod.gap_solve(g, known, frame)
    amb = bcov_mod.HolomorphicAmbiguity.blank(g).with_values(
        values, bcov_mod.STATUS_GAP)
    _write_json(args.outfile, amb.to_json_dict())
    return EXIT_OK


def _run_validate(args) -> int:
    _require(args, "infile", "kind")
    reports = []
    if args.kind == "gv":
        table = _read_table(args.infile, "gv", g_max=args.gmax,
                            d_max=args.dmax)
        if args.integrality:
            _integrality(table, reports)
    else:
        table = _read_table(args.infile, "pt",
                            d_max=args.dmax)
    if args.castelnuovo:
        _vanishing(table, reports)
    failed = _failed(reports)
    payload = {"file": os.path.basename(args.infile), "reports": reports,
               "passed": not failed}
    _write_json(args.report, payload)
    return EXIT_VALIDATION if failed else EXIT_OK


_RUNNERS = {
    "transform": _run_transform,
    "bounds": _run_bounds,
    "walls": _run_walls,
    "bcov": _run_bcov,
    "validate": _run_validate,
}


def _joined_window_args(argv: list[str]) -> list[str]:
    """Fold ``--qwindow -10:10`` into one token; bare ``-10:10`` trips argparse."""
    out: list[str] = []
    skip = False
    for idx, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--qwindow" and idx + 1 < len(argv):
            out.append(f"--qwindow={argv[idx + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _joined_window_args(list(argv))
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(_with_config(argv, args))
        return _RUNNERS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, ZeroDivisionError, WindowError,
            TruncationError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
