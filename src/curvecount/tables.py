"""Finite invariant tables and their file formats.

GV/GW tables map (genus g >= 0, degree d >= 1) to exact rationals; PT/DT
tables map (holomorphic Euler characteristic n, degree d >= 1).  Only nonzero
entries are stored.  Absence means zero *inside* the declared truncation
window and unknown outside it; `value()` enforces that distinction.  Each
table shape states its vanishing law once, in `forbids()`.

This module owns the file formats and writes no files: `table_to_csv` and
`table_to_json` return the text, and the readers reject duplicate keys.
CSV has header ``g,d,value`` (GV/GW) or ``n,d,value`` (PT/DT), values as
exact "p/q" strings, rows sorted by (d, g|n); JSON mirrors the same entries
plus the truncation metadata.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .bounds import _at_least, bps_threshold_floor
from .series import (_coerce, _is_int, _json_fields, format_rational,
                     parse_rational)

__all__ = [
    "GvTable",
    "GwTable",
    "PtTable",
    "TruncationError",
    "read_table_csv",
    "read_table_json",
    "table_to_csv",
    "table_to_json",
    "table_from_json_dict",
]


class TruncationError(ValueError):
    """A value outside a table's declared truncation window was required."""


class _Table:
    """Window check, lookup and row order; a shape adds its window and law."""

    def __post_init__(self):
        _at_least(g_max=(getattr(self, "g_max", 0), 0), d_max=(self.d_max, 1))
        entries = ((k, _coerce(v)) for k, v in self.entries.items())
        object.__setattr__(self, "entries", {k: v for k, v in entries if v})
        for (a, d) in self.entries:
            if not self._in_window(a, d):
                raise TruncationError(
                    f"entry ({a},{d}) outside window {self._window_text()}")
            if self.castelnuovo_valid and self.forbids(a, d):
                raise ValueError(
                    f"entry ({a},{d}) violates the declared {self._law} threshold")

    @staticmethod
    def forbids(a: int, d: int) -> bool:
        """Whether the vanishing law forces the (a, d) entry to zero."""
        return False

    def value(self, a: int, d: int) -> Fraction:
        if not self._in_window(a, d):
            raise TruncationError(
                f"({a},{d}) outside the known window {self._window_text()}")
        return self.entries.get((a, d), Fraction(0))

    def sorted_items(self) -> list[tuple[tuple[int, int], Fraction]]:
        return sorted(self.entries.items(), key=lambda kv: (kv[0][1], kv[0][0]))


@dataclass(frozen=True)
class _GenusTable(_Table):
    entries: dict[tuple[int, int], Fraction]
    g_max: int
    d_max: int
    castelnuovo_valid: bool = False

    def _in_window(self, g: int, d: int) -> bool:
        return 0 <= g <= self.g_max and 1 <= d <= self.d_max

    def _window_text(self) -> str:
        return f"g<={self.g_max}, d<={self.d_max}"


class GvTable(_GenusTable):
    """Gopakumar-Vafa table n_g^d: integral for BPS data, zero for g > B(d)."""

    kind = "gv"
    _law = "genus"

    @staticmethod
    def forbids(g: int, d: int) -> bool:
        return g > bps_threshold_floor(d)


class GwTable(_GenusTable):
    """Gromov-Witten table N_{g,d}; genuinely rational, no vanishing law."""

    kind = "gw"


@dataclass(frozen=True)
class PtTable(_Table):
    """Stable-pair table P_{n,d}, zero for n < 1 - B(d); also stores DT I_{n,d}."""

    entries: dict[tuple[int, int], Fraction]
    d_max: int
    q_window: tuple[int, int]
    castelnuovo_valid: bool = False
    kind = "pt"
    _law = "vanishing"

    def __post_init__(self):
        if self.q_window[0] > self.q_window[1]:
            raise ValueError("empty q_window")
        super().__post_init__()

    @staticmethod
    def forbids(n: int, d: int) -> bool:
        return n < 1 - bps_threshold_floor(d)

    def _in_window(self, n: int, d: int) -> bool:
        return 1 <= d <= self.d_max and self.q_window[0] <= n <= self.q_window[1]

    def _window_text(self) -> str:
        return f"d<={self.d_max}, n in [{self.q_window[0]},{self.q_window[1]}]"


_FIRST_COLUMN = {"gv": "g", "gw": "g", "pt": "n"}


def _add_entry(entries: dict, a, d, v) -> None:
    """Add one row: integer keys and an exact value, or their CSV text."""
    key = (int(a), int(d))
    if key in entries:
        raise ValueError(f"duplicate entry ({key[0]},{key[1]})")
    entries[key] = parse_rational(v)


def table_to_csv(table) -> str:
    lines = [f"{_FIRST_COLUMN[table.kind]},d,value"]
    lines += [f"{a},{d},{format_rational(v)}" for (a, d), v in table.sorted_items()]
    return "\n".join(lines) + "\n"


def read_table_csv(path: str, kind: str, *, g_max: int | None = None,
                   d_max: int | None = None,
                   q_window: tuple[int, int] | None = None):
    """Read a table; truncation bounds default to the support's extent.

    Malformed rows raise ValueError("<path>:<line>: ...").
    """
    entries: dict[tuple[int, int], Fraction] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        expect = f"{_FIRST_COLUMN[kind]},d,value"
        if header != expect:
            raise ValueError(
                f"{path}:1: bad header {header!r}, expected {expect!r}")
        for lineno, line in enumerate(fh, start=2):
            fields = line.strip().split(",")
            if fields == [""]:
                continue
            try:
                if len(fields) != 3:
                    raise ValueError(f"expected 3 fields, got {len(fields)}")
                _add_entry(entries, *fields)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return _build_table(kind, entries, g_max=g_max, d_max=d_max, q_window=q_window)


def _build_table(kind: str, entries: dict, *, g_max=None, d_max=None,
                 q_window=None, castelnuovo_valid: bool = False):
    firsts = [k[0] for k in entries] or [0]
    ds = [k[1] for k in entries] or [1]
    if d_max is None:
        d_max = max(ds)
    if kind in ("gv", "gw"):
        if g_max is None:
            g_max = max(firsts)
        cls = GvTable if kind == "gv" else GwTable
        return cls(entries, g_max, d_max, castelnuovo_valid)
    if q_window is None:
        q_window = (min(firsts), max(firsts))
    return PtTable(entries, d_max, q_window, castelnuovo_valid)


def table_to_json(table) -> str:
    """``json.dumps(d, sort_keys=True, indent=1)`` of the table's dict d,
    plus a newline.

    ``indent`` keeps json off its C encoder, so only the metadata, with
    "entries" empty, goes through json.dumps; the rows are spliced into
    that list in the same layout.
    """
    d = {
        "kind": table.kind,
        "d_max": table.d_max,
        "castelnuovo_valid": table.castelnuovo_valid,
        "entries": [],
    }
    if isinstance(table, PtTable):
        d["q_window"] = list(table.q_window)
    else:
        d["g_max"] = table.g_max
    text = json.dumps(d, sort_keys=True, indent=1)
    rows = ",\n".join(f'  [\n   {a},\n   {deg},\n   "{format_rational(v)}"\n  ]'
                      for (a, deg), v in table.sorted_items())
    if rows:
        text = text.replace('"entries": []', f'"entries": [\n{rows}\n ]', 1)
    return text + "\n"


def table_from_json_dict(d: dict):
    """Table from its JSON form; a malformed one raises ValueError."""
    kind, d_max, rows = _json_fields(d, "kind", "d_max", "entries")
    if kind not in ("gv", "gw", "pt"):
        raise ValueError(f"unknown table kind {kind!r}")
    g_max, q_window = d.get("g_max"), d.get("q_window")
    valid = d.get("castelnuovo_valid", False)
    for key, value, ok, want in [
            ("entries", rows, isinstance(rows, list), "a list"),
            ("d_max", d_max, _is_int(d_max), "an integer"),
            ("g_max", g_max, g_max is None or _is_int(g_max), "an integer"),
            ("q_window", q_window, q_window is None or (
                isinstance(q_window, list) and len(q_window) == 2
                and all(map(_is_int, q_window))), "a list of 2 integers"),
            ("castelnuovo_valid", valid, isinstance(valid, bool),
             "true or false")]:
        if not ok:
            raise ValueError(f"{key} must be {want}, got {json.dumps(value)}")
    entries: dict[tuple[int, int], Fraction] = {}
    for i, entry in enumerate(rows):
        try:
            if not isinstance(entry, list) or len(entry) != 3:
                raise ValueError(f"expected [key, d, value], got {json.dumps(entry)}")
            if any(isinstance(x, (bool, float)) for x in entry):
                raise ValueError("expected integer keys and an exact value, "
                                 f"got {json.dumps(entry)}")
            _add_entry(entries, *entry)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"entry {i}: {exc}") from None
    return _build_table(
        kind, entries, g_max=g_max, d_max=d_max,
        q_window=tuple(q_window) if q_window is not None else None,
        castelnuovo_valid=valid)


def read_table_json(path: str):
    """Read a JSON table; errors raise ValueError("<path>: ...")."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return table_from_json_dict(json.load(fh))
        except TruncationError as exc:
            raise TruncationError(f"{path}: {exc}") from None
        except ValueError as exc:  # JSON and UTF-8 decoding errors included
            raise ValueError(f"{path}: {exc}") from None
