"""The three benchmark pipelines: set-up, one timed pass, and the checks.

Each workload object is built once per run (the set-up), then ``run()`` is
one closed-loop pass and ``outputs(result)`` returns the bytes that pass
produced, keyed by file name.  ``check()`` verifies the pipeline's identities on a
pass's outputs; it is expensive for some workloads, so the runner calls it
once and compares later passes by digest.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from curvecount import bcov, cli, tables, transforms
from curvecount.series import LaurentSeries

import inputs

# Bound before any wrapping so cache_clear/cache_info reach the real cache.
KERNEL = getattr(transforms, "_cover_kernel", None)

SIZES = {
    "paper": {
        "gvgw-paper": {"g_max": 53, "d_max": 20},
        "ptdt-paper": {"g_max": 16, "d_max": 10, "q_window": (-20, 60)},
        "bcov-paper": {"frame_trunc": 48, "gap_genera": (23, 24, 25),
                       "castelnuovo_genera": (51, 52, 53)},
    },
    "tiny": {
        "gvgw-paper": {"g_max": 6, "d_max": 8},
        "ptdt-paper": {"g_max": 6, "d_max": 5, "q_window": (-5, 10)},
        "bcov-paper": {"frame_trunc": 12, "gap_genera": (5, 6, 7),
                       "castelnuovo_genera": (5, 6, 7)},
    },
}


def clear_kernel() -> None:
    """Every pass pays what a fresh ``curvecount`` process pays."""
    if KERNEL is not None:
        KERNEL.cache_clear()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


class GvGw:
    """``transform gv2gw`` (cold kernel) then ``gw2gv --integrality``."""

    def __init__(self, size: dict, seed: int, work: str):
        g_max, d_max = size["g_max"], size["d_max"]
        self.gv_text = inputs.gv_csv(
            inputs.gv_table(random.Random(seed), g_max, d_max))
        self.paths = {name: os.path.join(work, name) for name in
                      ("gv.csv", "gw.csv", "gv_back.csv", "report.json")}
        _write(self.paths["gv.csv"], self.gv_text)
        window = ["--gmax", str(g_max), "--dmax", str(d_max)]
        self.argv = [
            ["transform", "gv2gw", "--in", self.paths["gv.csv"],
             "--out", self.paths["gw.csv"]] + window,
            ["transform", "gw2gv", "--in", self.paths["gw.csv"],
             "--out", self.paths["gv_back.csv"], "--integrality",
             "--report", self.paths["report.json"]] + window,
        ]

    def run(self):
        clear_kernel()
        return [cli.main(argv) for argv in self.argv]

    def outputs(self, result) -> dict[str, bytes]:
        return {name: _read(self.paths[name])
                for name in ("gw.csv", "gv_back.csv", "report.json")}

    def check(self, result, outputs) -> list[str]:
        errors = []
        if result != [0, 0]:
            errors.append(f"exit codes {result}, expected [0, 0]")
        if outputs["gv_back.csv"] != self.gv_text.encode():
            errors.append("gw2gv output differs from the input GV table")
        reports = json.loads(outputs["report.json"])["reports"]
        if any(r["violations"] for r in reports):
            errors.append("integrality report is not empty")
        return errors


class PtDt:
    """``transform gv2pt --apply-castelnuovo`` then ``pt2dt``."""

    def __init__(self, size: dict, seed: int, work: str):
        self.d_max, self.q_window = size["d_max"], size["q_window"]
        self.gv = inputs.gv_table(random.Random(seed), size["g_max"], self.d_max)
        self.dt0_trunc = self.q_window[1] - self.q_window[0]
        self.dt0 = inputs.macmahon_power(-200, self.dt0_trunc)
        self.paths = {name: os.path.join(work, name) for name in
                      ("gv.csv", "dt0.json", "pt.json", "dt.json")}
        _write(self.paths["gv.csv"], inputs.gv_csv(self.gv))
        _write(self.paths["dt0.json"],
               inputs.series_json("q", 0, self.dt0, self.dt0_trunc))
        lo, hi = self.q_window
        self.argv = [
            ["transform", "gv2pt", "--in", self.paths["gv.csv"],
             "--dmax", str(self.d_max), "--qwindow", f"{lo}:{hi}",
             "--apply-castelnuovo", "--out", self.paths["pt.json"]],
            ["transform", "pt2dt", "--in", self.paths["pt.json"],
             "--dt0", self.paths["dt0.json"], "--out", self.paths["dt.json"]],
        ]

    def run(self):
        clear_kernel()
        return [cli.main(argv) for argv in self.argv]

    def outputs(self, result) -> dict[str, bytes]:
        return {name: _read(self.paths[name]) for name in ("pt.json", "dt.json")}

    def check(self, result, outputs) -> list[str]:
        if result != [0, 0]:
            return [f"exit codes {result}, expected [0, 0]"]
        errors = []
        pt = tables.table_from_json_dict(json.loads(outputs["pt.json"]))
        gv = tables.GvTable({k: Fraction(v) for k, v in self.gv.items()},
                            max(g for g, _ in self.gv), self.d_max)
        connected = transforms.gv_to_pt_connected(gv, self.d_max, self.q_window)
        logged = transforms.pt_table_to_connected(pt)
        for d in range(1, self.d_max + 1):
            a, b = logged.per_degree[d], connected.per_degree[d]
            top = min(a.trunc_order, b.trunc_order)
            for e in range(min(a.min_exp, b.min_exp), top + 1):
                if a.coefficient(e) != b.coefficient(e):
                    errors.append(f"log of PT differs from the connected "
                                  f"series at q^{e} t^{d}")
                    break
        dt = tables.table_from_json_dict(json.loads(outputs["dt.json"]))
        n_min, n_max = dt.q_window
        if n_min != pt.q_window[0] or n_max > pt.q_window[1]:
            errors.append(f"DT window {dt.q_window} not inside PT window "
                          f"{pt.q_window}")
        for d in range(1, self.d_max + 1):
            for n in range(n_min, n_max + 1):
                want = sum(pt.entries.get((n - m, d), 0) * self.dt0[m]
                           for m in range(0, n - n_min + 1))
                if dt.entries.get((n, d), 0) != want:
                    errors.append(f"DT entry ({n},{d}) is not the PT*dt0 "
                                  f"convolution")
                    break
        return errors


class Bcov:
    """Load a conifold frame, then gap solves and Castelnuovo solves."""

    def __init__(self, size: dict, seed: int, work: str):
        rng = random.Random(seed)
        self.frame_text = json.dumps(inputs.frame_dict(rng, size["frame_trunc"]))
        self.known = {}
        for g in size["gap_genera"]:
            width = 2 * g - 2
            self.known[g] = LaurentSeries(
                "Delta", -width, inputs.gap_known_terms(rng, g), 0)
        self.castelnuovo = {}
        for g in size["castelnuovo_genera"]:
            chosen, data = inputs.castelnuovo_case(rng, g)
            K = len(data) - 1
            self.castelnuovo[g] = (chosen, data, K, LaurentSeries.zero("q", K))

    def run(self):
        clear_kernel()
        frame = bcov.ConifoldFrame.from_json_dict(json.loads(self.frame_text))
        gaps = {g: bcov.gap_solve(g, known, frame)
                for g, known in self.known.items()}
        solved = {g: bcov.castelnuovo_solve(g, known, K, data)
                  for g, (_, data, K, known) in self.castelnuovo.items()}
        return frame, gaps, solved

    def outputs(self, result) -> dict[str, bytes]:
        frame, gaps, solved = result
        text = lambda obj: json.dumps(obj, sort_keys=True).encode()
        return {
            "frame.json": text(frame.to_json_dict()),
            "gap.json": text({g: {i: str(v) for i, v in x.items()}
                              for g, x in gaps.items()}),
            "castelnuovo.json": text({g: {"values": {i: str(v) for i, v in
                                                     r.values.items()},
                                          "unresolved": list(r.unresolved),
                                          "E": r.E, "K": r.K}
                                      for g, r in solved.items()}),
        }

    def check(self, result, outputs) -> list[str]:
        frame, gaps, solved = result
        errors = []
        y = frame.y_of_flat
        for g, x in gaps.items():
            fg = bcov.assemble_fg({i - (g - 1): v for i, v in x.items()}, y)
            total = fg + self.known[g]
            width = 2 * g - 2
            want = {-j: Fraction(0) for j in range(1, width)}
            want[-width] = bcov.gap_target(g)
            if any(total.coefficient(e) != v for e, v in want.items()):
                errors.append(f"gap solution at g={g} misses its target")
        for g, r in solved.items():
            chosen, data, K, known = self.castelnuovo[g]
            if not r.closed or r.values != chosen:
                errors.append(f"Castelnuovo solve at g={g} is not the "
                              f"seeded solution")
                continue
            base = LaurentSeries("q", 0, [1, -3125] + [0] * (K - 1), K)
            fg = bcov.assemble_fg({k: r.values[g - 1 - k] for k in range(K + 1)},
                                  base) + known
            if any(fg.coefficient(j) != data[j] for j in range(K + 1)):
                errors.append(f"Castelnuovo solution at g={g} misses its data")
        return errors


WORKLOADS = {"gvgw-paper": GvGw, "ptdt-paper": PtDt, "bcov-paper": Bcov}
