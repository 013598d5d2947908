"""Spans around the public calls into each curvecount layer.

Nothing inside ``src/`` is instrumented: :class:`Tracer` replaces each target
at the name its caller looks up (a module global, a class attribute) for the
length of one pass and restores the originals afterwards.  A target that no
longer exists is skipped and its metrics are reported as missing.

Each span records (name, start, end, parent span, pass id).  Self time is a
span's duration minus the time its child spans cover; the tracer's own
bookkeeping after a call returns is charged to neither side.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager

# Layer-crossing calls, each wrapped where its caller finds it.
#   (span name, "module[:Class]", attribute)
TARGETS = [
    ("cli.main", "curvecount.cli", "main"),
    ("tables.read", "curvecount.cli", "read_table_csv"),
    ("tables.read", "curvecount.cli", "read_table_json"),
    ("tables.write", "curvecount.cli", "_write_table"),
    ("transforms.gv_to_gw", "curvecount.transforms", "gv_to_gw"),
    ("transforms.gw_to_gv", "curvecount.transforms", "gw_to_gv"),
    ("transforms.integrality_check", "curvecount.transforms", "integrality_check"),
    ("transforms.gv_to_pt_connected", "curvecount.transforms", "gv_to_pt_connected"),
    ("transforms.pt_connected_to_table", "curvecount.transforms",
     "pt_connected_to_table"),
    ("transforms.pt_to_dt", "curvecount.transforms", "pt_to_dt"),
    ("transforms.apply_castelnuovo_vanishing", "curvecount.transforms",
     "apply_castelnuovo_vanishing"),
    ("transforms.cover_kernel", "curvecount.transforms", "_cover_kernel"),
    ("series.mul", "curvecount.series:LaurentSeries", "__mul__"),
    ("series.pow", "curvecount.series:LaurentSeries", "__pow__"),
    ("series.invert", "curvecount.series:LaurentSeries", "invert"),
    ("series.compose", "curvecount.series", "_compose_power_series"),
    ("series.reversion", "curvecount.bcov", "series_reversion"),
    ("series.bivariate_exp", "curvecount.series:BivariateSeries", "exp"),
    ("series.bivariate_log", "curvecount.series:BivariateSeries", "log"),
    ("bcov.frame", "curvecount.bcov:ConifoldFrame", "from_json_dict"),
    ("bcov.gap_solve", "curvecount.bcov", "gap_solve"),
    ("bcov.castelnuovo_solve", "curvecount.bcov", "castelnuovo_solve"),
    ("bernoulli.bernoulli", "curvecount.bcov", "bernoulli"),
]

# Span names whose results are series; they feed series.result_max_bits.
_SERIES_RESULTS = {"series.mul", "series.pow", "series.invert",
                   "series.compose", "series.reversion",
                   "series.bivariate_exp", "series.bivariate_log"}


def _max_bits(result) -> int:
    layers = getattr(result, "per_degree", None) or (result,)
    best = 0
    for layer in layers:
        for c in getattr(layer, "coeffs", ()):
            best = max(best, abs(c.numerator), c.denominator)
    return best.bit_length()


def _resolve(owner_path: str):
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Records spans and per-name counters while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, pass_id, self_s)
        self.counters: dict[str, float] = {}
        self.missing: set[str] = set()
        self._stack: list[list] = []  # [span index, child seconds]
        self._pass_id = 0
        self._saved: list[tuple] = []
        self._last_exp = None

    # -- installation --------------------------------------------------

    @contextmanager
    def installed(self, pass_id: int):
        """Wrap every target for one pass under a root span named ``pass``."""
        self._pass_id = pass_id
        for name, owner_path, attr in TARGETS:
            try:
                owner = _resolve(owner_path)
            except (ImportError, AttributeError):
                self.missing.add(name)
                continue
            raw = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if raw is None:
                self.missing.add(name)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        root = len(self.spans)
        self.spans.append(("pass", time.perf_counter(), None, -1, pass_id, 0.0))
        self._stack = [[root, 0.0]]
        try:
            yield self
        finally:
            end = time.perf_counter()
            _, start, _, parent, pid, _ = self.spans[root]
            self.spans[root] = ("pass", start, end, parent, pid,
                                end - start - self._stack[0][1])
            self._stack = []
            for owner, attr, raw in reversed(self._saved):
                setattr(owner, attr, raw)
            self._saved = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1]
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent[0],
                                       tracer._pass_id,
                                       end - start - frame[1])
                parent[1] += end - start
            tracer._count(name, args, result)
            parent[1] += time.perf_counter() - end
            return result

        return wrapper

    # -- counters --------------------------------------------------------

    def _add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _count(self, name: str, args, result) -> None:
        self._add(f"{name}.calls", 1)
        if name in _SERIES_RESULTS:
            bits = _max_bits(result)
            if bits > self.counters.get("series.result_max_bits", 0):
                self.counters["series.result_max_bits"] = bits
        if name == "series.mul" and hasattr(args[1], "coeffs"):
            self._add("series.mul.coeff_pairs",
                      len(args[0].coeffs) * len(args[1].coeffs))
        elif name == "series.bivariate_exp":
            self._last_exp = result
        elif name == "transforms.pt_connected_to_table" and self._last_exp:
            computed = sum(len(b.terms()) for b in self._last_exp.per_degree[1:])
            self._add(f"{name}.dropped", computed - len(result.entries))
        elif name == "tables.read":
            self._add(f"{name}.bytes", os.path.getsize(args[0]))
            self._add(f"{name}.rows", len(result.entries))
        elif name == "tables.write":
            self._add(f"{name}.bytes", os.path.getsize(args[1]))
            self._add(f"{name}.rows", len(args[0].entries))

    # -- results -------------------------------------------------------

    def pass_stats(self, pass_id: int) -> dict[str, float]:
        """Per-name call counts, self seconds and outermost total seconds."""
        stats: dict[str, float] = {}
        open_names: list[tuple[int, str]] = []
        for index, span in enumerate(self.spans):
            name, start, end, parent, pid, self_s = span
            if pid != pass_id or name == "pass":
                continue
            stats[f"{name}.self_s"] = stats.get(f"{name}.self_s", 0.0) + self_s
            # total_s counts a span only when no ancestor has the same name
            ancestor, nested = parent, False
            while ancestor >= 0:
                if self.spans[ancestor][0] == name:
                    nested = True
                    break
                ancestor = self.spans[ancestor][3]
            if not nested:
                stats[f"{name}.total_s"] = stats.get(f"{name}.total_s", 0.0) \
                    + (end - start)
        return stats

    def reset_counters(self) -> None:
        self.counters = {}
        self._last_exp = None

    def write_spans(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent, pass, self."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, pid, self_s) in \
                    enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "pass": pid,
                                     "self_s": self_s}) + "\n")
