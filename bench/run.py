"""curvecount benchmark: seeded paper-size pipelines, timed and checked.

Usage (from the repository root):

    python3 bench/run.py --workload gvgw-paper --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: a pass starts only after the previous
one finished, and passes repeat until the next one would overrun
``--seconds`` of wall time (at least one pass).  Every pass is timed on the
thread CPU clock and on the wall clock.  Other tenants of a shared host can
still halve the CPU's speed for minutes at a time, so a fixed calibration
loop runs before, during (every half CPU second, from a SIGPROF timer) and
after each pass, and ``pass_s`` is the median pass in CPU seconds at the
reference speed, at which that loop takes ``CAL_REF_S``.  ``setup_s`` is
scaled the same way.  The raw CPU and wall times are in the run record.
Every pass is checked outside its timed region: the pipeline identities on
the first pass, then sha256 digests against that pass and, for the default
seed, against the digests pinned in ``bench/digests.json``.

``--trace 0`` prints the end-to-end metrics (pass_s, setup_s, peak_rss_mib).
``--trace 1`` alternates untraced and traced passes, then runs one cProfile
pass, and prints the per-layer metrics.  The last stdout line is the JSON
result; the lines before it are the human report and the run record (the
line starting ``record ``).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
DEFAULT_SEED = 1
SETUP_REPEATS = 11
# Reference speed: the calibration loop takes CAL_REF_S of CPU at it.
CAL_REF_S = 0.020
CAL_INTERVAL_S = 0.5  # CPU seconds between calibrations inside a pass
_CAL_SERIES = [Fraction(7 ** (k + 23) % 2 ** 64 + 1,
                        3 ** (k + 41) % 2 ** 64 + 1) for k in range(40)]


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("paper", "tiny"), default="paper",
                   help="tiny is the harness self-test size")
    return p.parse_args(argv)


def _commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _digests(outputs: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in sorted(outputs.items())}


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _calibrate() -> float:
    """Thread CPU seconds of a fixed pure-Python Fraction loop.

    Other tenants of a shared host slow every pass, by up to 2x for seconds
    to minutes at a time, and CPU time does not exclude that.  This loop
    slows by about the same factor, so dividing by its time cancels most of
    it.  It mixes small-integer sums with a truncated product of two series
    of 64-bit rationals, since workloads heavy in small or in large numbers
    slow by different factors.  It uses only the standard library, so no
    change to curvecount can move it.
    """
    start = time.thread_time()
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    product = [Fraction(0)] * len(_CAL_SERIES)
    for i, a in enumerate(_CAL_SERIES):
        for j, b in enumerate(_CAL_SERIES[:len(_CAL_SERIES) - i]):
            product[i + j] += a * b
    return time.thread_time() - start


@contextmanager
def _calibrating(samples: list[float]):
    """Append a calibration time to ``samples`` every CAL_INTERVAL_S of CPU."""
    previous = signal.signal(signal.SIGPROF,
                             lambda *_: samples.append(_calibrate()))
    signal.setitimer(signal.ITIMER_PROF, CAL_INTERVAL_S, CAL_INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)


class Runner:
    """Runs passes of one workload and keeps the checking state."""

    def __init__(self, workload, pinned: dict | None):
        self.workload = workload
        self.pinned = pinned
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def one_pass(self, around=None) -> tuple[float, float] | None:
        """Time one pass (inside ``around`` if given) and check it.

        Returns (CPU seconds, wall seconds), or None if the pass failed.
        """
        self.attempted += 1
        try:
            with around or nullcontext():
                wall, cpu = time.perf_counter(), time.thread_time()
                result = self.workload.run()
                elapsed = (time.thread_time() - cpu,
                           time.perf_counter() - wall)
            problems = self._check(result)
        except Exception:  # a raising pass is a failed pass, not a crash
            problems = ["pass raised:\n" + traceback.format_exc()]
        if problems:
            self.failed += 1
            self.errors.extend(problems)
            return None
        return elapsed

    def _check(self, result) -> list[str]:
        outputs = self.workload.outputs(result)
        digests = _digests(outputs)
        if self.reference is None:
            problems = self.workload.check(result, outputs)
            if not problems and self.pinned is not None \
                    and digests != self.pinned:
                problems = [f"digests differ from the pinned ones: {digests}"]
            if not problems:
                self.reference = digests
            return problems
        if digests != self.reference:
            return [f"outputs differ from the first checked pass: {digests}"]
        return []


def _loop(runner: Runner, budget: float) -> list[dict]:
    """Passes until the next would overrun ``budget`` wall seconds (at least
    one), each scaled to the reference speed.

    Each pass is calibrated just before, every CAL_INTERVAL_S inside and
    just after; the calibrations inside it are taken out of its CPU time.
    """
    passes: list[dict] = []
    spent = 0.0
    before = _calibrate()
    while True:
        inside: list[float] = []
        elapsed = runner.one_pass(_calibrating(inside))
        if elapsed is None:
            return passes  # a failed pass ends the run; it is reported
        after = _calibrate()
        cpu = elapsed[0] - sum(inside)
        speed = CAL_REF_S / statistics.mean([before, *inside, after])
        passes.append({"ref_s": cpu * speed, "cpu_s": cpu,
                       "wall_s": elapsed[1],
                       "calibrations": 2 + len(inside)})
        before = after
        spent += elapsed[1]
        if spent + elapsed[1] > budget:
            return passes


def _profile_pass(runner: Runner) -> dict:
    import cProfile
    import pstats

    profiler = cProfile.Profile()

    @contextmanager
    def profiled():
        profiler.enable()
        try:
            yield
        finally:
            profiler.disable()

    runner.one_pass(profiled())
    stats = pstats.Stats(profiler).stats
    total = sum(tt for _, _, tt, _, _ in stats.values()) or 1.0

    def in_fractions(func) -> bool:
        return func[0].endswith("fractions.py")

    frac = 0.0
    for func, (_, _, tt, _, callers) in stats.items():
        if in_fractions(func) or (func[0] == "~" and callers
                                  and all(in_fractions(c) for c in callers)):
            frac += tt
    top = sorted(stats.items(), key=lambda kv: kv[1][2], reverse=True)[:5]
    return {
        "fraction_share": frac / total,
        "profiled_s": total,
        "top5": [{"function": f"{os.path.basename(f[0])}:{f[1]}({f[2]})",
                  "tottime_s": st[2], "share": st[2] / total}
                 for f, st in top],
    }


def _set_up(args, work: str):
    """Import curvecount afresh and generate the seeded inputs.

    Returns (CPU seconds, wall seconds) taken and the workload object.
    Dropping the modules first makes every repeat pay the import again; the
    standard library stays loaded after the first.
    """
    for name in [m for m in sys.modules
                 if m.split(".")[0] in ("curvecount", "workloads", "inputs")]:
        del sys.modules[name]
    wall, cpu = time.perf_counter(), time.thread_time()
    workloads = importlib.import_module("workloads")
    size = workloads.SIZES[args.size][args.workload]
    workload = workloads.WORKLOADS[args.workload](size, args.seed, work)
    return (time.thread_time() - cpu, time.perf_counter() - wall), workload


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "curvecount" / "__init__.py").is_file():
        print(f"error: no curvecount sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with open(BENCH / "digests.json", encoding="utf-8") as fh:
        pinned = json.load(fh).get(args.size, {}).get(args.workload)
    if args.seed != DEFAULT_SEED:
        pinned = None
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        # one calibration before each set-up and one after the last; they
        # are pooled, since a single one is as noisy as a set-up itself
        setups, calibrations = [], [_calibrate()]
        for _ in range(SETUP_REPEATS):
            elapsed, workload = _set_up(args, str(work))
            setups.append(elapsed)
            calibrations.append(_calibrate())
        setup_s = statistics.median(s[0] for s in setups) * CAL_REF_S \
            / statistics.median(calibrations)
        runner = Runner(workload, pinned)
        if args.trace:
            result, report = _traced_run(runner, args, spec)
        else:
            passes = _loop(runner, args.seconds)
            result = {
                "setup_s": _metric(setup_s, "s"),
                "peak_rss_mib": _metric(_peak_rss_mib(), "MiB"),
            }
            if passes:
                result["pass_s"] = _metric(
                    statistics.median(p["ref_s"] for p in passes), "s")
            report = {"passes": passes}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only succeeds once no other run uses it
        except OSError:
            pass

    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[section]]
    missing = [n for n in names if n not in result]
    metrics = {n: result[n] for n in names if n in result}
    record = {
        "command": [os.path.basename(sys.executable)] + sys.argv,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "labels": {
            "setup_s": f"median of {SETUP_REPEATS} set-ups in CPU seconds, "
                       "scaled to the reference speed by the median of the "
                       "calibrations between them; each a fresh import of "
                       "curvecount plus input generation; the first also "
                       "loads the standard library (cold), the rest find it "
                       "loaded (warm)",
            "pass_s": "median pass in CPU seconds at the reference speed "
                      "(ref_s; cpu_s is the raw thread CPU time, wall_s "
                      "includes the calibrations); kernel cache cleared "
                      "before every pass (cold); gw2gv inside a gvgw pass "
                      "runs on the warm kernel",
            "trace": "alternating untraced and traced passes in CPU "
                     "seconds at the reference speed, then one cProfile "
                     "pass; each starts on a cleared (cold) kernel cache",
        },
        "metrics": metrics,
        "missing": missing,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "digests": runner.reference,
        "setups": [{"cpu_s": c, "wall_s": w} for c, w in setups],
        "setup_calibrations_s": calibrations,
        **report,
    }
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'fail_ratio':48s} {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:g} ratio")
    for name in missing:
        print(f"{name:48s} missing (wrap target or layer not found)")
    for err in runner.errors:
        print(f"FAILED: {err}", file=sys.stderr)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": metrics}))
    return 0


def _traced_run(runner: Runner, args, spec: dict):
    """Alternating untraced and traced passes, one profiled pass.

    Pairs repeat until the next would overrun ``--seconds`` of wall time (at
    least one).  Each pass is scaled to the reference speed by the
    calibrations just before and after it; none run inside a pass, where
    they would land in the spans.  The tracing overhead is the median, over
    pairs, of traced minus untraced time: a pair's two passes run back to
    back, so a change of host speed between pairs does not enter it.
    """
    import spans
    import workloads

    tracer = spans.Tracer()
    per_pass: list[dict] = []
    pairs: list[dict] = []
    spent = 0.0
    before = _calibrate()
    while True:
        untraced = runner.one_pass()
        if untraced is None:
            break
        middle = _calibrate()
        tracer.reset_counters()
        traced = runner.one_pass(tracer.installed(len(per_pass) + 1))
        if traced is None:
            break
        after = _calibrate()
        stats = tracer.pass_stats(len(per_pass) + 1)
        stats.update(tracer.counters)
        if workloads.KERNEL is not None:
            info = workloads.KERNEL.cache_info()
            lookups = info.hits + info.misses
            stats["transforms.cover_kernel.hits"] = info.hits
            stats["transforms.cover_kernel.misses"] = info.misses
            stats["transforms.cover_kernel.hit_ratio"] = \
                info.hits / lookups if lookups else 0.0
        per_pass.append(stats)
        pairs.append({
            "untraced_ref_s": untraced[0] * 2 * CAL_REF_S / (before + middle),
            "traced_ref_s": traced[0] * 2 * CAL_REF_S / (middle + after),
            "untraced_cpu_s": untraced[0], "traced_cpu_s": traced[0],
            "untraced_wall_s": untraced[1], "traced_wall_s": traced[1]})
        before = after
        pair_wall = untraced[1] + traced[1]
        spent += pair_wall
        if spent + pair_wall > args.seconds:
            break
    profile = _profile_pass(runner)

    result = {}
    if pairs:
        # layer numbers come from the traced pass nearest the median
        traced = [p["traced_ref_s"] for p in pairs]
        best = per_pass[traced.index(statistics.median_low(traced))]
        for m in spec["per_layer"]:
            name = m["name"]
            if name.rsplit(".", 1)[0] not in tracer.missing:
                result[name] = _metric(best.get(name, 0), m["unit"])
        result["trace.pass_s"] = _metric(statistics.median(traced), "s")
        result["trace.overhead_s"] = _metric(statistics.median(
            p["traced_ref_s"] - p["untraced_ref_s"] for p in pairs), "s")
    else:
        best = {}
    result["fraction.share"] = _metric(profile["fraction_share"], "ratio")

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(str(spans_path))
    report = {
        "pairs": pairs,
        "profile": profile,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "layers": _layers(best),
    }
    return result, report


def _layers(stats: dict, top: int = 8) -> list[dict]:
    """The layers with the most inclusive time in one traced pass."""
    names = [k[:-len(".total_s")] for k in stats if k.endswith(".total_s")]
    rows = [{"layer": n, "total_s": stats[f"{n}.total_s"],
             "self_s": stats.get(f"{n}.self_s", 0.0),
             "calls": stats.get(f"{n}.calls", 0)} for n in names]
    return sorted(rows, key=lambda r: r["total_s"], reverse=True)[:top]


if __name__ == "__main__":
    sys.exit(main())
