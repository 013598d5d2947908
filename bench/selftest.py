"""Self-test of the benchmark harness on tiny sizes.

    python3 bench/selftest.py

For every workload it runs ``bench/run.py --size tiny`` untraced and traced
and checks that each run is correct, that the printed metric names are
exactly the ones ``BENCHMARK.json`` lists, and that the default seed
reproduces the pinned tiny digests.  A traced run is only correct when its
traced and profiled passes produced the same bytes as its untraced passes,
so this also shows that the wrappers leave outputs unchanged.  Last, it runs
the benchmark in a directory without the sources and expects it to refuse.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            proc = _run(ROOT, "--workload", workload, "--size", "tiny",
                        "--seconds", "0.5", "--trace", trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            record = json.loads(next(l for l in lines if l.startswith("record "))[7:])
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: not correct\n{proc.stderr}")
            want = [m["name"] for m in spec[section]]
            if list(result["metrics"]) != want:
                missing = sorted(set(want) - set(result["metrics"]))
                problems.append(f"{label}: metric names differ; missing {missing}")
            if record["seed"] == 1 and record["digests"] is None:
                problems.append(f"{label}: no digests recorded")
            print(f"ok {label}: {result['attempted']} passes")

    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "--workload", "gvgw-paper", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("the benchmark ran without the sources")
        else:
            print("ok refuses to run without the sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()  # only succeeds once no run uses it
        except OSError:
            pass

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
