#!/usr/bin/env python3
"""Self-checks of the benchmark harness (not of latcf).

    python3 bench/selfcheck.py [--seconds 2]

1. Every metric BENCHMARK.json names appears, with its unit, in the
   result of a traced and an untraced run, and nothing else does.
2. Two identical traced runs repeat their counts, ratios and output
   hashes exactly; two untraced runs repeat their output hash.
3. A corrupted golden hash (in a copy of bench/ and src/) makes the
   command print "correct": false and exit non-zero.
4. In a directory holding only BENCHMARK.json and bench/, the command
   exits non-zero without printing a result.

Runs use sim-small and ok-relay, short, each in its own process; temporary
files go under .bench_out/selfcheck/.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TMP = ROOT / ".bench_out" / "selfcheck"

# per-layer metrics that are counts or ratios of work, not times
EXACT_SUFFIXES = (".calls", "_ratio", ".cosets")


def run(workload, seconds, trace, cwd=ROOT):
    """One benchmark run; returns (exit code, last-line result or None, report)."""
    report = TMP / f"report-{workload}-{trace}.json"
    report.unlink(missing_ok=True)
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", str(seconds), "--trace", str(trace), "--report", str(report)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    rep = json.loads(report.read_text(encoding="utf-8")) if report.is_file() else None
    return proc.returncode, result, rep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2.0)
    seconds = ap.parse_args().seconds
    shutil.rmtree(TMP, ignore_errors=True)
    TMP.mkdir(parents=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []

    def check(ok, what):
        print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
        if not ok:
            failures.append(what)

    for workload in ("sim-small", "ok-relay"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            first = run(workload, seconds, trace)
            second = run(workload, seconds, trace)
            for code, result, _ in (first, second):
                check(code == 0 and result is not None and result["correct"],
                      f"{workload} trace {trace}: exit 0 and correct")
            (_, result, rep), (_, result2, rep2) = first, second
            if result is None or result2 is None or rep is None or rep2 is None:
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{workload} trace {trace}: metrics and units match BENCHMARK.json")
            if trace == 0:
                fail_frac = rep["metrics"].get("op_fail_frac", {})
                check(fail_frac.get("unit") == "ratio" and "samples" in fail_frac,
                      f"{workload}: op_fail_frac reported with unit and sample count")
            check(rep["output_sha256"] == rep2["output_sha256"],
                  f"{workload} trace {trace}: output hash repeats")
            if trace == 1:
                exact = {k: v["value"] for k, v in result["metrics"].items()
                         if k.endswith(EXACT_SUFFIXES) and k != "trace.overhead_ratio"}
                exact2 = {k: result2["metrics"][k]["value"] for k in exact}
                check(exact == exact2 and result["attempted"] == result2["attempted"],
                      f"{workload} trace 1: {len(exact)} counts and ratios repeat exactly")

    def copy_tree(dest, with_src):
        shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
        if with_src:
            shutil.copytree(ROOT / "src", dest / "src",
                            ignore=shutil.ignore_patterns("__pycache__"))

    corrupt = TMP / "corrupt"
    copy_tree(corrupt, with_src=True)
    golden_path = corrupt / "bench" / "golden.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    seed = next(iter(golden["sim-small"]))
    golden["sim-small"][seed] = "0" * 64
    golden_path.write_text(json.dumps(golden), encoding="utf-8")
    code, result, _ = run("sim-small", 0.5, 0, cwd=corrupt)
    check(code != 0 and result is not None and result["correct"] is False,
          "corrupted golden hash: exit non-zero with correct false")

    bare = TMP / "bare"
    copy_tree(bare, with_src=False)
    code, result, _ = run("sim-small", 0.5, 0, cwd=bare)
    check(code != 0 and result is None, "without src/latcf: exit non-zero, no result")

    shutil.rmtree(TMP, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
