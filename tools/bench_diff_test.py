#!/usr/bin/env python3
"""Tests tools/bench_diff.py's report on two small synthetic BENCH files:
deterministic counter deltas are listed before the wall-time deltas of
their record, a wall-time delta inside the +-15% noise band is labelled
"within noise", larger ones "regressed" or "improved", and --gate-pct
still fails on any latency regression above it, noise or not.

Usage: tools/bench_diff_test.py   (exit 0 when every case holds)
"""

import json
import os
import subprocess
import sys
import tempfile

BENCH_DIFF = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "bench_diff.py")


def bench(metrics):
    return {"bench": "service_churn", "seed": 11, "schema_version": 2,
            "records": [{"scenario": "drift-heavy",
                         "labels": {"measure_mode": "none"},
                         "metrics": metrics}]}


def run(base, cand, tmpdir, *extra):
    paths = []
    for name, doc in (("base.json", base), ("cand.json", cand)):
        path = os.path.join(tmpdir, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        paths.append(path)
    proc = subprocess.run([sys.executable, BENCH_DIFF, *paths, *extra],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def line_of(out, metric):
    for line in out.splitlines():
        if line.strip().startswith(metric + " "):
            return line
    return ""


def main():
    problems = []

    def expect(ok, what, out=""):
        if not ok:
            problems.append(what + ("\n" + out if out else ""))

    base = bench({"wall_ms": 1000.0, "solver_p50_ms": 10.0,
                  "max_event_ms": 50.0, "events_per_s": 100.0,
                  "solver_nodes": 500, "admitted": 40})
    cand = bench({"wall_ms": 1080.0,         # +8%: noise
                  "solver_p50_ms": 13.0,     # +30%: regressed
                  "max_event_ms": 30.0,      # -40%: improved
                  "events_per_s": 88.0,      # -12% throughput: noise
                  "solver_nodes": 520,       # counter moved
                  "admitted": 40})
    with tempfile.TemporaryDirectory() as tmpdir:
        code, out = run(base, cand, tmpdir)
        expect(code == 0, f"report-only run exited {code}", out)
        expect("within noise" in line_of(out, "wall_ms"),
               "+8% wall_ms not labelled within noise", out)
        expect("within noise" in line_of(out, "events_per_s"),
               "-12% events_per_s not labelled within noise", out)
        expect("regressed" in line_of(out, "solver_p50_ms"),
               "+30% solver_p50_ms not labelled regressed", out)
        expect("improved" in line_of(out, "max_event_ms"),
               "-40% max_event_ms not labelled improved", out)
        for metric in ("wall_ms", "events_per_s"):
            expect("regressed" not in line_of(out, metric) and
                   "improved" not in line_of(out, metric),
                   f"{metric} inside the band carries a verdict", out)
        expect("count changed" in line_of(out, "solver_nodes"),
               "solver_nodes change not reported", out)
        expect(line_of(out, "admitted") == "",
               "unchanged counter reported", out)
        lines = out.splitlines()
        counter_at = lines.index(line_of(out, "solver_nodes"))
        expect(all(counter_at < lines.index(line_of(out, m))
                   for m in ("wall_ms", "solver_p50_ms", "events_per_s")),
               "counter delta not listed before the wall-time deltas", out)

        # --gate-pct keeps its meaning: any latency regression above P
        # fails, including one inside the noise band.
        code, out = run(base, cand, tmpdir, "--gate-pct", "50")
        expect(code == 0, f"gate 50% failed on a 30% regression", out)
        code, out = run(base, cand, tmpdir, "--gate-pct", "20")
        expect(code == 1, f"gate 20% passed a 30% regression", out)
        quiet = bench({"wall_ms": 1080.0, "solver_p50_ms": 10.0,
                       "max_event_ms": 50.0, "events_per_s": 100.0,
                       "solver_nodes": 500, "admitted": 40})
        code, out = run(base, quiet, tmpdir, "--gate-pct", "5")
        expect(code == 1, "gate 5% passed an 8% (noise-band) regression",
               out)

    for p in problems:
        print("FAIL:", p)
    print(f"bench_diff_test: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
