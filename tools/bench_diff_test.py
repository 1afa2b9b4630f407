#!/usr/bin/env python3
"""Tests tools/bench_diff.py's report on two small synthetic BENCH files:
deterministic counter deltas are listed before the wall-time deltas of
their record, a wall-time delta inside the +-15% noise band is labelled
"within noise", larger ones "regressed" or "improved", and --gate-pct
still fails on any latency regression above it, noise or not. Metrics
are classed by unit: the solver micro-bench's timings (build_ms_avg,
cached_wall_ms, lp_us_per_pivot, ...) are wall times, its per-solve
work figures counters.

Usage: tools/bench_diff_test.py   (exit 0 when every case holds)
"""

import json
import os
import subprocess
import sys
import tempfile

BENCH_DIFF = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "bench_diff.py")


def bench(metrics, name="service_churn", scenario="drift-heavy"):
    return {"bench": name, "seed": 11, "schema_version": 2,
            "records": [{"scenario": scenario,
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

        # A solver-micro-shaped file: timings by unit suffix are wall
        # times (labelled, gated), the per-solve work figures counters.
        micro_base = bench({"build_ms_avg": 0.10, "patch_ms_avg": 0.01,
                            "cached_wall_ms": 400.0,
                            "uncached_wall_ms": 500.0,
                            "lp_us_per_pivot": 1.0,
                            "lp_us_per_call": 4.0,
                            "pivots_per_solve": 60.0,
                            "model_vars": 34},
                           name="solver_micro", scenario="node_resolve")
        micro_cand = bench({"build_ms_avg": 0.11,      # +10%: noise
                            "patch_ms_avg": 0.02,      # +100%: regressed
                            "cached_wall_ms": 300.0,   # -25%: improved
                            "uncached_wall_ms": 505.0,
                            "lp_us_per_pivot": 0.8,    # -20%: improved
                            "lp_us_per_call": 4.1,
                            "pivots_per_solve": 60.0,
                            "model_vars": 34},
                           name="solver_micro", scenario="node_resolve")
        code, out = run(micro_base, micro_cand, tmpdir)
        expect(code == 0, f"solver-micro report exited {code}", out)
        for metric in ("build_ms_avg", "uncached_wall_ms", "lp_us_per_call"):
            expect("within noise" in line_of(out, metric),
                   f"{metric} not labelled within noise", out)
        expect("regressed" in line_of(out, "patch_ms_avg"),
               "+100% patch_ms_avg not labelled regressed", out)
        for metric in ("cached_wall_ms", "lp_us_per_pivot"):
            expect("improved" in line_of(out, metric),
                   f"{metric} not labelled improved", out)
        expect("count changed" not in out,
               "a solver-micro timing reported as a counter", out)
        expect("deterministic counters changed" not in out,
               "timings counted as deterministic counter changes", out)
        code, out = run(micro_base, micro_cand, tmpdir, "--gate-pct", "50")
        expect(code == 1, "gate 50% passed a +100% patch_ms_avg", out)
        moved = dict(micro_base["records"][0]["metrics"],
                     pivots_per_solve=61.0)
        code, out = run(micro_base, bench(moved, name="solver_micro",
                                          scenario="node_resolve"), tmpdir)
        expect("count changed" in line_of(out, "pivots_per_solve"),
               "pivots_per_solve change not reported as a counter", out)

    for p in problems:
        print("FAIL:", p)
    print(f"bench_diff_test: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
