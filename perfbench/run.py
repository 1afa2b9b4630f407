#!/usr/bin/env python3
"""Planning-service benchmark: fixed-trace replays through PlanningService.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload drift-replan --seed 1 \
        --seconds 30 --trace 0

Builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then replays the workload's fixed set
of scenarios, each in a fresh replay process, and checks every replay.
The set is derived from --seed; the same seed always gives the same
scenarios, traces, committed deployments and decision counters. The
amount of work is fixed: --seconds is the measuring time the set is
sized for on a 4-vCPU host. Replays are never cut short to fit it; a run
whose replays take more than REPLAY_DEADLINE_FACTOR times as long fails.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer ones (from a traced replay of every scenario,
next to an untraced one). README.md documents every metric and check.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Each workload: how many scenarios one run replays, and the replay
# flags of one scenario (every scenario is three hosts and two-way joins,
# fixed in replay.cc). README.md explains why each workload exists.
WORKLOADS = {
    # Drift reports, host failures and rejoins over a loaded cluster:
    # evictions and re-planning rounds on one worker thread. The query
    # mix is arrival-cold's, so admissions look alike on both and the
    # round path is the main difference between them. Failures and
    # rejoins are frequent enough that about a third of arrivals commit a
    # round, which puts the pooled p90 inside that slow mode rather than
    # on its sparse edge, where it jumped with the host's load.
    "drift-replan": {
        "scenarios": 30,
        "flags": ["--base-streams", "96", "--zipf", "0",
                  "--warmup-events", "100", "--timed-events", "300",
                  "--departure-weight", "0.5", "--failure-weight", "0.1",
                  "--join-weight", "0.2", "--drift-weight", "0.2",
                  "--tick-weight", "0.1", "--min-failures", "1",
                  "--min-drift-reports", "4", "--workers", "1"],
    },
    # Arrivals and departures of uniformly drawn queries over many base
    # streams: nearly every arrival is a fresh MILP admission, and the
    # cluster stays saturated.
    "arrival-cold": {
        "scenarios": 48,
        "flags": ["--base-streams", "96", "--zipf", "0",
                  "--warmup-events", "200", "--timed-events", "1000",
                  "--departure-weight", "0.6", "--workers", "0"],
    },
    # Arrivals and departures of skewed queries over few base streams:
    # most arrivals are already served and take the dedup fast path.
    "reuse-churn": {
        "scenarios": 52,
        "flags": ["--base-streams", "10", "--zipf", "1.5",
                  "--warmup-events", "200", "--timed-events", "2000",
                  "--departure-weight", "0.35", "--workers", "0"],
    },
}

# Fast-path share bands (fast-path admissions / arrivals, pooled over a
# run's scenarios).
FASTPATH_MAX_COLD = 0.10
FASTPATH_BAND_REUSE = (2.0 / 3.0, 0.80)

# Counters that must repeat exactly for one commit and seed.
DETERMINISTIC = ["arrivals", "admitted", "rejected", "evictions", "solves",
                 "commit_conflicts", "fastpath_hits"]

# Failed operations (README.md "Failures").
FAILURE_COUNTERS = ["deadline_breaches", "heuristic_fallbacks",
                    "catalog_exhausted"]

# A run's replays are stopped, and the run fails, this many times
# --seconds after the build.
REPLAY_DEADLINE_FACTOR = 5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the replay program; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench_replay")


def replay(binary, flags, seed, trace, deadline):
    cmd = [binary, "--seed", str(seed), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd + flags, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"replay exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    if proc.stderr.strip():
        log(proc.stderr.strip()[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(-(-q * len(sorted_values) // 1)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def total(replays, counter):
    return sum(r["counters"][counter] for r in replays)


def ratio(num, den):
    return num / den if den else 0.0


def fingerprint_of(r):
    return {"fingerprint": r["fingerprint"],
            **{c: r["counters"][c] for c in DETERMINISTIC}}


class Checks:
    def __init__(self):
        self.problems = []

    def expect(self, ok, what):
        if not ok:
            self.problems.append(what)
            log(f"CHECK FAILED: {what}")
        return ok


def check_replay(checks, workload, scenario, r):
    tag = f"{workload} scenario {scenario} (seed {r['seed']})"
    checks.expect(r["consumed"] == r["timed_events"] and not r["pending_after"],
                  f"{tag}: {r['consumed']}/{r['timed_events']} events consumed")
    checks.expect(r["step_errors"] == 0, f"{tag}: {r['step_errors']} Step errors")
    checks.expect(r["valid"], f"{tag}: final deployment fails Validate()")
    c = r["counters"]
    if workload == "drift-replan":
        checks.expect(c["evictions"] > 0 and c["replan_rounds"] > 0,
                      f"{tag}: no evictions or no re-planning rounds")
        checks.expect(c["host_failures"] >= 1,
                      f"{tag}: no host failure in the timed phase")
    else:
        checks.expect(c["replan_rounds"] == 0,
                      f"{tag}: {c['replan_rounds']} re-planning rounds")


def check_shape(checks, workload, replays):
    share = ratio(total(replays, "fastpath_hits"), total(replays, "arrivals"))
    if workload == "arrival-cold":
        checks.expect(share <= FASTPATH_MAX_COLD,
                      f"arrival-cold fast-path share {share:.3f} > "
                      f"{FASTPATH_MAX_COLD}")
    elif workload == "reuse-churn":
        lo, hi = FASTPATH_BAND_REUSE
        checks.expect(lo <= share <= hi,
                      f"reuse-churn fast-path share {share:.3f} outside "
                      f"[{lo:.3f}, {hi:.3f}]")


def check_repeatable(checks, binary, workload, seed, replays):
    """Fingerprints and counters of this run against earlier runs of the
    same replay binary, workload definition and seed, recorded next to
    the build. The first run after a rebuild only writes the record; each
    run also replays one scenario twice (see main)."""
    record_dir = os.path.join(build_dir(), "records")
    os.makedirs(record_dir, exist_ok=True)
    key = hashlib.sha256(json.dumps(WORKLOADS[workload]).encode())
    with open(binary, "rb") as f:
        key.update(f.read())
    path = os.path.join(record_dir,
                        f"{workload}-{key.hexdigest()[:12]}-seed{seed}.json")
    current = [fingerprint_of(r) for r in replays]
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        for i, (a, b) in enumerate(zip(earlier, current)):
            checks.expect(a == b, f"{workload} scenario {i}: fingerprint or "
                          f"counters differ from an earlier run: {a} != {b}")
    else:
        with open(path, "w") as f:
            json.dump(current, f)


def failures(replays):
    failed = 0
    for r in replays:
        failed += r["step_errors"] + (r["timed_events"] - r["consumed"])
        failed += sum(int(r["counters"][c]) for c in FAILURE_COUNTERS)
        failed += 0 if r["valid"] else 1
    return failed


def events_per_s(r):
    return 1000.0 * r["timed_events"] / r["timed_ms"]


def end_to_end(replays):
    """Rates, shares and percentiles pool the run's scenarios (events over
    summed wall time, admitted over all arrivals, percentiles over every
    arrival). Set-up time is the sum over the run's set-ups; RSS, one
    value per process, is their median."""
    arrivals = sorted(ms for r in replays for ms in r["arrival_ms"])
    return {
        "events_per_s": (ratio(1000.0 * sum(r["timed_events"] for r in replays),
                               sum(r["timed_ms"] for r in replays)), "1/s"),
        "admit_ms_p50": (quantile(arrivals, 0.50), "ms"),
        "admit_ms_p90": (quantile(arrivals, 0.90), "ms"),
        "admitted_frac": (ratio(total(replays, "arrivals_admitted"),
                                total(replays, "arrivals")), "frac"),
        "net_mbps_per_query": (ratio(sum(r["net_mbps"] for r in replays),
                                     total(replays, "admitted_queries")),
                               "Mbps"),
        "setup_s": (sum(r["setup_ms"] for r in replays) / 1000.0, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in replays)
                        / 1024.0, "MB"),
    }


def layer_of(span):
    """Layer a span's self time belongs to: the first path segment, with
    the benchmark's own spans around Step/FinishInFlightRound counted as
    service time and its timed-phase root span as unattributed."""
    if span == "bench/timed":
        return "unattributed"
    if span.startswith("bench/"):
        return "service"
    return span.split("/", 1)[0]


def per_layer(checks, workload, untraced, traced):
    for i, (u, t) in enumerate(zip(untraced, traced)):
        checks.expect(t["dropped_spans"] == 0,
                      f"{workload} scenario {i}: traced replay dropped "
                      f"{t['dropped_spans']} spans")
        checks.expect(fingerprint_of(u) == fingerprint_of(t),
                      f"{workload} scenario {i}: traced counters differ from "
                      f"untraced: {fingerprint_of(t)} != {fingerprint_of(u)}")

    spans = {}
    for t in traced:
        for name, s in t["layers"].items():
            acc = spans.setdefault(name, {"count": 0, "total_ms": 0.0,
                                          "self_ms": 0.0, "loop_self_ms": 0.0,
                                          "arg0_sum": 0})
            for k in acc:
                acc[k] += s[k]

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    self_ms, loop_self_ms = {}, {}
    for name, s in spans.items():
        layer = layer_of(name)
        self_ms[layer] = self_ms.get(layer, 0.0) + s["self_ms"]
        loop_self_ms[layer] = loop_self_ms.get(layer, 0.0) + s["loop_self_ms"]
    timed_ms = sum(t["timed_ms"] for t in traced)
    # Every loop-thread instant of the timed phase lies in exactly one
    # innermost span. The layers' spans must cover all but 1% of it; the
    # rest is the self time of the root span bench/timed.
    attributed = sum(v for k, v in loop_self_ms.items() if k != "unattributed")
    checks.expect(attributed >= 0.99 * timed_ms,
                  f"{workload}: layer self times cover {attributed:.1f} ms of "
                  f"the {timed_ms:.1f} ms traced timed phase (< 99%)")
    # The bench/step.* spans and the replay's own Step timers bracket the
    # same calls.
    for kind in ("arrival", "departure", "disrupt"):
        timer_ms = sum(t["step_ms"][kind] for t in traced)
        span_ms = span(f"bench/step.{kind}", "total_ms")
        checks.expect(abs(span_ms - timer_ms) <= 0.01 * timer_ms + 1.0,
                      f"{workload}: bench/step.{kind} spans total "
                      f"{span_ms:.1f} ms, Step timers {timer_ms:.1f} ms")
    print(f"layer self time (loop thread) over {timed_ms:.1f} ms traced "
          f"timed phase:")
    for layer in sorted(loop_self_ms):
        print(f"  {layer:<13} {loop_self_ms[layer]:10.1f} ms "
              f"{100.0 * ratio(loop_self_ms[layer], timed_ms):5.1f}%")
    print(f"unattributed {loop_self_ms.get('unattributed', 0.0):.3f} ms "
          f"(benchmark loop outside Step and FinishInFlightRound)")

    nodes = span("milp/node", "count")
    iterations = span("lp/simplex", "arg0_sum")
    simplex_ms = span("lp/simplex", "total_ms")
    solves = total(untraced, "solves")
    wasted = total(untraced, "commit_conflicts") + total(untraced,
                                                         "round_unwinds")
    untraced_eps = ratio(1000.0 * sum(r["timed_events"] for r in untraced),
                         sum(r["timed_ms"] for r in untraced))
    traced_eps = ratio(1000.0 * sum(r["timed_events"] for r in traced),
                       timed_ms)
    n = len(untraced)
    m = {
        "service.step_ms.arrival": (sum(t["step_ms"]["arrival"] for t in traced), "ms"),
        "service.step_ms.departure": (sum(t["step_ms"]["departure"] for t in traced), "ms"),
        "service.step_ms.disrupt": (sum(t["step_ms"]["disrupt"] for t in traced), "ms"),
        "service.self_ms": (self_ms.get("service", 0.0), "ms"),
        "service.barrier_wait_ms": (sum(t["barrier_ms"] for t in traced), "ms"),
        "service.solves": (solves, "count"),
        "service.commit_conflicts": (total(untraced, "commit_conflicts"), "count"),
        "service.round_unwinds": (total(untraced, "round_unwinds"), "count"),
        "service.solve_useful_frac": (1.0 - ratio(wasted, solves) if solves else 1.0,
                                      "frac"),
        "service.replan_rounds": (total(untraced, "replan_rounds"), "count"),
        "service.evictions": (total(untraced, "evictions"), "count"),
        "service.snapshot_bytes": (total(untraced, "snapshot_bytes"), "B"),
        "service.fastpath_frac": (ratio(total(untraced, "fastpath_hits"),
                                        total(untraced, "arrivals")), "frac"),
        "service.cache_delta_updates": (total(untraced, "cache_delta_updates"),
                                        "count"),
        "service.cache_rebuilds": (total(untraced, "cache_rebuilds"), "count"),
        "service.admit_samples": (total(untraced, "arrivals"), "count"),
        "planner.self_ms": (self_ms.get("planner", 0.0), "ms"),
        "planner.model_patches": (total(untraced, "model_patches"), "count"),
        "planner.model_rebuilds": (total(untraced, "model_rebuilds"), "count"),
        "planner.warm_starts": (total(untraced, "warm_starts"), "count"),
        "planner.basis_discards": (total(untraced, "basis_discards"), "count"),
        "milp.self_ms": (self_ms.get("milp", 0.0), "ms"),
        "milp.presolve_ms": (span("milp/presolve", "total_ms"), "ms"),
        "milp.cuts_ms": (span("milp/root_cuts", "total_ms")
                         + span("milp/lazy_cuts.separate", "total_ms"), "ms"),
        "milp.nodes": (nodes, "count"),
        "lp.simplex_ms": (simplex_ms, "ms"),
        "lp.calls": (span("lp/simplex", "count"), "count"),
        "lp.iterations": (iterations, "count"),
        "lp.iterations_per_node": (ratio(iterations, nodes), "count"),
        "lp.us_per_iteration": (ratio(1000.0 * simplex_ms, iterations), "us"),
        "model.catalog_streams": (total(untraced, "catalog_streams") / n, "count"),
        "plan.deployment_bytes": (total(untraced, "deployment_bytes") / n, "B"),
        "setup.generate_ms": (sum(r["generate_ms"] for r in untraced), "ms"),
        "setup.warmup_ms": (sum(r["warmup_ms"] for r in untraced), "ms"),
        "obs.trace_overhead_frac": (1.0 - ratio(traced_eps, untraced_eps), "frac"),
        "obs.unattributed_ms": (loop_self_ms.get("unattributed", 0.0), "ms"),
    }
    return m


def stop(signum, frame):
    # Raising inside subprocess.run kills and reaps the running replay.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "service",
                                       "planning_service.h")):
        log(f"perfbench: no SQPR sources under {ROOT}/src; run from a full "
            f"checkout")
        return 2
    start = time.monotonic()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    spec = WORKLOADS[args.workload]
    seeds = [args.seed * 1000 + i for i in range(spec["scenarios"])]
    deadline = time.monotonic() + REPLAY_DEADLINE_FACTOR * args.seconds
    checks = Checks()
    try:
        untraced = [replay(binary, spec["flags"], s, False, deadline)
                    for s in seeds]
        # A second replay of the first scenario, untimed, so that every run
        # checks repeatability by itself; a traced run repeats them all.
        repeats = ([replay(binary, spec["flags"], seeds[0], False, deadline)]
                   if not args.trace else [])
        traced = ([replay(binary, spec["flags"], s, True, deadline)
                   for s in seeds] if args.trace else [])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        log(f"perfbench: replay failed: {e}")
        return 1

    for i, r in enumerate(untraced + traced):
        check_replay(checks, args.workload, i % len(seeds), r)
    for r in repeats:
        checks.expect(fingerprint_of(r) == fingerprint_of(untraced[0]),
                      f"{args.workload} scenario 0: a second replay differs: "
                      f"{fingerprint_of(r)} != {fingerprint_of(untraced[0])}")
    check_shape(checks, args.workload, untraced)
    check_repeatable(checks, binary, args.workload, args.seed, untraced)

    for i, r in enumerate(untraced):
        c = r["counters"]
        print(f"scenario {i} seed {r['seed']}: {r['timed_events']} events "
              f"in {r['timed_ms']:.1f} ms ({events_per_s(r):.1f}/s), setup "
              f"{r['setup_ms']:.1f} ms, arrivals {c['arrivals']:.0f} "
              f"(admitted {c['arrivals_admitted']:.0f}, fast path "
              f"{c['fastpath_hits']:.0f}), solves {c['solves']:.0f}, rounds "
              f"{c['replan_rounds']:.0f}, evictions {c['evictions']:.0f}, "
              f"fingerprint {r['fingerprint']}")

    attempted = sum(r["timed_events"] for r in untraced)
    failed = failures(untraced)
    if args.trace:
        metrics = per_layer(checks, args.workload, untraced, traced)
    else:
        metrics = end_to_end(untraced)
    print(f"admit samples: {sum(len(r['arrival_ms']) for r in untraced)}; "
          f"failed {failed} of {attempted} events; run took "
          f"{time.monotonic() - start:.1f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:14.6f} {unit}")
    result = {
        "correct": not checks.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
