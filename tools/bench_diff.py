#!/usr/bin/env python3
"""Diffs two BENCH_*.json trajectory files (bench_util.h schema v2).

Matches records across the two files by (scenario, labels), then
reports per-metric deltas. Counter-like metrics that changed (admitted,
evictions, solver_nodes, ...) come first: on a deterministic bench they
never move between builds of the same behaviour, so a count delta
flags a behaviour change, not noise. The wall-time metrics (wall_ms,
*_p50_ms, *_p95_ms, *_p99_ms, max_event_ms, events_per_s) follow,
absolute and relative; a relative delta inside the +-15% band that
back-to-back runs of one build span on a shared host (ROADMAP.md) is
labelled "within noise", and only a larger one "regressed" or
"improved".

Intended as a non-gating CI report: exit 0 whenever both files parse
and describe the same bench, regardless of how bad the numbers look.
--gate-pct P turns it into a gate that fails when any latency metric
regressed by more than P percent, whatever its noise label (counters
still never gate).

Usage:
  tools/bench_diff.py BASELINE.json CANDIDATE.json [--gate-pct P]
"""

import argparse
import json
import sys

# Metrics where smaller is better and run-to-run noise is expected.
LATENCY_KEYS = (
    "wall_ms",
    "max_event_ms",
    "solver_p50_ms",
    "solver_p95_ms",
    "solver_p99_ms",
    "measure_ms_avg",
    "measure_ms_max",
    "measure_ms_p99",
    "export_first_ms",
    "export_ms_avg",
    "write_ms_avg",
    "restore_ms",
)
# Metrics where larger is better.
THROUGHPUT_KEYS = ("events_per_s",)
# Relative wall-time change (percent) that back-to-back runs of the same
# binaries reach on a shared host; smaller deltas are labelled noise.
NOISE_PCT = 15.0


def noise_label(reg_pct):
    """Label of a wall-time delta, `reg_pct` > 0 meaning slower."""
    if abs(reg_pct) <= NOISE_PCT:
        return "within noise"
    return "regressed" if reg_pct > 0 else "improved"


def fail(msg):
    print(f"bench_diff: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {path}: {e}")
    if data.get("schema_version") != 2:
        fail(
            f"{path}: schema_version is {data.get('schema_version')!r}, "
            f"want 2"
        )
    for key in ("bench", "seed", "records"):
        if key not in data:
            fail(f"{path}: missing {key}")
    if not isinstance(data["records"], list):
        fail(f"{path}: records is not a list")
    for i, rec in enumerate(data["records"]):
        for key in ("scenario", "labels", "metrics"):
            if key not in rec:
                fail(f"{path}: records[{i}] missing {key}")
    return data


def record_key(rec):
    return (rec["scenario"], tuple(sorted(rec["labels"].items())))


def key_str(key):
    scenario, labels = key
    lbl = ", ".join(f"{k}={v}" for k, v in labels)
    return f"{scenario} [{lbl}]"


def main():
    ap = argparse.ArgumentParser(description="diff two BENCH json files")
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument(
        "--gate-pct",
        type=float,
        default=None,
        help="fail when a latency metric regresses by more than this "
        "percentage (default: report only, never fail)",
    )
    args = ap.parse_args()

    base = load(args.baseline)
    cand = load(args.candidate)
    if base["bench"] != cand["bench"]:
        fail(
            f"different benches: {base['bench']!r} vs {cand['bench']!r}"
        )
    if base["seed"] != cand["seed"]:
        print(
            f"bench_diff: note: seeds differ ({base['seed']} vs "
            f"{cand['seed']}) — records compare different workloads"
        )

    base_by_key = {record_key(r): r["metrics"] for r in base["records"]}
    cand_by_key = {record_key(r): r["metrics"] for r in cand["records"]}
    only_base = sorted(
        set(base_by_key) - set(cand_by_key), key=key_str
    )
    only_cand = sorted(
        set(cand_by_key) - set(base_by_key), key=key_str
    )
    for k in only_base:
        print(f"bench_diff: note: only in baseline: {key_str(k)}")
    for k in only_cand:
        print(f"bench_diff: note: only in candidate: {key_str(k)}")

    print(
        f"bench {base['bench']} (seed {base['seed']}): "
        f"{len(base_by_key)} baseline records vs {len(cand_by_key)} "
        f"candidate records, {len(set(base_by_key) & set(cand_by_key))} "
        f"matched"
    )

    worst_regression = None  # (pct, record key, metric)
    count_changes = 0
    for key in sorted(set(base_by_key) & set(cand_by_key), key=key_str):
        b, c = base_by_key[key], cand_by_key[key]
        shared = sorted(set(b) & set(c))
        lines = []
        for metric in shared:
            if metric in LATENCY_KEYS or metric in THROUGHPUT_KEYS:
                continue
            vb, vc = b[metric], c[metric]
            if vb != vc:
                count_changes += 1
                lines.append(
                    f"    {metric:<22} {vb:>12g} -> {vc:>12g}  "
                    f"<-- count changed (deterministic metric)"
                )
        for metric in LATENCY_KEYS + THROUGHPUT_KEYS:
            if metric not in b or metric not in c:
                continue
            vb, vc = float(b[metric]), float(c[metric])
            delta = vc - vb
            pct = 100.0 * delta / vb if vb != 0 else 0.0
            # Regression = slower latency or lower throughput.
            reg_pct = -pct if metric in THROUGHPUT_KEYS else pct
            marker = f"  <-- {noise_label(reg_pct)}" if vb != 0 else ""
            lines.append(
                f"    {metric:<22} {vb:>12.4g} -> {vc:>12.4g}  "
                f"({pct:+.1f}%){marker}"
            )
            if vb != 0 and (
                worst_regression is None or reg_pct > worst_regression[0]
            ):
                worst_regression = (reg_pct, key, metric)
        if lines:
            print(f"\n  {key_str(key)}")
            for line in lines:
                print(line)

    print()
    if count_changes:
        print(
            f"bench_diff: {count_changes} deterministic counters changed "
            f"— the candidate build behaves differently, not just slower"
        )
    if worst_regression is not None:
        pct, key, metric = worst_regression
        print(
            f"bench_diff: worst latency/throughput regression: "
            f"{metric} {pct:+.1f}% in {key_str(key)} "
            f"({noise_label(pct)})"
        )
        if args.gate_pct is not None and pct > args.gate_pct:
            fail(
                f"{metric} regressed {pct:+.1f}% "
                f"(> {args.gate_pct:.1f}%) in {key_str(key)}"
            )
    sys.exit(0)


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:  # e.g. piped into head
        sys.exit(0)
