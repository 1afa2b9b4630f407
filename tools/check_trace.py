#!/usr/bin/env python3
"""Validates a flight-recorder trace (Chrome trace_event JSON emitted by
TraceRecorder::ChromeTraceJson, schema sqpr-trace-v1) and — when the
trace contains re-planning rounds — checks that named spans attribute
the required fraction of each round's wall time.

Usage:
  tools/check_trace.py TRACE.json[.gz] [--min-round-coverage 0.9]
                       [--require-rounds]

Checks (all fatal):
  * JSON parses; top level has traceEvents (list) and otherData with
    schema == "sqpr-trace-v1" plus emitted_spans / dropped_spans /
    threads counters.
  * Every event is an "M" thread_name record (args.name present) or an
    "X" complete span (name, cat, numeric ts >= 0, numeric dur >= 0,
    integer tid named by some "M" record).
  * Span names are '/'-separated taxonomy paths whose first segment
    matches the event's cat.
  * Re-planning-round attribution: a round is one service/round.commit
    span, inside which the round's queries are solved in order. The
    union of the spans nested in it (same thread, starting and ending
    inside its window) must cover >= --min-round-coverage of it:
    "explain every millisecond" is gated here, not eyeballed in
    Perfetto. Enclosing spans (the service/event.* span a round commits
    in, bench/* spans) never count: they would cover any round. On a
    thread whose ring dropped spans, a round that started before the
    thread's oldest retained span ended may have lost children to the
    ring; it is skipped. --require-rounds needs one complete round.

Exit 0 on success, 1 with a message on any failure.
"""

import argparse
import bisect
import gzip
import json
import sys


NESTING_SLACK_US = 0.002


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    opener = gzip.open if path.endswith(".gz") else open
    try:
        with opener(path, "rt") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {path}: {e}")


def union_length(intervals, lo, hi):
    """Total length of the union of [start, end) intervals clipped to
    [lo, hi)."""
    clipped = sorted(
        (max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi
    )
    total = 0.0
    cur_lo = None
    cur_hi = None
    for s, e in clipped:
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("trace")
    ap.add_argument("--min-round-coverage", type=float, default=0.9)
    ap.add_argument(
        "--require-rounds",
        action="store_true",
        help="fail when the trace contains no re-planning rounds",
    )
    args = ap.parse_args()

    data = load(args.trace)
    events = data.get("traceEvents")
    if not isinstance(events, list):
        fail("traceEvents missing or not a list")
    other = data.get("otherData")
    if not isinstance(other, dict):
        fail("otherData missing")
    if other.get("schema") != "sqpr-trace-v1":
        fail(f"schema is {other.get('schema')!r}, want 'sqpr-trace-v1'")
    for key in ("emitted_spans", "dropped_spans", "threads"):
        if not isinstance(other.get(key), int):
            fail(f"otherData.{key} missing or not an integer")
    # Per-thread ring statistics (optional: traces written before the
    # recorder exported them lack the key). When present they must be
    # coherent with the totals — a drop hidden in one thread's ring is
    # exactly what the gate output needs to surface.
    per_thread = other.get("per_thread")
    if per_thread is not None:
        if not isinstance(per_thread, list):
            fail("otherData.per_thread is not a list")
        for i, t in enumerate(per_thread):
            if not isinstance(t, dict) or not isinstance(t.get("name"), str):
                fail(f"otherData.per_thread[{i}]: missing thread name")
            for key in ("emitted", "dropped"):
                if not isinstance(t.get(key), int) or t[key] < 0:
                    fail(
                        f"otherData.per_thread[{i}] ({t.get('name')!r}): "
                        f"{key} missing or not a non-negative integer"
                    )
        for key, total in (
            ("emitted", other["emitted_spans"]),
            ("dropped", other["dropped_spans"]),
        ):
            s = sum(t[key] for t in per_thread)
            if s != total:
                fail(
                    f"otherData.per_thread {key} counts sum to {s}, "
                    f"but {key}_spans says {total}"
                )

    named_tids = {}
    spans = []
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") != "thread_name":
                fail(f"event {i}: unexpected metadata record {ev.get('name')!r}")
            name = ev.get("args", {}).get("name")
            if not isinstance(name, str) or not name:
                fail(f"event {i}: thread_name metadata without args.name")
            named_tids[ev.get("tid")] = name
        elif ph == "X":
            name, cat = ev.get("name"), ev.get("cat")
            ts, dur, tid = ev.get("ts"), ev.get("dur"), ev.get("tid")
            if not isinstance(name, str) or not name:
                fail(f"event {i}: span without a name")
            if not isinstance(cat, str) or name.split("/")[0] != cat:
                fail(f"event {i}: cat {cat!r} != first segment of {name!r}")
            if not isinstance(ts, (int, float)) or ts < 0:
                fail(f"event {i} ({name}): bad ts {ts!r}")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(f"event {i} ({name}): bad dur {dur!r}")
            if not isinstance(tid, int):
                fail(f"event {i} ({name}): bad tid {tid!r}")
            span_args = ev.get("args", {})
            if not isinstance(span_args, dict):
                fail(f"event {i} ({name}): args is not an object")
            spans.append(
                (name, tid, float(ts), float(ts) + float(dur), span_args)
            )
        else:
            fail(f"event {i}: unknown ph {ph!r}")

    for name, tid, _, _, _ in spans:
        if tid not in named_tids:
            fail(f"span {name}: tid {tid} has no thread_name metadata")

    # --- re-planning-round attribution ---------------------------------
    # Each round is one commit span; its solves are the spans nested in
    # it. Only nested spans explain the round: the event span it commits
    # in encloses it whole, whatever the round spent its time on.
    rounds_spans = sorted(
        (s, e, tid) for n, tid, s, e, _ in spans if n == "service/round.commit"
    )
    if args.require_rounds and not rounds_spans:
        fail("trace contains no service/round.commit spans")

    # A thread's ring keeps its newest spans, and a span is recorded when
    # it ends, so after drops everything that ended after the thread's
    # oldest retained end is still there.
    dropped_by_name = {
        t["name"]: t["dropped"] for t in (per_thread or [])
    }
    oldest_end = {}
    for _, tid, _, e, _ in spans:
        oldest_end[tid] = min(e, oldest_end.get(tid, e))
    # Per thread, the non-round spans sorted by start, for the nesting
    # lookup below.
    by_tid = {}
    for n, tid, s, e, _ in spans:
        if n != "service/round.commit":
            by_tid.setdefault(tid, []).append((s, e))
    for intervals in by_tid.values():
        intervals.sort()
    starts = {tid: [s for s, _ in iv] for tid, iv in by_tid.items()}

    def ring_dropped(tid):
        if per_thread is None:
            return other["dropped_spans"] > 0
        return dropped_by_name.get(named_tids[tid], 0) > 0

    truncated = 0
    checked = 0
    worst = None
    for k, (r_start, r_end, r_tid) in enumerate(rounds_spans):
        if ring_dropped(r_tid) and r_start < oldest_end[r_tid]:
            truncated += 1
            continue
        checked += 1
        window = r_end - r_start
        if window <= 0:
            continue
        # ts and dur are each printed to 1 ns, so a child may overhang
        # its parent's end by a rounding step.
        intervals = by_tid.get(r_tid, [])
        lo = bisect.bisect_left(starts.get(r_tid, []), r_start)
        hi = bisect.bisect_right(starts.get(r_tid, []), r_end)
        nested = [
            (s, e)
            for s, e in intervals[lo:hi]
            if e <= r_end + NESTING_SLACK_US
        ]
        coverage = union_length(nested, r_start, r_end) / window
        if worst is None or coverage < worst[1]:
            worst = (k, coverage)
        if coverage < args.min_round_coverage:
            fail(
                f"round {k}: named spans cover {coverage:.1%} of the "
                f"{window / 1000.0:.2f} ms round window "
                f"(< {args.min_round_coverage:.0%})"
            )

    if truncated:
        print(
            f"check_trace: note: skipped {truncated} rounds that started "
            f"before the ring's oldest retained span; checking {checked}"
        )
    if args.require_rounds and checked == 0:
        fail("every retained round was truncated by the ring")

    summary = (
        f"{checked} rounds, worst coverage {worst[1]:.1%}"
        if worst is not None
        else "no complete rounds retained"
    )
    if per_thread is not None:
        dropped_detail = ", ".join(
            f"{t['name']} {t['dropped']}/{t['emitted']}"
            for t in per_thread
            if t["dropped"] > 0
        )
        dropped_str = (
            f"{other['dropped_spans']} dropped ({dropped_detail})"
            if dropped_detail
            else f"0 dropped on all {len(per_thread)} threads"
        )
    else:
        dropped_str = f"{other['dropped_spans']} dropped"
    print(
        f"check_trace: OK: {len(spans)} spans on {len(named_tids)} threads, "
        f"{dropped_str}; {summary}"
    )


if __name__ == "__main__":
    main()
