#!/usr/bin/env python3
"""Tests tools/check_trace.py's round-attribution gate on small
synthetic traces: a round explained only by the event span around it
must fail, a round explained by nested spans must pass, and a round the
ring truncated is skipped rather than checked.

Usage: tools/check_trace_test.py   (exit 0 when every case holds)
"""

import json
import os
import subprocess
import sys
import tempfile

CHECK_TRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "check_trace.py")


def span(name, ts, dur, tid=1):
    return {"ph": "X", "name": name, "cat": name.split("/")[0], "ts": ts,
            "dur": dur, "tid": tid, "args": {}}


def trace(spans, emitted=None, dropped=0):
    emitted = len(spans) + dropped if emitted is None else emitted
    return {
        "traceEvents": [{"ph": "M", "name": "thread_name", "tid": 1,
                         "args": {"name": "loop"}}] + spans,
        "otherData": {
            "schema": "sqpr-trace-v1", "emitted_spans": emitted,
            "dropped_spans": dropped, "threads": 1,
            "per_thread": [{"name": "loop", "emitted": emitted,
                            "dropped": dropped}],
        },
    }


def run(doc, tmpdir):
    path = os.path.join(tmpdir, "trace.json")
    with open(path, "w") as f:
        json.dump(doc, f)
    proc = subprocess.run(
        [sys.executable, CHECK_TRACE, path, "--min-round-coverage", "0.9",
         "--require-rounds"],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    failures = []

    def expect(label, doc, code, needle):
        rc, out = run(doc, tmpdir)
        if rc != code or needle not in out:
            failures.append(f"{label}: exit {rc}, want {code} with "
                            f"{needle!r}; output:\n{out}")

    with tempfile.TemporaryDirectory() as tmpdir:
        # A round with no child spans, inside the event span it commits
        # in: the event span covers it whole but explains nothing.
        expect("bare round in event", trace([
            span("service/round.commit", 100.0, 500.0),
            span("service/event.arrival", 50.0, 600.0),
        ]), 1, "round 0: named spans cover 0.0%")

        # The same round with its solves nested in it.
        expect("explained round", trace([
            span("service/admit", 105.0, 240.0),
            span("service/admit", 350.0, 245.0),
            span("service/round.commit", 100.0, 500.0),
            span("service/event.arrival", 50.0, 600.0),
        ]), 0, "1 rounds, worst coverage 97.0%")

        # A child on another thread does not explain the round.
        other_thread = trace([
            span("service/admit", 100.0, 500.0, tid=2),
            span("service/round.commit", 100.0, 500.0),
        ])
        other_thread["traceEvents"].append(
            {"ph": "M", "name": "thread_name", "tid": 2,
             "args": {"name": "other"}})
        expect("child on another thread", other_thread, 1,
               "round 0: named spans cover 0.0%")

        # The ring dropped the round's first solves: everything retained
        # ended after 400, so the round that started at 100 is skipped
        # and the complete one after it is checked.
        expect("truncated round skipped", trace([
            span("service/admit", 350.0, 245.0),
            span("service/round.commit", 100.0, 500.0),
            span("service/admit", 700.0, 95.0),
            span("service/round.commit", 700.0, 100.0),
        ], dropped=5), 0, "skipped 1 rounds")

        # With only truncated rounds left, --require-rounds fails.
        expect("only truncated rounds", trace([
            span("service/admit", 350.0, 245.0),
            span("service/round.commit", 100.0, 500.0),
        ], dropped=5), 1, "every retained round was truncated")

    for f in failures:
        print(f"check_trace_test: FAIL: {f}", file=sys.stderr)
    if failures:
        sys.exit(1)
    print("check_trace_test: OK")


if __name__ == "__main__":
    main()
