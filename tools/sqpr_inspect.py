#!/usr/bin/env python3
"""Per-query timeline inspector over the three observability artifacts.

Joins a decision audit journal (sqpr-audit-v1 JSONL, the source of
truth), an optional flight-recorder trace (Chrome trace_event JSON,
sqpr-trace-v1) and an optional periodic metrics series
(sqpr-metrics-series-v1 JSONL) produced by the same replay into:

  * per-query lifecycle timelines (--query ID): every decision that
    touched the query, in commit order, with reason codes and wall
    latencies (full-rendering journals) or virtual times only
    (canonical renderings);
  * per-round wall-time attribution (--rounds): each committed
    re-planning round's sequence number, member queries and outcomes,
    joined — via its virtual commit time — to its service/round.commit
    span, so the round's window is broken down by span name;
  * a lifecycle completeness gate (--require-complete): the journal's
    records are replayed through a query state machine and the final
    states must exactly reproduce the journal's own close.admitted /
    close.pending lists — every query the service ever admitted,
    rejected, evicted or queued is accounted for, none dangle.

Usage:
  tools/sqpr_inspect.py AUDIT.jsonl[.gz] [--trace TRACE.json[.gz]]
      [--metrics SERIES.jsonl[.gz]] [--query ID] [--rounds]
      [--require-complete]

Exit 0 on success; 1 when the journal is malformed, an artifact
disagrees with the journal, or --require-complete finds an unclosed
lifecycle.
"""

import argparse
import gzip
import json
import sys


def fail(msg):
    print(f"sqpr_inspect: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def opener(path):
    return gzip.open(path, "rt") if path.endswith(".gz") else open(path)


# Audit kinds that move a query through its lifecycle. rate.directive
# also carries a stream id, but that id names a *base* stream (the
# trajectory's subject), not a query, so it is deliberately absent.
ADMIT_KINDS = {"admit.solve", "admit.cache"}
REJECT_KINDS = {"reject.capacity", "reject.error"}
DEPART_KINDS = {"depart.served", "depart.unknown"}
EVICT_KINDS = {"evict.host_failure", "evict.drift"}
LIFECYCLE_KINDS = (
    ADMIT_KINDS
    | REJECT_KINDS
    | DEPART_KINDS
    | EVICT_KINDS
    | {
        "admit.dedup",
        "replan.enqueue",
        "replan.admit",
        "replan.reject",
        "replan.fail",
    }
)
SPECULATIVE_QUERY_KINDS = {
    "replan.discard",
}


def load_audit(path):
    """Parses the journal; returns (canonical_rendering, records)."""
    records = []
    canonical = None
    with opener(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: bad JSON: {e}")
            if lineno == 1:
                if rec.get("schema") != "sqpr-audit-v1":
                    fail(
                        f"{path}: schema is {rec.get('schema')!r}, "
                        f"want 'sqpr-audit-v1'"
                    )
                canonical = rec.get("canonical")
                if not isinstance(canonical, bool):
                    fail(f"{path}: header lacks a boolean 'canonical'")
                continue
            if ("seq" in rec) == ("sseq" in rec):
                fail(
                    f"{path}:{lineno}: record needs exactly one of "
                    f"seq (canonical) / sseq (speculative)"
                )
            if not isinstance(rec.get("kind"), str):
                fail(f"{path}:{lineno}: record without a kind")
            if not isinstance(rec.get("t_ms"), int):
                fail(f"{path}:{lineno}: record without an integer t_ms")
            records.append(rec)
    if canonical is None:
        fail(f"{path}: empty journal (no header line)")
    # Both strata must number contiguously from 0 — a gap means records
    # were filtered out by something other than the canonical renderer.
    for key in ("seq", "sseq"):
        seqs = [r[key] for r in records if key in r]
        if seqs != list(range(len(seqs))):
            fail(f"{path}: {key} numbering is not contiguous from 0")
    if canonical and any("sseq" in r for r in records):
        fail(f"{path}: canonical rendering contains speculative records")
    return canonical, records


class Lifecycles:
    """Replays canonical records into per-query states + histories.

    "admitted" (deployed) and "pending" (queued for a re-planning
    round) are orthogonal: a host join retries remembered-rejected
    queries, so a query re-admitted by a fresh arrival can be enqueued
    again while still deployed — it then legitimately appears in both
    close.admitted and close.pending.
    """

    def __init__(self):
        self.admitted = set()
        self.pending = set()
        # Evicted queries the service has not re-queued yet. Eviction
        # always re-queues in the same handler, so anything still here
        # at close is a gate failure. An evicted query that was already
        # pending never gets a fresh replan.enqueue record (the
        # scheduler deduplicates), hence the pending check on entry.
        self.evicted = set()
        self.history = {}  # query -> [record, ...] (speculative included)
        self.close_admitted = None
        self.close_pending = None
        self.journal_close = None
        self.kind_counts = {}

    def note(self, query, rec):
        self.history.setdefault(query, []).append(rec)

    def apply(self, rec):
        kind = rec["kind"]
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1
        if "sseq" in rec:
            if kind in SPECULATIVE_QUERY_KINDS and "query" in rec:
                self.note(rec["query"], rec)
            return
        if kind == "close.admitted":
            self.close_admitted = rec.get("streams", [])
            return
        if kind == "close.pending":
            self.close_pending = rec.get("streams", [])
            return
        if kind == "journal.close":
            self.journal_close = rec
            return
        if kind not in LIFECYCLE_KINDS or "query" not in rec:
            return
        q = rec["query"]
        self.note(q, rec)
        if kind in ADMIT_KINDS:
            self.admitted.add(q)
        elif kind == "replan.admit":
            self.admitted.add(q)
            self.pending.discard(q)
        elif kind in ("replan.reject", "replan.fail"):
            # A deployed member of a round always resolves to
            # replan.admit (already-served commits as admitted), so a
            # reject implies the query is not deployed.
            self.admitted.discard(q)
            self.pending.discard(q)
        elif kind in REJECT_KINDS:
            self.admitted.discard(q)
        elif kind in DEPART_KINDS:
            # Departure discards any queued retry too (the service
            # calls the scheduler discard even for depart.unknown).
            self.admitted.discard(q)
            self.pending.discard(q)
            self.evicted.discard(q)
        elif kind in EVICT_KINDS:
            self.admitted.discard(q)
            if q not in self.pending:
                self.evicted.add(q)
        elif kind == "replan.enqueue":
            self.pending.add(q)
            self.evicted.discard(q)
        # admit.dedup: an arrival for an already-served query — history
        # only, the state stays admitted.

    def final_state(self, q):
        flags = []
        if q in self.admitted:
            flags.append("admitted")
        if q in self.pending:
            flags.append("pending")
        if flags:
            return "+".join(flags)
        last = next(
            (
                r["kind"]
                for r in reversed(self.history.get(q, []))
                if "seq" in r
            ),
            None,
        )
        return "departed" if last in DEPART_KINDS else "rejected"

    def completeness_errors(self):
        errs = []
        if self.journal_close is None:
            errs.append("journal has no journal.close record")
        if self.close_admitted is None or self.close_pending is None:
            errs.append("journal lacks close.admitted / close.pending")
            return errs
        if self.evicted:
            errs.append(
                f"{len(self.evicted)} queries evicted but never "
                f"re-queued: {sorted(self.evicted)[:10]}"
            )
        for name, replayed, close in (
            ("close.admitted", self.admitted, self.close_admitted),
            ("close.pending", self.pending, self.close_pending),
        ):
            if replayed != set(close):
                missing = sorted(set(close) - replayed)[:10]
                extra = sorted(replayed - set(close))[:10]
                errs.append(
                    f"replayed set disagrees with {name} "
                    f"(missing {missing}, extra {extra})"
                )
        return errs


def load_trace_rounds(path):
    """Returns ({virtual commit time: [(start, end), ...]}, spans): the
    service/round.commit windows, grouped by the virtual time they
    committed at, in wall-clock order."""
    with opener(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"cannot parse {path}: {e}")
    spans = []
    for ev in data.get("traceEvents", []):
        if ev.get("ph") != "X":
            continue
        ts, dur = float(ev.get("ts", 0)), float(ev.get("dur", 0))
        spans.append((ev.get("name"), ts, ts + dur, ev.get("args", {})))
    windows = {}
    for name, s, e, a in sorted(spans, key=lambda sp: sp[1]):
        vclock = a.get("vclock_ms")
        if name == "service/round.commit" and isinstance(vclock, int):
            windows.setdefault(vclock, []).append((s, e))
    return windows, spans


def attribute_window(spans, lo, hi, top=5):
    """Per-span-name time inside [lo, hi) us, largest first."""
    by_name = {}
    for name, s, e, _ in spans:
        s, e = max(s, lo), min(e, hi)
        if e > s:
            by_name[name] = by_name.get(name, 0.0) + (e - s)
    ranked = sorted(by_name.items(), key=lambda kv: -kv[1])
    return ranked[:top]


def load_metrics_series(path):
    header = None
    samples = []
    with opener(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: bad JSON: {e}")
            if lineno == 1:
                if rec.get("schema") != "sqpr-metrics-series-v1":
                    fail(
                        f"{path}: schema is {rec.get('schema')!r}, "
                        f"want 'sqpr-metrics-series-v1'"
                    )
                header = rec
                continue
            for key in ("t_ms", "cum", "delta"):
                if key not in rec:
                    fail(f"{path}:{lineno}: series sample without {key}")
            samples.append(rec)
    if header is None:
        fail(f"{path}: empty series (no header line)")
    if samples != sorted(samples, key=lambda r: r["t_ms"]):
        fail(f"{path}: sample t_ms not monotone")
    return header, samples


def fmt_wall(rec):
    wall = rec.get("wall", {})
    parts = []
    if "solve_ms" in wall:
        parts.append(f"solve {wall['solve_ms']:.2f} ms")
    return f"  [{', '.join(parts)}]" if parts else ""


def main():
    ap = argparse.ArgumentParser(
        description="inspect SQPR observability artifacts"
    )
    ap.add_argument("audit", help="sqpr-audit-v1 JSONL journal")
    ap.add_argument("--trace", help="sqpr-trace-v1 Chrome trace of the run")
    ap.add_argument(
        "--metrics", help="sqpr-metrics-series-v1 JSONL of the run"
    )
    ap.add_argument("--query", type=int, help="print one query's timeline")
    ap.add_argument(
        "--rounds",
        action="store_true",
        help="print per-round outcome and wall-time attribution",
    )
    ap.add_argument(
        "--require-complete",
        action="store_true",
        help="fail unless every query lifecycle is closed",
    )
    args = ap.parse_args()

    canonical, records = load_audit(args.audit)
    life = Lifecycles()
    for rec in records:
        life.apply(rec)

    n_queries = len(life.history)
    states = {}
    for q in life.history:
        s = life.final_state(q)
        states[s] = states.get(s, 0) + 1
    print(
        f"audit: {len(records)} records "
        f"({'canonical rendering' if canonical else 'full rendering'}), "
        f"{n_queries} distinct queries"
    )
    print(
        "  final states: "
        + ", ".join(f"{k} {v}" for k, v in sorted(states.items()))
    )
    top_kinds = sorted(life.kind_counts.items(), key=lambda kv: -kv[1])
    print(
        "  decisions: "
        + ", ".join(f"{k} {v}" for k, v in top_kinds)
    )

    errors = life.completeness_errors()

    if args.metrics:
        header, samples = load_metrics_series(args.metrics)
        final = samples[-1]["cum"]["counters"] if samples else {}
        print(
            f"metrics: {len(samples)} samples every "
            f"{header.get('interval_ms')} virtual ms, final t_ms "
            f"{samples[-1]['t_ms'] if samples else 0}"
        )
        # Cross-artifact joins: the series' final cumulative counters
        # must agree with what the journal recorded decision by
        # decision (all three counters are worker/depth-invariant).
        expect = {
            "service.events": (life.journal_close or {}).get("detail"),
            "service.admitted": sum(
                life.kind_counts.get(k, 0)
                for k in ("admit.solve", "admit.cache", "admit.dedup")
            ),
            "service.rejected": sum(
                life.kind_counts.get(k, 0)
                for k in ("reject.capacity", "reject.error")
            ),
        }
        for name, want in expect.items():
            got = final.get(name)
            if want is not None and got != want:
                errors.append(
                    f"metrics series {name}={got} disagrees with the "
                    f"audit journal's {want}"
                )
        if samples and not errors:
            print("  final counters agree with the audit journal")

    trace_windows, trace_spans = ({}, [])
    if args.trace:
        trace_windows, trace_spans = load_trace_rounds(args.trace)
        print(
            f"trace: {len(trace_spans)} spans, "
            f"{sum(len(w) for w in trace_windows.values())} round windows"
        )

    if args.query is not None:
        hist = life.history.get(args.query)
        if hist is None:
            fail(f"query {args.query} never appears in the journal")
        print(f"\ntimeline for query {args.query} "
              f"(final state: {life.final_state(args.query)}):")
        for rec in hist:
            spec = "~" if "sseq" in rec else " "
            extra = ""
            if "round" in rec:
                extra += f"  round {rec['round']}"
            if "host" in rec:
                extra += f"  host {rec['host']}"
            print(
                f"  {spec} t={rec['t_ms']:>8} ms  {rec['kind']:<18}"
                f"{extra}{fmt_wall(rec)}"
            )

    if args.rounds:
        rounds = [
            r
            for r in records
            if "seq" in r and r["kind"] == "replan.round"
        ]
        outcomes = {}
        for r in records:
            if "seq" in r and r["kind"] in (
                "replan.admit",
                "replan.reject",
                "replan.fail",
            ):
                outcomes.setdefault(r.get("round"), []).append(r)
        print(f"\n{len(rounds)} committed re-planning rounds:")
        # Rounds committed at one virtual time pair with that time's
        # commit spans in order.
        seen_at = {}
        for r in rounds:
            outs = outcomes.get(r.get("round"), [])
            admitted = sum(1 for o in outs if o["kind"] == "replan.admit")
            line = (
                f"  round {r.get('round'):>3}  t={r['t_ms']:>8} ms  "
                f"{r.get('detail', 0)} queries, {admitted} re-admitted"
            )
            solve_ms = sum(
                o.get("wall", {}).get("solve_ms", 0.0) for o in outs
            )
            if solve_ms:
                line += f"  (solves {solve_ms:.2f} ms)"
            k = seen_at.get(r["t_ms"], 0)
            seen_at[r["t_ms"]] = k + 1
            at = trace_windows.get(r["t_ms"], [])
            if k < len(at):
                lo, hi = at[k]
                line += f"  window {(hi - lo) / 1000.0:.2f} ms:"
                print(line)
                for name, us in attribute_window(trace_spans, lo, hi):
                    print(f"        {name:<28} {us / 1000.0:>9.2f} ms")
            else:
                print(line)

    if errors:
        for e in errors:
            print(f"sqpr_inspect: lifecycle: {e}", file=sys.stderr)
        if args.require_complete:
            fail(f"{len(errors)} lifecycle completeness errors")
        print(
            f"sqpr_inspect: WARNING: {len(errors)} completeness errors "
            f"(pass --require-complete to gate)"
        )
    else:
        print(
            f"lifecycle: complete — all {n_queries} queries accounted "
            f"for at close"
        )


if __name__ == "__main__":
    main()
