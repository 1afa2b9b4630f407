#ifndef SQPR_OBS_TRACE_H_
#define SQPR_OBS_TRACE_H_

// Flight-recorder tracing: one bounded span ring, drained on demand
// into Chrome trace_event JSON (loadable in Perfetto /
// chrome://tracing).
//
// Single-threaded, like the service it observes: spans are emitted and
// drained on the thread that runs the service.
//
//  * Near-zero cost when tracing is off. The disabled fast path is one
//    load of a bool — the closed-loop bench gates the events/s
//    regression at < 3% (ARCHITECTURE.md §7 has the budget).
//  * Bounded memory, paid up front. Enable() allocates and fills the
//    ring at the requested capacity, so no traced span pays for a page
//    fault; a process that never enables tracing allocates nothing.
//    When the ring wraps, the oldest spans are overwritten and counted
//    as drops — flight-recorder semantics: a drain always returns the
//    most recent window, plus the drop counter.
//
// Tracing never gates behavior: spans read the clocks (steady + the
// service's virtual clock tag) and write only to the ring. The
// determinism contract is pinned by a replay-property run with tracing
// enabled (tests/obs_test.cc).
//
// Usage:
//   void Solve() {
//     SQPR_TRACE_SPAN("milp/solve");          // RAII: emits on scope exit
//     ...
//   }
//   // with numeric args (names fixed at the call site, values per span):
//   SQPR_TRACE_SPAN_ARGS(span, "lp/simplex", "iterations", "rows");
//   ...
//   span.set_args(result.iterations, model.num_rows());
//
// Span names are '/'-separated taxonomy paths ("service/round.commit",
// "milp/cuts.separate"); the category Perfetto groups by is the first
// segment. docs/ARCHITECTURE.md §7 lists the full taxonomy.

#include <cstdint>
#include <string>
#include <vector>

namespace sqpr {
namespace obs {

/// One recorded span.
struct SpanRecord {
  uint32_t name_id = 0;
  uint32_t tid = 0;  // always TraceRecorder::kTid
  uint64_t start_ns = 0;  // relative to the recorder's enable time
  uint64_t dur_ns = 0;
  int64_t virt_ms = -1;   // service virtual clock at span start (-1: none)
  uint64_t args[2] = {0, 0};
};

/// Interned span metadata: name plus optional arg key names. Registered
/// once per call site (function-local static), so steady-state emits
/// never touch the intern table.
struct SpanMeta {
  std::string name;
  std::string cat;  // first '/' segment of name
  std::string arg_names[2];
};

/// Drain statistics of the ring (drop accounting is cumulative since
/// Enable). The trace JSON's `per_thread` list carries one entry.
struct ThreadTraceStats {
  std::string thread_name;
  uint64_t emitted = 0;
  uint64_t dropped = 0;  // overwritten before any drain saw them
};

/// Process-wide flight recorder.
class TraceRecorder {
 public:
  /// The tid every span and the one trace thread carry.
  static constexpr uint32_t kTid = 1;

  struct Options {
    /// The ring's capacity in spans; rounded up to a power of two (at
    /// least 16). At 48 bytes per span the default keeps 1.5 MiB.
    size_t per_thread_capacity = 1 << 15;
  };

  static TraceRecorder& Get();

  /// Starts recording into a fresh ring of `options`' capacity,
  /// allocated and filled here; the emitted and drop counters restart
  /// at zero. Emits between Enable and Disable are recorded; everything
  /// else is the one-load fast path.
  void Enable(const Options& options);
  void Enable() { Enable(Options()); }
  void Disable();
  static bool enabled() { return Get().enabled_; }

  /// Interns span metadata; returns a dense id. Never call per emit —
  /// the SQPR_TRACE_SPAN macros cache the id in a function-local
  /// static. Ids stay valid for the process lifetime.
  static uint32_t RegisterSpan(const char* name, const char* arg1 = nullptr,
                               const char* arg2 = nullptr);

  /// Names the trace's one thread in drained traces ("loop"); callable
  /// before Enable. Defaults to "thread-1".
  static void SetCurrentThreadName(const std::string& name);

  /// Tags subsequently emitted spans with the service's virtual clock.
  /// A process-wide debugging tag (last writer wins when several
  /// services coexist, e.g. in tests) — never read back by any control
  /// path.
  static void SetVirtualTimeMs(int64_t t_ms) { Get().virt_ms_ = t_ms; }

  /// Records one finished span; a no-op before the first Enable. Called
  /// by SpanScope; public for tests that exercise wrap/drop behavior
  /// directly.
  void Emit(uint32_t name_id, uint64_t start_ns, uint64_t dur_ns,
            int64_t virt_ms, uint64_t arg1, uint64_t arg2);

  /// Nanoseconds since the recorder's enable point (steady clock).
  uint64_t NowNs() const;
  int64_t virtual_time_ms() const { return virt_ms_; }

  /// Returns the spans recorded since the previous drain that the ring
  /// still holds, oldest first, and counts the ones it overwrote as
  /// drops. `stats` gets exactly one entry.
  std::vector<SpanRecord> Drain(std::vector<ThreadTraceStats>* stats = nullptr);

  /// Drains and renders Chrome trace_event JSON:
  ///   {"traceEvents": [{"ph":"X","name":...,"cat":...,"ts":...,
  ///     "dur":...,"pid":1,"tid":1,"args":{...}}, ...],
  ///    "displayTimeUnit":"ms",
  ///    "otherData":{"dropped_spans": ...}}
  /// plus one "M" thread_name metadata event. ts/dur are microseconds
  /// (fractional); args carry vclock_ms and the span's registered arg
  /// keys.
  std::string ChromeTraceJson();

  const SpanMeta& span_meta(uint32_t id) const;  // test/render access

 private:
  TraceRecorder();

  bool enabled_ = false;
  int64_t virt_ms_ = -1;
  uint64_t base_ns_ = 0;
  std::vector<SpanMeta> metas_;
  std::string thread_name_ = "thread-1";
  std::vector<SpanRecord> ring_;  // empty until the first Enable
  uint64_t emitted_ = 0;          // since Enable; slot = emitted_ & mask
  uint64_t drained_to_ = 0;
  uint64_t dropped_ = 0;
};

/// RAII span scope. Construct via the macros below; on destruction the
/// span is emitted to the ring (if tracing was on at construction).
class SpanScope {
 public:
  explicit SpanScope(uint32_t name_id) {
    if (!TraceRecorder::enabled()) return;
    name_id_ = name_id;
    TraceRecorder& rec = TraceRecorder::Get();
    virt_ms_ = rec.virtual_time_ms();
    start_ns_ = rec.NowNs();
    active_ = true;
  }
  ~SpanScope() {
    if (!active_) return;
    TraceRecorder& rec = TraceRecorder::Get();
    rec.Emit(name_id_, start_ns_, rec.NowNs() - start_ns_, virt_ms_, args_[0],
             args_[1]);
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Attaches numeric args (rendered under the keys given at
  /// registration). Call any time before scope exit.
  void set_args(uint64_t a1, uint64_t a2 = 0) {
    args_[0] = a1;
    args_[1] = a2;
  }

  bool active() const { return active_; }

 private:
  bool active_ = false;
  uint32_t name_id_ = 0;
  int64_t virt_ms_ = -1;
  uint64_t start_ns_ = 0;
  uint64_t args_[2] = {0, 0};
};

#define SQPR_TRACE_CONCAT_INNER(a, b) a##b
#define SQPR_TRACE_CONCAT(a, b) SQPR_TRACE_CONCAT_INNER(a, b)

/// Anonymous span covering the rest of the enclosing scope.
#define SQPR_TRACE_SPAN(name)                                         \
  static const uint32_t SQPR_TRACE_CONCAT(sqpr_span_id_, __LINE__) =  \
      ::sqpr::obs::TraceRecorder::RegisterSpan(name);                 \
  ::sqpr::obs::SpanScope SQPR_TRACE_CONCAT(sqpr_span_, __LINE__)(     \
      SQPR_TRACE_CONCAT(sqpr_span_id_, __LINE__))

/// Named span scope with up to two numeric args: `var.set_args(...)`.
#define SQPR_TRACE_SPAN_ARGS(var, name, arg1, arg2)          \
  static const uint32_t var##_sqpr_id =                      \
      ::sqpr::obs::TraceRecorder::RegisterSpan(name, arg1, arg2); \
  ::sqpr::obs::SpanScope var(var##_sqpr_id)

}  // namespace obs
}  // namespace sqpr

#endif  // SQPR_OBS_TRACE_H_
