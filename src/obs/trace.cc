#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common/logging.h"

namespace sqpr {
namespace obs {
namespace {

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

/// Single-writer, any-reader span ring. The owning thread emits; drains
/// from any thread skip torn slots via per-slot stamps. Every field a
/// drain may read concurrently with an emit is a relaxed atomic, so the
/// whole structure is data-race-free by construction (and under TSan).
class TraceRecorder::ThreadBuffer {
 public:
  ThreadBuffer(uint32_t tid, std::string name, size_t capacity)
      : tid_(tid), name_(std::move(name)), mask_(capacity - 1),
        slots_(capacity) {}

  void Emit(uint32_t name_id, uint64_t start_ns, uint64_t dur_ns,
            int64_t virt_ms, uint64_t arg1, uint64_t arg2) {
    const uint64_t i = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[i & mask_];
    // Invalidate the slot first so a concurrent drain never stitches
    // the old record's stamp onto the new payload.
    s.stamp.store(kInProgress, std::memory_order_relaxed);
    s.name_id.store(name_id, std::memory_order_relaxed);
    s.start_ns.store(start_ns, std::memory_order_relaxed);
    s.dur_ns.store(dur_ns, std::memory_order_relaxed);
    s.virt_ms.store(virt_ms, std::memory_order_relaxed);
    s.arg1.store(arg1, std::memory_order_relaxed);
    s.arg2.store(arg2, std::memory_order_relaxed);
    // Publish: stamp == record index marks the payload complete.
    s.stamp.store(i, std::memory_order_release);
    head_.store(i + 1, std::memory_order_release);
  }

  /// Appends the retained window to `out`; updates cumulative drops.
  void Drain(std::vector<SpanRecord>* out, ThreadTraceStats* stats) {
    const uint64_t head = head_.load(std::memory_order_acquire);
    const size_t capacity = mask_ + 1;
    const uint64_t first = head > capacity ? head - capacity : 0;
    // Everything before the retained window that no drain ever saw was
    // overwritten in place — flight-recorder drops.
    if (first > drained_to_) dropped_ += first - drained_to_;
    for (uint64_t i = std::max(first, drained_to_); i < head; ++i) {
      const Slot& s = slots_[i & mask_];
      if (s.stamp.load(std::memory_order_acquire) != i) continue;  // torn
      SpanRecord r;
      r.name_id = s.name_id.load(std::memory_order_relaxed);
      r.tid = tid_;
      r.start_ns = s.start_ns.load(std::memory_order_relaxed);
      r.dur_ns = s.dur_ns.load(std::memory_order_relaxed);
      r.virt_ms = s.virt_ms.load(std::memory_order_relaxed);
      r.args[0] = s.arg1.load(std::memory_order_relaxed);
      r.args[1] = s.arg2.load(std::memory_order_relaxed);
      out->push_back(r);
    }
    drained_to_ = head;
    if (stats != nullptr) {
      stats->thread_name = name_;
      stats->emitted = head;
      stats->dropped = dropped_;
    }
  }

  /// Restarts recording from an empty window (Enable). Concurrent
  /// emitters are tolerated: slots invalidated here that an emit is
  /// mid-writing simply get re-published by that emit.
  void Reset() {
    const uint64_t head = head_.load(std::memory_order_acquire);
    for (Slot& s : slots_) s.stamp.store(kInProgress, std::memory_order_relaxed);
    drained_to_ = head;
    dropped_ = 0;
  }

  uint32_t tid() const { return tid_; }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

 private:
  static constexpr uint64_t kInProgress = ~0ull;

  struct Slot {
    std::atomic<uint64_t> stamp{kInProgress};
    std::atomic<uint32_t> name_id{0};
    std::atomic<uint64_t> start_ns{0};
    std::atomic<uint64_t> dur_ns{0};
    std::atomic<int64_t> virt_ms{-1};
    std::atomic<uint64_t> arg1{0};
    std::atomic<uint64_t> arg2{0};
  };

  const uint32_t tid_;
  std::string name_;
  const size_t mask_;
  std::vector<Slot> slots_;
  std::atomic<uint64_t> head_{0};
  // Reader-side bookkeeping (drains are serialised by the registry
  // mutex; emitters never touch these).
  uint64_t drained_to_ = 0;
  uint64_t dropped_ = 0;
};

struct TraceRecorder::Impl {
  // Guards buffer registration, the intern table and drains — never an
  // emit.
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::vector<SpanMeta> metas;
  Options options;
  uint32_t next_tid = 1;
  // Pending name for a thread that called SetCurrentThreadName before
  // emitting its first span (buffer not created yet).
  thread_local static ThreadBuffer* tl_buffer;
  thread_local static std::unique_ptr<std::string> tl_pending_name;
};

thread_local TraceRecorder::ThreadBuffer* TraceRecorder::Impl::tl_buffer =
    nullptr;
thread_local std::unique_ptr<std::string>
    TraceRecorder::Impl::tl_pending_name;

TraceRecorder::TraceRecorder() : impl_(new Impl) {
  base_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
}

TraceRecorder& TraceRecorder::Get() {
  // Leaked singleton: worker threads may emit during static destruction
  // of other objects; the recorder must outlive them all.
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::Enable(const Options& options) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->options = options;
  impl_->options.per_thread_capacity =
      RoundUpPow2(std::max<size_t>(16, options.per_thread_capacity));
  for (auto& buffer : impl_->buffers) buffer->Reset();
  base_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void TraceRecorder::Disable() {
  enabled_.store(false, std::memory_order_release);
}

uint64_t TraceRecorder::NowNs() const {
  return SteadyNowNs() - base_ns_.load(std::memory_order_relaxed);
}

uint32_t TraceRecorder::RegisterSpan(const char* name, const char* arg1,
                                     const char* arg2) {
  TraceRecorder& rec = Get();
  std::lock_guard<std::mutex> lock(rec.impl_->mu);
  SpanMeta meta;
  meta.name = name;
  const size_t slash = meta.name.find('/');
  meta.cat = slash == std::string::npos ? meta.name : meta.name.substr(0, slash);
  if (arg1 != nullptr) meta.arg_names[0] = arg1;
  if (arg2 != nullptr) meta.arg_names[1] = arg2;
  rec.impl_->metas.push_back(std::move(meta));
  return static_cast<uint32_t>(rec.impl_->metas.size() - 1);
}

const SpanMeta& TraceRecorder::span_meta(uint32_t id) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  SQPR_CHECK(id < impl_->metas.size()) << "unknown span id " << id;
  return impl_->metas[id];
}

void TraceRecorder::SetCurrentThreadName(const std::string& name) {
  TraceRecorder& rec = Get();
  if (Impl::tl_buffer != nullptr) {
    std::lock_guard<std::mutex> lock(rec.impl_->mu);
    Impl::tl_buffer->set_name(name);
    return;
  }
  // Buffer not created yet (lazy): stash for creation time; the string
  // is freed when the thread exits.
  if (Impl::tl_pending_name == nullptr) {
    Impl::tl_pending_name = std::make_unique<std::string>();
  }
  *Impl::tl_pending_name = name;
}

TraceRecorder::ThreadBuffer* TraceRecorder::BufferForThisThread() {
  if (Impl::tl_buffer != nullptr) return Impl::tl_buffer;
  std::lock_guard<std::mutex> lock(impl_->mu);
  const uint32_t tid = impl_->next_tid++;
  std::string name = Impl::tl_pending_name != nullptr
                         ? *Impl::tl_pending_name
                         : "thread-" + std::to_string(tid);
  impl_->buffers.push_back(std::make_unique<ThreadBuffer>(
      tid, std::move(name), impl_->options.per_thread_capacity));
  Impl::tl_buffer = impl_->buffers.back().get();
  return Impl::tl_buffer;
}

void TraceRecorder::Emit(uint32_t name_id, uint64_t start_ns, uint64_t dur_ns,
                         int64_t virt_ms, uint64_t arg1, uint64_t arg2) {
  // Note: no enabled() re-check — a span that *started* while tracing
  // was on records even if Disable() raced its end, which keeps the
  // bookkeeping simple and loses nothing.
  BufferForThisThread()->Emit(name_id, start_ns, dur_ns, virt_ms, arg1, arg2);
}

std::vector<SpanRecord> TraceRecorder::Drain(
    std::vector<ThreadTraceStats>* stats) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<SpanRecord> out;
  if (stats != nullptr) stats->clear();
  for (auto& buffer : impl_->buffers) {
    ThreadTraceStats ts;
    buffer->Drain(&out, &ts);
    if (stats != nullptr) stats->push_back(std::move(ts));
  }
  return out;
}

std::string TraceRecorder::ChromeTraceJson() {
  std::vector<ThreadTraceStats> stats;
  std::vector<SpanRecord> spans = Drain(&stats);

  // Snapshot metas under the lock; rendering happens outside it.
  std::vector<SpanMeta> metas;
  std::vector<std::pair<uint32_t, std::string>> thread_names;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    metas = impl_->metas;
    for (const auto& buffer : impl_->buffers) {
      thread_names.emplace_back(buffer->tid(), buffer->name());
    }
  }

  std::string out;
  out.reserve(spans.size() * 144 + 4096);
  out += "{\"traceEvents\": [\n";
  bool first = true;
  char buf[256];
  for (const auto& [tid, name] : thread_names) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ph\": \"M\", \"pid\": 1, \"tid\": %u, "
                  "\"name\": \"thread_name\", \"args\": {\"name\": \"%s\"}}",
                  first ? "" : ",\n", tid, JsonEscape(name).c_str());
    out += buf;
    first = false;
  }
  for (const SpanRecord& span : spans) {
    if (span.name_id >= metas.size()) continue;  // stale torn slot
    const SpanMeta& meta = metas[span.name_id];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                  "\"name\": \"%s\", \"cat\": \"%s\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {",
                  first ? "" : ",\n", span.tid, JsonEscape(meta.name).c_str(),
                  JsonEscape(meta.cat).c_str(), span.start_ns / 1000.0,
                  span.dur_ns / 1000.0);
    out += buf;
    first = false;
    bool first_arg = true;
    if (span.virt_ms >= 0) {
      std::snprintf(buf, sizeof(buf), "\"vclock_ms\": %lld",
                    static_cast<long long>(span.virt_ms));
      out += buf;
      first_arg = false;
    }
    for (int a = 0; a < 2; ++a) {
      if (meta.arg_names[a].empty()) continue;
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %llu",
                    first_arg ? "" : ", ",
                    JsonEscape(meta.arg_names[a]).c_str(),
                    static_cast<unsigned long long>(span.args[a]));
      out += buf;
      first_arg = false;
    }
    out += "}}";
  }
  uint64_t total_emitted = 0;
  uint64_t total_dropped = 0;
  for (const ThreadTraceStats& ts : stats) {
    total_emitted += ts.emitted;
    total_dropped += ts.dropped;
  }
  out += "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {";
  std::snprintf(buf, sizeof(buf),
                "\"schema\": \"sqpr-trace-v1\", \"emitted_spans\": %llu, "
                "\"dropped_spans\": %llu, \"threads\": %zu, ",
                static_cast<unsigned long long>(total_emitted),
                static_cast<unsigned long long>(total_dropped), stats.size());
  out += buf;
  // Per-thread emit/drop accounting: aggregate drop counts hide which
  // ring actually wrapped (a hot worker can lose a round's spans while
  // the totals still look benign); tools/check_trace.py reports these
  // in its gate output.
  out += "\"per_thread\": [";
  for (size_t i = 0; i < stats.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"emitted\": %llu, \"dropped\": %llu}",
                  i == 0 ? "" : ", ", JsonEscape(stats[i].thread_name).c_str(),
                  static_cast<unsigned long long>(stats[i].emitted),
                  static_cast<unsigned long long>(stats[i].dropped));
    out += buf;
  }
  out += "]}}\n";
  return out;
}

Status TraceRecorder::WriteChromeTrace(const std::string& path) {
  const std::string json = ChromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot write trace to " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::Internal("short write to " + path);
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace sqpr
