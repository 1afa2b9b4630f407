#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

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

TraceRecorder::TraceRecorder() : base_ns_(SteadyNowNs()) {}

TraceRecorder& TraceRecorder::Get() {
  // Leaked singleton: spans may close during static destruction of
  // other objects; the recorder must outlive them all.
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::Enable(const Options& options) {
  // A fresh ring, filled here: its pages are touched now, not by the
  // first traced span that reaches each of them.
  ring_ = std::vector<SpanRecord>(
      RoundUpPow2(std::max<size_t>(16, options.per_thread_capacity)));
  emitted_ = 0;
  drained_to_ = 0;
  dropped_ = 0;
  base_ns_ = SteadyNowNs();
  enabled_ = true;
}

void TraceRecorder::Disable() { enabled_ = false; }

uint64_t TraceRecorder::NowNs() const { return SteadyNowNs() - base_ns_; }

uint32_t TraceRecorder::RegisterSpan(const char* name, const char* arg1,
                                     const char* arg2) {
  SpanMeta meta;
  meta.name = name;
  const size_t slash = meta.name.find('/');
  meta.cat = slash == std::string::npos ? meta.name : meta.name.substr(0, slash);
  if (arg1 != nullptr) meta.arg_names[0] = arg1;
  if (arg2 != nullptr) meta.arg_names[1] = arg2;
  std::vector<SpanMeta>& metas = Get().metas_;
  metas.push_back(std::move(meta));
  return static_cast<uint32_t>(metas.size() - 1);
}

const SpanMeta& TraceRecorder::span_meta(uint32_t id) const {
  SQPR_CHECK(id < metas_.size()) << "unknown span id " << id;
  return metas_[id];
}

void TraceRecorder::SetCurrentThreadName(const std::string& name) {
  Get().thread_name_ = name;
}

void TraceRecorder::Emit(uint32_t name_id, uint64_t start_ns, uint64_t dur_ns,
                         int64_t virt_ms, uint64_t arg1, uint64_t arg2) {
  // No enabled() re-check: a span that *started* while tracing was on
  // records even if Disable() ran before its end.
  if (ring_.empty()) return;
  ring_[emitted_ & (ring_.size() - 1)] =
      SpanRecord{name_id, kTid, start_ns, dur_ns, virt_ms, {arg1, arg2}};
  ++emitted_;
}

std::vector<SpanRecord> TraceRecorder::Drain(
    std::vector<ThreadTraceStats>* stats) {
  const uint64_t first = emitted_ > ring_.size() ? emitted_ - ring_.size() : 0;
  // Everything before the retained window that no drain ever saw was
  // overwritten in place — flight-recorder drops.
  if (first > drained_to_) dropped_ += first - drained_to_;
  std::vector<SpanRecord> out;
  for (uint64_t i = std::max(first, drained_to_); i < emitted_; ++i) {
    out.push_back(ring_[i & (ring_.size() - 1)]);
  }
  drained_to_ = emitted_;
  if (stats != nullptr) {
    *stats = {ThreadTraceStats{thread_name_, emitted_, dropped_}};
  }
  return out;
}

std::string TraceRecorder::ChromeTraceJson() {
  std::vector<ThreadTraceStats> stats;
  const std::vector<SpanRecord> spans = Drain(&stats);
  const ThreadTraceStats& ts = stats.front();

  std::string out;
  out.reserve(spans.size() * 144 + 4096);
  out += "{\"traceEvents\": [\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"ph\": \"M\", \"pid\": 1, \"tid\": %u, "
                "\"name\": \"thread_name\", \"args\": {\"name\": \"%s\"}}",
                kTid, JsonEscape(ts.thread_name).c_str());
  out += buf;
  for (const SpanRecord& span : spans) {
    const SpanMeta& meta = metas_[span.name_id];
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                  "\"name\": \"%s\", \"cat\": \"%s\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {",
                  span.tid, JsonEscape(meta.name).c_str(),
                  JsonEscape(meta.cat).c_str(), span.start_ns / 1000.0,
                  span.dur_ns / 1000.0);
    out += buf;
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
  // `threads` and the one-entry `per_thread` list keep the
  // sqpr-trace-v1 layout that tools/check_trace.py reads.
  const unsigned long long emitted = ts.emitted;
  const unsigned long long dropped = ts.dropped;
  out += "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {";
  std::snprintf(buf, sizeof(buf),
                "\"schema\": \"sqpr-trace-v1\", \"emitted_spans\": %llu, "
                "\"dropped_spans\": %llu, \"threads\": 1, ",
                emitted, dropped);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "\"per_thread\": [{\"name\": \"%s\", \"emitted\": %llu, "
                "\"dropped\": %llu}]}}\n",
                JsonEscape(ts.thread_name).c_str(), emitted, dropped);
  out += buf;
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
