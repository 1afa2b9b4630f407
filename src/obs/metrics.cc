#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace sqpr {
namespace obs {

int Histogram::BucketIndex(double v) {
  if (!(v > 0.0)) return 0;  // <= 0 and NaN clamp to the lowest bucket
  int exp;
  // v = m * 2^exp with m in [0.5, 1): octave = exp - 1, and the
  // sub-bucket is the linear position of m within [0.5, 1).
  const double m = std::frexp(v, &exp);
  const int octave = exp - 1;
  if (octave < kMinExp) return 0;
  if (octave >= kMaxExp) return kNumBuckets - 1;
  int sub = static_cast<int>((m - 0.5) * 2.0 * kSubBuckets);
  sub = std::clamp(sub, 0, kSubBuckets - 1);
  return (octave - kMinExp) * kSubBuckets + sub;
}

double Histogram::BucketLowerBound(int i) {
  const int octave = kMinExp + i / kSubBuckets;
  const int sub = i % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, octave);
}

void Histogram::Add(double v) {
  if (!(v >= 0.0)) v = 0.0;
  ++buckets_[BucketIndex(v)];
  if (count_ == 0 || v < min_) min_ = v;
  if (count_ == 0 || v > max_) max_ = v;
  ++count_;
  sum_ += v;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank (1-based), matching the exact Percentile() helper.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const uint64_t c = buckets_[i];
    if (c == 0) continue;
    if (seen + c >= rank) {
      // Interpolate the rank's position across the bucket's value
      // range, clamped to the exact observed extrema so tails are
      // sharp.
      const double lo = BucketLowerBound(i);
      const double hi = i + 1 < kNumBuckets ? BucketLowerBound(i + 1) : lo;
      const double within =
          (static_cast<double>(rank - seen) - 0.5) / static_cast<double>(c);
      const double v = lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
      return std::clamp(v, min_, max_);
    }
    seen += c;
  }
  return max_;
}

Histogram Histogram::DeltaSince(const Histogram& earlier) const {
  Histogram delta;
  delta.count_ = count_ >= earlier.count_ ? count_ - earlier.count_ : 0;
  delta.sum_ = std::max(0.0, sum_ - earlier.sum_);
  delta.min_ = min_;
  delta.max_ = max_;
  for (int i = 0; i < kNumBuckets; ++i) {
    const uint64_t before = earlier.buckets_[i];
    delta.buckets_[i] = buckets_[i] >= before ? buckets_[i] - before : 0;
  }
  return delta;
}

MetricsSnapshot MetricsSnapshot::DeltaSince(
    const MetricsSnapshot& earlier) const {
  MetricsSnapshot delta;
  for (const auto& [name, value] : counters) {
    const auto it = earlier.counters.find(name);
    const int64_t before = it == earlier.counters.end() ? 0 : it->second;
    delta.counters[name] = value >= before ? value - before : 0;
  }
  static const Histogram kEmpty;
  for (const auto& [name, h] : histograms) {
    const auto it = earlier.histograms.find(name);
    delta.histograms[name] =
        h.DeltaSince(it == earlier.histograms.end() ? kEmpty : it->second);
  }
  return delta;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  char buf[192];
  bool first = true;
  for (const auto& [name, value] : counters) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%lld", first ? "" : ",",
                  name.c_str(), static_cast<long long>(value));
    out += buf;
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"count\":%llu,\"sum\":%.6g,\"mean\":%.6g,"
                  "\"min\":%.6g,\"max\":%.6g,",
                  first ? "" : ",", name.c_str(),
                  static_cast<unsigned long long>(h.count()), h.sum(), h.mean(),
                  h.min(), h.max());
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "\"p50\":%.6g,\"p90\":%.6g,\"p95\":%.6g,\"p99\":%.6g}",
                  h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.95),
                  h.Quantile(0.99));
    out += buf;
    first = false;
  }
  out += "}}";
  return out;
}

namespace {

/// OpenMetrics metric names: [a-zA-Z0-9_:], everything else folded to
/// '_' ("service.admit_ms" -> "service_admit_ms").
std::string SanitizeMetricName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

/// OpenMetrics label-value escaping: backslash, double quote and
/// newline (the three the exposition-format ABNF escapes).
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string RenderLabels(const std::map<std::string, std::string>& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    out += SanitizeMetricName(k) + "=\"" + EscapeLabelValue(v) + "\"";
    first = false;
  }
  out += "}";
  return out;
}

/// Labels + one extra pair (the quantile label).
std::string RenderLabelsPlus(const std::map<std::string, std::string>& labels,
                             const std::string& key,
                             const std::string& value) {
  std::map<std::string, std::string> all = labels;
  all[key] = value;
  return RenderLabels(all);
}

}  // namespace

std::string MetricsSnapshot::ToOpenMetrics(
    const std::map<std::string, std::string>& labels) const {
  std::string out;
  char buf[192];
  const std::string label_str = RenderLabels(labels);
  for (const auto& [name, value] : counters) {
    const std::string metric = SanitizeMetricName(name);
    out += "# TYPE " + metric + " counter\n";
    std::snprintf(buf, sizeof(buf), "%s_total%s %lld\n", metric.c_str(),
                  label_str.c_str(), static_cast<long long>(value));
    out += buf;
  }
  static const char* kQuantiles[] = {"0.5", "0.9", "0.95", "0.99"};
  static const double kQ[] = {0.50, 0.90, 0.95, 0.99};
  for (const auto& [name, h] : histograms) {
    const std::string metric = SanitizeMetricName(name);
    out += "# TYPE " + metric + " summary\n";
    for (int i = 0; i < 4; ++i) {
      std::snprintf(buf, sizeof(buf), "%s%s %.6g\n", metric.c_str(),
                    RenderLabelsPlus(labels, "quantile", kQuantiles[i]).c_str(),
                    h.Quantile(kQ[i]));
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "%s_sum%s %.6g\n%s_count%s %llu\n",
                  metric.c_str(), label_str.c_str(), h.sum(), metric.c_str(),
                  label_str.c_str(), static_cast<unsigned long long>(h.count()));
    out += buf;
  }
  out += "# EOF\n";
  return out;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  return &counters_[name];
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  return &histograms_[name];
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\n  \"schema\": \"sqpr-metrics-v1\",\n  \"counters\": {";
  char buf[192];
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    std::snprintf(buf, sizeof(buf), "%s\n    \"%s\": %lld",
                  first ? "" : ",", name.c_str(),
                  static_cast<long long>(counter.value()));
    out += buf;
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    std::snprintf(
        buf, sizeof(buf),
        "%s\n    \"%s\": {\"count\": %zu, \"sum\": %.6g, \"mean\": %.6g, "
        "\"min\": %.6g, \"max\": %.6g, ",
        first ? "" : ",", name.c_str(), h.count(), h.sum(), h.mean(),
        h.min(), h.max());
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "\"p50\": %.6g, \"p90\": %.6g, \"p95\": %.6g, "
                  "\"p99\": %.6g}",
                  h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.95),
                  h.Quantile(0.99));
    out += buf;
    first = false;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

MetricsSnapshot MetricsRegistry::TakeSnapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter.value();
  }
  snap.histograms = histograms_;
  return snap;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace obs
}  // namespace sqpr
