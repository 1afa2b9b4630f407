#ifndef SQPR_OBS_METRICS_H_
#define SQPR_OBS_METRICS_H_

// Metrics registry: named counters and log-bucketed histograms with
// lock-free updates, snapshot-able to JSON with a stable schema.
//
// The Histogram replaces the hand-rolled latency machinery the service
// grew organically (RunningStats + a bounded sample window re-sorted
// for every percentile): it keeps count/sum/min/max exactly and
// resolves quantiles from log-spaced buckets — p50/p95/p99 without
// storing samples, O(1) memory, <= half a sub-bucket of relative error
// (~6% with the default 8 sub-buckets per octave; tests pin the bound
// against the exact nearest-rank Percentile()).
//
// Thread safety: Add()/Increment() are lock-free atomics, safe from any
// thread. Reads are racy-but-coherent snapshots — each field is
// atomically read, the set may straddle concurrent updates; callers
// wanting a consistent view quiesce writers first (every current caller
// reads after the run).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sqpr {
namespace obs {

/// Monotonic named counter (the registry owns the name).
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log-bucketed histogram of non-negative scalars (latencies in ms,
/// sizes in bytes). Buckets are octaves (powers of two) split into
/// kSubBuckets linear sub-buckets — HDR-histogram style — spanning
/// [2^kMinExp, 2^kMaxExp); values outside clamp into the edge buckets.
/// Copyable (snapshot semantics) so it can live in result structs.
class Histogram {
 public:
  static constexpr int kSubBuckets = 8;   // <= 12.5% bucket width
  static constexpr int kMinExp = -20;     // ~1e-6: sub-ns in ms units
  static constexpr int kMaxExp = 40;      // ~1e12
  static constexpr int kNumBuckets = (kMaxExp - kMinExp) * kSubBuckets;

  Histogram() = default;
  Histogram(const Histogram& other) { CopyFrom(other); }
  Histogram& operator=(const Histogram& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  /// Records one sample. Negative and NaN samples clamp to 0 (counted,
  /// lowest bucket) — latency sources never legitimately produce them.
  void Add(double v);

  size_t count() const {
    return static_cast<size_t>(count_.load(std::memory_order_relaxed));
  }
  double sum() const { return LoadD(sum_bits_); }
  double mean() const {
    const size_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  /// Exact observed extrema (not bucket bounds); 0 when empty.
  double min() const { return count() == 0 ? 0.0 : LoadD(min_bits_); }
  double max() const { return count() == 0 ? 0.0 : LoadD(max_bits_); }

  /// Quantile q in [0, 1] resolved from the buckets: the nearest-rank
  /// sample's bucket, linearly interpolated across the bucket's value
  /// range. Exact for the extrema (q over the min/max buckets clamps to
  /// the observed min/max). 0 when empty.
  double Quantile(double q) const;

  /// Lower value bound of bucket index i (test access).
  static double BucketLowerBound(int i);
  /// Bucket index a value lands in (test access).
  static int BucketIndex(double v);
  uint64_t bucket_count(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Shared quantile resolution over a bucket array (the Histogram and
  /// its snapshots use the same math): nearest-rank bucket, linearly
  /// interpolated, clamped to the observed [min, max].
  static double QuantileFromBuckets(const uint64_t* buckets, uint64_t n,
                                    double q, double min_v, double max_v);

 private:
  static double LoadD(const std::atomic<uint64_t>& bits);
  static void StoreMin(std::atomic<uint64_t>* bits, double v);
  static void StoreMax(std::atomic<uint64_t>* bits, double v);
  static void AddD(std::atomic<uint64_t>* bits, double delta);
  void CopyFrom(const Histogram& other);

  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};       // double bits, CAS-accumulated
  std::atomic<uint64_t> min_bits_{0x7FF0000000000000ull};   // +inf
  std::atomic<uint64_t> max_bits_{0xFFF0000000000000ull};   // -inf
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
};

/// Point-in-time copy of one histogram's state, delta-capable: keeping
/// the full bucket array makes window quantiles honest — a delta's
/// p95 is resolved from the *window's* samples, not approximated from
/// two cumulative quantiles.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0.0;
  /// Cumulative observed extrema at snapshot time. A delta inherits the
  /// later snapshot's extrema (per-window extrema are not recoverable
  /// from monotone state) — quantiles stay clamped correctly, since the
  /// window's samples lie within the cumulative range.
  double min = 0.0;
  double max = 0.0;
  std::vector<uint64_t> buckets;  ///< Histogram::kNumBuckets entries

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  double Quantile(double q) const;
  /// Window between `earlier` and this snapshot of the SAME histogram:
  /// bucket-wise subtraction of the monotone counters. Every delta
  /// bucket (and the count and sum) is >= 0 by monotonicity; a racing
  /// reader that observed torn state clamps at 0 instead of wrapping.
  HistogramSnapshot DeltaSince(const HistogramSnapshot& earlier) const;
};

/// Point-in-time copy of a whole registry.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Counter/histogram deltas vs an earlier snapshot (metrics absent
  /// from `earlier` delta against zero).
  MetricsSnapshot DeltaSince(const MetricsSnapshot& earlier) const;

  /// Compact single-line JSON object — {"counters":{...},
  /// "histograms":{"<name>":{count,sum,mean,min,max,p50,p90,p95,p99}}}
  /// — one building block of the sqpr-metrics-series-v1 JSONL time
  /// series (tools/sqpr_service.cc composes the lines).
  std::string ToJson() const;

  /// OpenMetrics text rendering: counters as `<name>_total`, histograms
  /// as summaries (quantile-labelled samples plus _sum/_count). Metric
  /// names are sanitised ([^a-zA-Z0-9_:] -> '_'); `labels` are attached
  /// to every sample with their values escaped per the OpenMetrics ABNF
  /// (backslash, double quote, newline). Ends with "# EOF".
  std::string ToOpenMetrics(
      const std::map<std::string, std::string>& labels) const;
};

/// Named metric registry. Registration (name lookup) takes a mutex and
/// returns a stable pointer; updates through the pointer are lock-free.
/// Use one registry per subsystem or the process-wide Global().
class MetricsRegistry {
 public:
  /// Finds or creates; the returned pointer lives as long as the
  /// registry. Names are dotted paths ("service.solve_ms").
  Counter* counter(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Stable-schema JSON snapshot:
  ///   {"schema": "sqpr-metrics-v1",
  ///    "counters": {"<name>": N, ...},
  ///    "histograms": {"<name>": {"count": N, "sum": F, "mean": F,
  ///      "min": F, "max": F, "p50": F, "p90": F, "p95": F, "p99": F},
  ///      ...}}
  /// Keys are sorted (std::map), so snapshots diff cleanly.
  std::string ToJson() const;

  /// Copies every registered metric (racy-but-coherent per field, like
  /// all registry reads) — the periodic-exposition primitive: take one
  /// per interval, DeltaSince the previous, serialise both.
  MetricsSnapshot TakeSnapshot() const;

  static MetricsRegistry& Global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace sqpr

#endif  // SQPR_OBS_METRICS_H_
