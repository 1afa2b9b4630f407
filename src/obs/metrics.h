#ifndef SQPR_OBS_METRICS_H_
#define SQPR_OBS_METRICS_H_

// Metrics snapshots: named counter values and log-bucketed
// histograms, rendered to JSON with a stable schema and to OpenMetrics.
// The service builds its snapshots straight from ServiceStats
// (ServiceMetrics in service/planning_service.h); there is no registry.
//
// The Histogram replaces the hand-rolled latency machinery the service
// grew organically (RunningStats + a bounded sample window re-sorted
// for every percentile): it keeps count/sum/min/max exactly and
// resolves quantiles from log-spaced buckets — p50/p95/p99 without
// storing samples, O(1) memory, <= half a sub-bucket of relative error
// (~6% with the default 8 sub-buckets per octave; tests pin the bound
// against the exact nearest-rank Percentile()).
//
// Single-threaded, like the service that updates them: histograms are
// plain values, and a histogram copy is a snapshot.

#include <cstdint>
#include <map>
#include <string>

namespace sqpr {
namespace obs {

/// Log-bucketed histogram of non-negative scalars (latencies in ms,
/// sizes in bytes). Buckets are octaves (powers of two) split into
/// kSubBuckets linear sub-buckets — HDR-histogram style — spanning
/// [2^kMinExp, 2^kMaxExp); values outside clamp into the edge buckets.
/// A copyable value: a copy is a point-in-time snapshot, and keeping
/// the full bucket array makes window quantiles honest — a DeltaSince's
/// p95 is resolved from the *window's* samples, not approximated from
/// two cumulative quantiles.
class Histogram {
 public:
  static constexpr int kSubBuckets = 8;   // <= 12.5% bucket width
  static constexpr int kMinExp = -20;     // ~1e-6: sub-ns in ms units
  static constexpr int kMaxExp = 40;      // ~1e12
  static constexpr int kNumBuckets = (kMaxExp - kMinExp) * kSubBuckets;

  /// Records one sample. Negative and NaN samples clamp to 0 (counted,
  /// lowest bucket) — latency sources never legitimately produce them.
  void Add(double v);

  size_t count() const { return static_cast<size_t>(count_); }
  double sum() const { return sum_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// Exact observed extrema (not bucket bounds); 0 when nothing was
  /// ever recorded. A DeltaSince inherits the later histogram's
  /// cumulative extrema, so they stay set on an empty window.
  double min() const { return min_; }
  double max() const { return max_; }

  /// Quantile q in [0, 1] resolved from the buckets: the nearest-rank
  /// sample's bucket, linearly interpolated across the bucket's value
  /// range. Exact for the extrema (q over the min/max buckets clamps to
  /// the observed min/max). 0 when empty.
  double Quantile(double q) const;

  /// Window between `earlier` and this state of the SAME histogram:
  /// bucket-wise subtraction of the monotone counters. Every delta
  /// bucket (and the count and sum) is clamped at 0 rather than
  /// wrapping when `earlier` is in fact the later state. The delta
  /// keeps this histogram's extrema (per-window extrema are not
  /// recoverable from monotone state) — quantiles stay clamped
  /// correctly, since the window's samples lie within the cumulative
  /// range.
  Histogram DeltaSince(const Histogram& earlier) const;

  /// Lower value bound of bucket index i (test access).
  static double BucketLowerBound(int i);
  /// Bucket index a value lands in (test access).
  static int BucketIndex(double v);
  uint64_t bucket_count(int i) const { return buckets_[i]; }

 private:
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  uint64_t buckets_[kNumBuckets] = {};
};

/// Point-in-time set of named metrics. Names are dotted paths
/// ("service.solve_ms"); keys are sorted (std::map), so renderings diff
/// cleanly.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, Histogram> histograms;

  /// Counter/histogram deltas vs an earlier snapshot (metrics absent
  /// from `earlier` delta against zero).
  MetricsSnapshot DeltaSince(const MetricsSnapshot& earlier) const;

  /// Stable-schema, indented JSON document:
  ///   {"schema": "sqpr-metrics-v1",
  ///    "counters": {"<name>": N, ...},
  ///    "histograms": {"<name>": {"count": N, "sum": F, "mean": F,
  ///      "min": F, "max": F, "p50": F, "p90": F, "p95": F, "p99": F},
  ///      ...}}
  std::string ToPrettyJson() const;

  /// Compact single-line JSON object — {"counters":{...},
  /// "histograms":{"<name>":{count,sum,mean,min,max,p50,p90,p95,p99}}}
  /// — one building block of the sqpr-metrics-series-v1 JSONL time
  /// series (MetricsSeries in service/planning_service.h composes the
  /// lines).
  std::string ToJson() const;

  /// OpenMetrics text rendering: counters as `<name>_total`, histograms
  /// as summaries (quantile-labelled samples plus _sum/_count). Metric
  /// names are sanitised ([^a-zA-Z0-9_:] -> '_'); `labels` are attached
  /// to every sample with their values escaped per the OpenMetrics ABNF
  /// (backslash, double quote, newline). Ends with "# EOF".
  std::string ToOpenMetrics(
      const std::map<std::string, std::string>& labels) const;
};

}  // namespace obs
}  // namespace sqpr

#endif  // SQPR_OBS_METRICS_H_
