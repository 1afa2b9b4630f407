#ifndef SQPR_SERVICE_PLAN_CACHE_H_
#define SQPR_SERVICE_PLAN_CACHE_H_

#include <cstdint>
#include <vector>

#include "model/catalog.h"
#include "plan/deployment.h"

namespace sqpr {

/// Arrival-time reuse lookup over the committed deployment (§II-C/§III).
///
/// The SQPR model discovers reuse through the availability constraint
/// (III.5a); this lookup only reports, on query arrival and before any
/// catalog work, what the solve will find:
///   * exact hit  — the requested canonical stream is already served
///     (the service's dedup, Algorithm 1 line 3) or materialised but
///     unserved (the solve can serve it where it is grounded);
///   * partial hit — some proper subquery is materialised, i.e. the
///     MILP has a warm reuse opportunity (surfaced as candidates).
/// It never admits anything itself.
///
/// It keeps no index of its own: servedness and groundedness are the
/// Deployment's committed state (ServingHost, Grounded), and a proper
/// subquery's canonical stream is a read-only catalog probe
/// (Catalog::FindJoinStream). One lookup costs O(2^k · hosts · log n)
/// for a k-leaf query — less than building the model the arrival would
/// otherwise solve. Only the hit/miss counters are state.
class PlanCache {
 public:
  /// `deployment` must outlive the cache; lookups read its current state.
  explicit PlanCache(const Deployment* deployment)
      : deployment_(deployment) {}

  /// A materialised stream and the hosts where it is grounded.
  struct Hit {
    StreamId stream = kInvalidStream;
    std::vector<HostId> hosts;
  };

  /// What the cache knows about an arriving query.
  struct Lookup {
    /// The query stream itself is materialised.
    bool exact = false;
    /// The query is already being served (subset of `exact` situations).
    bool served = false;
    /// Materialised proper subqueries (canonical substreams), largest
    /// leaf set first.
    std::vector<Hit> partial;
  };

  /// Arrival-time lookup; updates the hit/miss counters. A hit is an
  /// exact match (served or materialised); a partial-only match counts
  /// as a partial hit; neither counts as a miss.
  Lookup OnArrival(StreamId query);

  /// Pure exact probe (no counter updates): true when composite stream
  /// `stream` is grounded at some host; `hit` then lists those hosts,
  /// ascending. Base streams never match — their reuse is just the
  /// injection host.
  bool FindMaterialized(StreamId stream, Hit* hit) const;

  int64_t exact_hits() const { return exact_hits_; }
  int64_t partial_hits() const { return partial_hits_; }
  int64_t misses() const { return misses_; }
  /// Total arrivals that found something reusable.
  int64_t hits() const { return exact_hits_ + partial_hits_; }

  /// Always 0: there is no index to rebuild. Kept only because the
  /// benchmark replay still reads it; the next benchmark change drops it.
  int64_t rebuilds() const { return 0; }

  /// Checkpoint support (src/service/checkpoint.h): reinstates the
  /// arrival-facing counters after a restore — they describe the
  /// workload.
  void RestoreCounters(int64_t exact_hits, int64_t partial_hits,
                       int64_t misses) {
    exact_hits_ = exact_hits;
    partial_hits_ = partial_hits;
    misses_ = misses;
  }

 private:
  const Deployment* deployment_;

  int64_t exact_hits_ = 0;
  int64_t partial_hits_ = 0;
  int64_t misses_ = 0;
};

}  // namespace sqpr

#endif  // SQPR_SERVICE_PLAN_CACHE_H_
