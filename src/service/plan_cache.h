#ifndef SQPR_SERVICE_PLAN_CACHE_H_
#define SQPR_SERVICE_PLAN_CACHE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "model/catalog.h"
#include "plan/deployment.h"

namespace sqpr {

/// Arrival-time reuse index over the committed deployment (§II-C/§III).
///
/// The SQPR model discovers reuse through the availability constraint
/// (III.5a), but only for streams that enter the MILP. The cache makes
/// the *lookup* side O(log n): it indexes every composite stream that is
/// currently materialised — grounded at some host through committed
/// operators and flows — keyed by its canonical leaf signature. On query
/// arrival the service can then answer, without scanning the catalog or
/// the deployment:
///   * exact hit  — the requested canonical stream is already served
///     (dedup, Algorithm 1 line 3) or materialised but unserved, in
///     which case admission degenerates to adding one client-serving
///     arc (no solve);
///   * partial hit — some proper subquery is materialised, i.e. the
///     MILP has a warm reuse opportunity (surfaced as candidates).
///
/// Groundedness itself is the Deployment's committed state
/// (Deployment::Grounded); the cache owns only the signature index over
/// it. Maintenance has one path: every structural change to the
/// deployment reaches the cache as a DeploymentDelta (ApplyDelta),
/// additions and removals alike. ApplyDelta re-reads groundedness at the
/// heads of the delta's operators and flows and walks downstream only
/// from the pairs whose materialisation changed, so its cost is
/// O(changed facts × local fan-out), independent of the catalog, which
/// holds the join closure of every query ever seen. Rebuild — a scan of
/// the deployment's grounded pairs — runs only for the first build and
/// after a checkpoint restore.
class PlanCache {
 public:
  explicit PlanCache(const Catalog* catalog) : catalog_(catalog) {}

  /// A materialised stream and the hosts where it is grounded.
  struct Hit {
    StreamId stream = kInvalidStream;
    std::vector<HostId> hosts;
  };

  /// What the cache knows about an arriving query.
  struct Lookup {
    /// The query stream itself is materialised (hosts in `exact`).
    bool exact = false;
    /// The query is already being served (subset of `exact` situations).
    bool served = false;
    Hit exact_hit;
    /// Materialised proper subqueries (canonical substreams), largest
    /// leaf set first.
    std::vector<Hit> partial;
  };

  /// Reindexes materialised streams from the committed deployment.
  void Rebuild(const Deployment& deployment);

  /// Brings the cache up to date with `deployment` after the changes in
  /// `delta` (already committed). The delta may concatenate several
  /// commits (DeploymentDelta::Append), and a fact may appear as both
  /// removed and added: membership is read from `deployment`, and
  /// serving changes apply in order. Returns true when the update was
  /// incremental, false when the cache had never been built and ran a
  /// full Rebuild instead. Either way the cache then equals a fresh
  /// Rebuild of `deployment`, provided `delta` covers every structural
  /// change since the last sync.
  bool ApplyDelta(const Deployment& deployment, const DeploymentDelta& delta);

  /// Arrival-time lookup; updates the hit/miss counters. A hit is an
  /// exact match (served or materialised); a partial-only match counts
  /// as a partial hit; neither counts as a miss.
  Lookup OnArrival(StreamId query);

  /// Pure exact-signature probe (no counter updates).
  bool FindMaterialized(StreamId stream, Hit* hit) const;

  int64_t exact_hits() const { return exact_hits_; }
  int64_t partial_hits() const { return partial_hits_; }
  int64_t misses() const { return misses_; }
  /// Total arrivals that found something reusable.
  int64_t hits() const { return exact_hits_ + partial_hits_; }
  int num_indexed() const { return static_cast<int>(by_stream_.size()); }

  /// Maintenance counters: full rebuilds and incremental delta
  /// applications.
  int64_t rebuilds() const { return rebuilds_; }
  int64_t delta_updates() const { return delta_updates_; }

  /// Checkpoint support (src/service/checkpoint.h): reinstates the
  /// arrival-facing counters after a restore rebuilt the index from the
  /// restored deployment. Only the hit/miss counters round-trip — they
  /// describe the workload. The maintenance counters describe *this
  /// process's* work and restart from the rebuild the restore itself
  /// performed.
  void RestoreCounters(int64_t exact_hits, int64_t partial_hits,
                       int64_t misses) {
    exact_hits_ = exact_hits;
    partial_hits_ = partial_hits;
    misses_ = misses;
  }

  /// Canonical dump of the index — equality of dumps is the contract
  /// between ApplyDelta and Rebuild that the incremental-maintenance
  /// tests check.
  std::string DebugDump() const;

 private:
  /// True when composite stream s is indexed as materialised at h.
  bool Indexed(HostId h, StreamId s) const;
  /// Adds a materialised composite stream to the signature tables.
  void IndexMaterialized(HostId h, StreamId s);
  /// Removes host h from a composite stream's materialisation.
  void UnindexMaterialized(HostId h, StreamId s);

  const Catalog* catalog_;

  /// Materialised composite streams with their grounded host lists
  /// (hosts ascending).
  std::map<StreamId, std::vector<HostId>> by_stream_;
  /// Canonical leaf signature -> the materialised streams carrying it.
  /// Signatures are the sorted base-leaf sets the catalog hash-conses
  /// on, so two join orders of the same leaves share one entry; a
  /// unary composite can share its input's leaves, and then the
  /// smallest id answers lookups.
  std::map<std::vector<StreamId>, std::set<StreamId>> by_signature_;
  /// Streams currently served (exact dedup hits).
  std::map<StreamId, HostId> served_;

  bool indexed_ = false;

  int64_t exact_hits_ = 0;
  int64_t partial_hits_ = 0;
  int64_t misses_ = 0;
  int64_t rebuilds_ = 0;
  int64_t delta_updates_ = 0;
};

}  // namespace sqpr

#endif  // SQPR_SERVICE_PLAN_CACHE_H_
