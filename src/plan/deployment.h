#ifndef SQPR_PLAN_DEPLOYMENT_H_
#define SQPR_PLAN_DEPLOYMENT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/status.h"
#include "model/catalog.h"
#include "model/cluster.h"
#include "model/ids.h"

namespace sqpr {

/// A host × stream availability snapshot (the derived y_hs of §III),
/// carrying its own stream-count stride. A snapshot can outlive the
/// catalog size it was built at: a planner that builds one and then
/// interns a new query's closure asks it about streams that did not
/// exist yet. So the bitmap is indexed with the catalog size *at build
/// time*, never with a fresh Catalog::num_streams() read, and at()
/// answers false for those later ids: a stream interned after the
/// snapshot is not grounded anywhere.
struct GroundedMap {
  int num_hosts = 0;
  /// Catalog stream count when the map was built (the row stride).
  int num_streams = 0;
  std::vector<bool> bits;  // num_hosts x num_streams, row-major by host

  bool at(HostId h, StreamId s) const {
    return s < num_streams &&
           bits[static_cast<size_t>(h) * num_streams + s];
  }
  void set(HostId h, StreamId s) {
    bits[static_cast<size_t>(h) * num_streams + s] = true;
  }
};

/// The global allocation state of the DSPS — the committed values of the
/// paper's decision variables:
///   serving map            d_hs = 1  (host h answers requests for s)
///   flows                  x_hms = 1 (h sends stream s to m)
///   operator placements    z_ho = 1  (h executes operator o)
/// Availability (y_hs) is derived, not stored: a stream is available at a
/// host iff it is *grounded* there (see GroundedAvailability below).
///
/// Deployment is a value type; the SQPR planner edits its committed
/// deployment in place, one minimal DeploymentDelta per admission, and
/// copies it only where a heuristic needs to try candidates.
class Deployment {
 public:
  Deployment(const Cluster* cluster, const Catalog* catalog);

  /// Resets to the empty allocation (Algorithm 1 line 1).
  void Clear();

  // ---- Mutators (resource aggregates maintained incrementally). ----
  Status AddFlow(HostId from, HostId to, StreamId s);
  Status RemoveFlow(HostId from, HostId to, StreamId s);
  Status PlaceOperator(HostId h, OperatorId o);
  Status RemoveOperator(HostId h, OperatorId o);
  /// Marks host h as the (single) server of requested stream s; includes
  /// the client-delivery bandwidth of (III.6c).
  Status SetServing(StreamId s, HostId h);
  Status ClearServing(StreamId s);

  // ---- Lookups. ----
  bool HasFlow(HostId from, HostId to, StreamId s) const;
  bool RunsOperator(HostId h, OperatorId o) const;
  /// Host serving stream s, or kInvalidHost.
  HostId ServingHost(StreamId s) const;
  /// All streams currently served (the admitted queries).
  std::vector<StreamId> ServedStreams() const;
  /// All flows carrying stream s as (from, to) pairs.
  const std::vector<std::pair<HostId, HostId>>& FlowsOf(StreamId s) const;
  /// All operators placed on host h.
  const std::set<OperatorId>& OperatorsOn(HostId h) const;
  /// Hosts executing operator o (the paper's model allows an operator to
  /// be instantiated on several hosts for different queries' benefit).
  std::vector<HostId> HostsRunning(OperatorId o) const;

  // ---- Capacity headroom checks (used by the greedy planners). ----
  /// True when the flow fits the sender NIC, receiver NIC and link.
  bool CanAddFlow(HostId from, HostId to, StreamId s, double tol = 1e-9) const;
  /// True when host h has CPU headroom for operator o.
  bool CanPlaceOperator(HostId h, OperatorId o, double tol = 1e-9) const;
  /// True when host h has outgoing NIC headroom to deliver s to clients.
  bool CanServe(StreamId s, HostId h, double tol = 1e-9) const;

  // ---- Resource accounting. ----
  double CpuUsed(HostId h) const { return cpu_used_[h]; }
  double MemUsed(HostId h) const { return mem_used_[h]; }
  double NicOutUsed(HostId h) const { return nic_out_used_[h]; }
  double NicInUsed(HostId h) const { return nic_in_used_[h]; }
  double LinkUsed(HostId from, HostId to) const;
  double TotalNetworkUsed() const;  // objective O2 over committed flows
  double TotalCpuUsed() const;      // objective O3
  double MaxHostCpuUsed() const;    // objective O4

  /// Least-fixpoint availability: at(h, s) is true iff stream s can
  /// causally reach host h through base injection, local operator
  /// execution (all inputs grounded) or an incoming flow from a host
  /// where s is grounded. Acausal flow cycles are *not* grounded — this
  /// is the semantic content of the paper's acyclicity constraints
  /// (III.7). The catalog size is read once; consumers must index
  /// through GroundedMap::at (see its comment for why).
  GroundedMap GroundedAvailability() const;

  /// Rebuilds every resource ledger (CPU, memory, NIC, links) from the
  /// committed placements, flows and servings using the catalog's
  /// *current* costs and rates. Required after Catalog::UpdateBaseRate
  /// (§IV-B), which changes costs under committed state.
  void RecomputeAggregates();

  /// Full §III feasibility audit of the committed state:
  ///  * every flow leaves a host where the stream is grounded,
  ///  * every operator has all inputs grounded at its host,
  ///  * every served stream is grounded at its serving host,
  ///  * CPU (III.6d), link (III.6a), NIC in/out (III.6b/c) within budget.
  /// Returns OK or a description of the first violation.
  Status Validate(double tol = 1e-6) const;

  const Cluster& cluster() const { return *cluster_; }
  const Catalog& catalog() const { return *catalog_; }

  int num_flows() const;
  int num_placed_operators() const;

  /// Canonical textual dump of the committed decision variables
  /// (serving arcs, operator placements, flows) in fixed enumeration
  /// order. Two deployments over the same catalog/cluster are equal iff
  /// their fingerprints match — the replay-equality check behind the
  /// determinism contract (docs/ARCHITECTURE.md).
  std::string Fingerprint() const;

  // ---- Change tracking (audit records and checkpoints). ----

  /// Monotone change counter: every successful mutator call (including
  /// Clear and RecomputeAggregates) bumps it exactly once.
  uint64_t version() const { return version_; }

  /// Like version(), but counting only *structural* mutations — flows,
  /// placements, serving arcs, Clear — not ledger recomputes
  /// (RecomputeAggregates rewrites resource numbers under unchanged
  /// structure). The audit journal stamps records with it.
  uint64_t structure_version() const { return structure_version_; }

  /// Rough heap footprint of the committed state (flows, placements,
  /// serving arcs, ledgers) — the bytes a full deployment copy moves.
  size_t ApproxSizeBytes() const;

  // ---- Checkpoint support (src/service/checkpoint.h). ----

  /// Streams carrying at least one committed flow, ascending — the
  /// checkpoint writer's enumeration of the flow table (FlowsOf gives
  /// each stream's per-flow insertion order, which the restore path
  /// replays verbatim).
  std::vector<StreamId> FlowStreams() const {
    std::vector<StreamId> out;
    out.reserve(flows_by_stream_.size());
    for (const auto& entry : flows_by_stream_) {
      if (!entry.second.empty()) out.push_back(entry.first);
    }
    return out;
  }

  /// Overwrites the change counters with checkpointed values, after a
  /// restore rebuilt the structure through the ordinary mutators (which
  /// counted from zero), so audit records stay continuous across a
  /// crash.
  void RestoreVersions(uint64_t version, uint64_t structure_version) {
    version_ = version;
    structure_version_ = structure_version;
  }

 private:
  /// Bumps version_, and structure_version_ for a structural mutation.
  void RecordMutation(bool structural) {
    ++version_;
    if (structural) ++structure_version_;
  }
  const Cluster* cluster_;
  const Catalog* catalog_;

  std::map<StreamId, std::vector<std::pair<HostId, HostId>>> flows_by_stream_;
  std::vector<std::set<OperatorId>> ops_by_host_;
  std::map<StreamId, HostId> serving_;

  std::vector<double> cpu_used_, mem_used_, nic_out_used_, nic_in_used_;
  std::map<std::pair<HostId, HostId>, double> link_used_;

  uint64_t version_ = 0;
  uint64_t structure_version_ = 0;
};

/// A structural change to a deployment, as the mutator calls that make
/// it. The planner applies each admission as one (SqprMip::Commit: the
/// minimal diff between the committed state and the solution), and the
/// planning service's reuse index (PlanCache) learns every change —
/// admissions, departures with their garbage collection, host-failure
/// purges and drift-cycle evictions — as a stream of these.
struct DeploymentDelta {
  struct ServingChange {
    StreamId stream = kInvalidStream;
    /// kInvalidHost means the stream was unserved before (after).
    HostId before = kInvalidHost;
    HostId after = kInvalidHost;
  };

  std::vector<std::pair<HostId, OperatorId>> ops_added;
  std::vector<std::pair<HostId, OperatorId>> ops_removed;
  std::vector<std::tuple<HostId, HostId, StreamId>> flows_added;
  std::vector<std::tuple<HostId, HostId, StreamId>> flows_removed;
  std::vector<ServingChange> serving_changes;

  bool empty() const {
    return ops_added.empty() && ops_removed.empty() && flows_added.empty() &&
           flows_removed.empty() && serving_changes.empty();
  }

  /// Concatenates `later`'s entries onto this delta's. The result lists
  /// every fact either delta touched, so a fact removed by one and added
  /// by the other appears in both lists: a consumer reads membership
  /// from the final deployment, as PlanCache::ApplyDelta does.
  void Append(const DeploymentDelta& later);
};

/// Applies a delta: removals first (flows, then operators), so freed
/// capacity is available to the additions, then serving changes, then
/// additions (operators, then flows), each list in its stored order.
/// Additions already present and removals already gone are skipped; a
/// serving change whose `before` does not match, or an addition the
/// mutators reject, returns FailedPrecondition. On any error the
/// deployment is left partially modified.
///
/// Note: this checks *structural* applicability only; callers audit
/// groundedness and resource budgets with Deployment::Validate().
Status ApplyDeploymentDelta(const DeploymentDelta& delta,
                            Deployment* deployment);

}  // namespace sqpr

#endif  // SQPR_PLAN_DEPLOYMENT_H_
