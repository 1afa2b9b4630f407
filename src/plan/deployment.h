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

/// A structural change to a deployment. Deployment::Apply, the one place
/// that edits flows and placements, takes each admission, garbage
/// collection and host purge as one.
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
  /// At most one change per stream.
  std::vector<ServingChange> serving_changes;

  bool empty() const {
    return ops_added.empty() && ops_removed.empty() && flows_added.empty() &&
           flows_removed.empty() && serving_changes.empty();
  }
};

/// The global allocation state of the DSPS — the committed values of the
/// paper's decision variables:
///   serving map            d_hs = 1  (host h answers requests for s)
///   flows                  x_hms = 1 (h sends stream s to m)
///   operator placements    z_ho = 1  (h executes operator o)
/// Availability (y_hs) is part of the committed state too: a stream is
/// available at a host iff it is *grounded* there (see Grounded below),
/// and Apply keeps that relation exact after every delta.
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

  /// Applies a delta in the order the floating-point ledgers accumulate
  /// in: removals (flows, then operators) free capacity, then serving
  /// changes, then additions (operators, then flows), each list in its
  /// stored order. Additions already present and removals already gone
  /// are skipped; each applied fact bumps the versions once (moving a
  /// serving is a clear and a set). A self-flow (InvalidArgument) or a
  /// serving change whose `before` does not match (FailedPrecondition)
  /// rejects the whole delta before its first change. Causality and
  /// budgets are left to Validate().
  Status Apply(const DeploymentDelta& delta);

  /// One-fact deltas; a fact already present is AlreadyExists.
  Status AddFlow(HostId from, HostId to, StreamId s);
  Status PlaceOperator(HostId h, OperatorId o);
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

  // ---- Availability (y_hs). ----
  /// True iff stream s is grounded at host h: s reaches h causally
  /// through base injection, local execution of an operator whose inputs
  /// are all grounded at h, or an incoming flow from a host where s is
  /// grounded. This is the least fixpoint of those rules, so a flow
  /// cycle that lost its root is *not* grounded, which is what the
  /// paper's acyclicity constraints (III.7) mean. Apply maintains it
  /// once per delta by delete-and-rederive (Gupta, Mumick & Subrahmanian,
  /// "Maintaining views incrementally", 1993): the removals un-ground
  /// everything derived from their heads, what still has a grounded
  /// support is re-grounded, and one monotone closure runs over that and
  /// the additions. Over-deleting is deliberate: counting supports would
  /// keep a flow cycle grounded by its own arcs. A delta costs
  /// O(affected facts × local fan-out), independent of the catalog size.
  bool Grounded(HostId h, StreamId s) const;
  /// True when every input of operator o is grounded at host h.
  bool InputsGrounded(HostId h, OperatorId o) const;
  /// The streams grounded at h other than by base injection, ascending.
  /// A base stream is grounded at its source host implicitly, so it is
  /// not listed there.
  const std::vector<StreamId>& GroundedOn(HostId h) const {
    return grounded_[h];
  }

  /// Rebuilds every resource ledger (CPU, memory, NIC, links) from the
  /// committed placements, flows and servings using the catalog's
  /// *current* costs and rates. Required after Catalog::UpdateBaseRate
  /// (§IV-B), which changes costs under committed state.
  void RecomputeAggregates();

  /// Full §III feasibility audit of the whole committed state, reading
  /// y from the maintained availability as it reads the maintained
  /// ledgers:
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

  /// Monotone change counter: every applied fact, Clear and
  /// RecomputeAggregates bumps it exactly once.
  uint64_t version() const { return version_; }

  /// Like version(), but counting only *structural* mutations — flows,
  /// placements, serving arcs, Clear — not ledger recomputes
  /// (RecomputeAggregates rewrites resource numbers under unchanged
  /// structure). The audit journal stamps records with it.
  uint64_t structure_version() const { return structure_version_; }

  /// Rough heap footprint of the committed state (flows, placements,
  /// serving arcs, availability, ledgers) — the bytes a full deployment
  /// copy moves.
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
  /// restore rebuilt the structure through the one-fact mutators (which
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

  using HostStream = std::pair<HostId, StreamId>;
  /// Records (h, s) as grounded (it was not) and queues it.
  void Ground(HostId h, StreamId s, std::vector<HostStream>* worklist);
  /// Grounds operator o's output at h when all its inputs are grounded.
  void TryGroundOperator(HostId h, OperatorId o,
                         std::vector<HostStream>* worklist);
  /// Monotone closure: each queued (host, stream) re-examines the
  /// operators and flows that consume it.
  void CloseOver(std::vector<HostStream>* worklist);
  /// Un-grounds (h, s) unless it is a source or already ungrounded, and
  /// queues it as a suspect.
  void Unground(HostId h, StreamId s, std::vector<HostStream>* suspects);
  /// True when (h, s) has a support whose premises are grounded: a local
  /// producer with grounded inputs, or an incoming flow from a host
  /// where s is grounded.
  bool Supported(HostId h, StreamId s) const;
  /// Restores exact availability after the removal of facts (operators
  /// or flows) with the given heads: over-delete, re-derive, close.
  void Retract(const std::vector<HostStream>& heads);

  const Cluster* cluster_;
  const Catalog* catalog_;

  std::map<StreamId, std::vector<std::pair<HostId, HostId>>> flows_by_stream_;
  std::vector<std::set<OperatorId>> ops_by_host_;
  std::map<StreamId, HostId> serving_;
  /// grounded_[h]: the streams grounded at h other than by injection,
  /// ascending — the maintained y_hs, sized by the deployment.
  std::vector<std::vector<StreamId>> grounded_;

  std::vector<double> cpu_used_, mem_used_, nic_out_used_, nic_in_used_;
  std::map<std::pair<HostId, HostId>, double> link_used_;

  uint64_t version_ = 0;
  uint64_t structure_version_ = 0;
};

}  // namespace sqpr

#endif  // SQPR_PLAN_DEPLOYMENT_H_
