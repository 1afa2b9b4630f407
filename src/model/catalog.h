#ifndef SQPR_MODEL_CATALOG_H_
#define SQPR_MODEL_CATALOG_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "model/cost_model.h"
#include "model/ids.h"

namespace sqpr {

/// Relational operator kinds supported by the planner model. The paper's
/// model is semantics-agnostic (§II-A); joins are what the evaluation
/// workload uses, filters/projections exist for the engine examples.
enum class OpKind : uint8_t {
  kJoin,
  kFilter,
  kProject,
};

const char* OpKindName(OpKind kind);

/// Immutable description of a stream (base or composite).
struct StreamInfo {
  StreamId id = kInvalidStream;
  bool is_base = false;
  /// Host where a base stream is injected (S0_h membership); kInvalidHost
  /// for composite streams.
  HostId source_host = kInvalidHost;
  /// Average data rate ̺_s in Mbps.
  double rate_mbps = 0.0;
  /// Sorted base-leaf set: {id} for a base stream, the union of input
  /// leaves for composites. Two streams are equivalent (§II-C) iff their
  /// kind-tagged leaf signature matches; the catalog hash-conses on it.
  std::vector<StreamId> leaves;
  std::string name;
};

/// Immutable description of an operator o = (S_o, s_o, γ_o).
struct OperatorInfo {
  OperatorId id = kInvalidOperator;
  OpKind kind = OpKind::kJoin;
  /// Input streams S_o (sorted).
  std::vector<StreamId> inputs;
  /// Output stream s_o.
  StreamId output = kInvalidStream;
  /// Computational cost γ_o in CPU units.
  double cpu_cost = 0.0;
  /// Window-state memory in MB (the §VII memory-resource extension).
  double mem_mb = 0.0;
  /// For unary operators: output rate as a fraction of the input rate
  /// (selectivity). Unused for joins, whose output rate is derived from
  /// the leaf set via the cost model.
  double output_rate_fraction = 1.0;
};

/// The closure (S(q), O(q)) of §IV-A: every stream and operator that can
/// appear in some query plan for q, determined recursively.
struct Closure {
  std::vector<StreamId> streams;      // includes q itself and base leaves
  std::vector<OperatorId> operators;  // every producer of any closure stream
};

/// Registry of all streams and operators known to the DSPS, with
/// hash-consed canonical identity.
///
/// Canonicalisation makes reuse discovery (§II-C) a dictionary lookup:
/// the join of leaf set L is one StreamId regardless of join order, while
/// each join *order* contributes distinct operators all producing that
/// one stream. The SQPR model's availability constraint (III.5a) then
/// naturally lets the solver pick any producer — or reuse the stream if a
/// previous query already materialised it.
///
/// Single-threaded: the planning service interns, reads and installs
/// rates on one thread. Entries live in deques, which never move an
/// element on append, so a `const StreamInfo&`, `const OperatorInfo&` or
/// `ProducersOf` reference stays valid while later interning grows the
/// catalog (planners hold them across a closure expansion).
///
/// StreamIds are assigned in interning order, so replayable systems must
/// intern only at deterministic points (the service interns through
/// WarmCatalog at fixed logical points, before a solve).
///
/// Capacity: both stores are bounded (kMaxEntries = 8M streams and 8M
/// operators — roughly a GB of operator metadata, far past the point
/// where solves stop being practical) and entries are never reclaimed.
/// Exhaustion is a *graceful* condition, not an abort: interning entry
/// points return kInvalidStream / ResourceExhausted when a store is
/// full, and the planning service turns that into a reason-coded
/// admission rejection (ServiceStats::catalog_exhausted). Catalog growth
/// is driven by *distinct* query leaf sets (an 8-leaf closure interns
/// ~3k operators), so a service intending to run against unbounded novel
/// workloads needs catalog GC first — a ROADMAP item.
/// set_capacity_for_testing shrinks the limits so tests can reach the
/// condition cheaply.
class Catalog {
 public:
  explicit Catalog(CostModel cost_model) : cost_model_(cost_model) {}

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Registers a base stream injected at `source_host` with rate ̺.
  /// Returns kInvalidStream when the stream store is at capacity.
  StreamId AddBaseStream(HostId source_host, double rate_mbps,
                         std::string name = "");

  /// Canonical stream for the join over the union of the two inputs' leaf
  /// sets, along with the operator performing this particular (left,
  /// right) combination. Creates either lazily; returns the existing ids
  /// when an equivalent stream/operator is already registered. Inputs
  /// must have disjoint leaf sets.
  Result<OperatorId> JoinOperator(StreamId left, StreamId right);

  /// Canonical join stream over explicit base leaves (must be >= 2 and
  /// distinct base streams). Does not create any operator.
  Result<StreamId> CanonicalJoinStream(std::vector<StreamId> base_leaves);

  /// The join stream already interned over `sorted_leaves` (ascending,
  /// distinct), or kInvalidStream. Read-only: it never interns.
  StreamId FindJoinStream(const std::vector<StreamId>& sorted_leaves) const {
    auto it = join_stream_by_leaves_.find(sorted_leaves);
    return it == join_stream_by_leaves_.end() ? kInvalidStream : it->second;
  }

  /// Registers (or finds) a filter/project over `input` with a semantic
  /// discriminator `tag` (two filters with the same tag on the same input
  /// are the same deterministic operator, hence shareable; §II-C limits
  /// sharing to well-known deterministic operators).
  Result<OperatorId> UnaryOperator(OpKind kind, StreamId input, int32_t tag,
                                   double output_rate_fraction);

  /// Expands S(q)/O(q) for a canonical join stream: all subset joins of
  /// its leaf set and all binary split operators producing them. The
  /// expansion is memoised; repeated calls are cheap. For base streams
  /// the closure is the stream itself.
  Result<Closure> JoinClosure(StreamId stream);

  const StreamInfo& stream(StreamId id) const {
    SQPR_CHECK(id >= 0 && static_cast<size_t>(id) < streams_.size())
        << "stream id out of range";
    return streams_[id];
  }
  const OperatorInfo& op(OperatorId id) const {
    SQPR_CHECK(id >= 0 && static_cast<size_t>(id) < operators_.size())
        << "operator id out of range";
    return operators_[id];
  }
  int num_streams() const { return static_cast<int>(streams_.size()); }
  int num_operators() const { return static_cast<int>(operators_.size()); }

  /// All operators producing stream s ({o : s_o = s}). For a stream
  /// reached through a warmed join closure the list is complete; in
  /// general later interning may still append to it.
  const std::vector<OperatorId>& ProducersOf(StreamId s) const {
    SQPR_CHECK(s >= 0 && static_cast<size_t>(s) < producers_.size())
        << "stream id out of range";
    return producers_[s];
  }

  const CostModel& cost_model() const { return cost_model_; }

  /// Sum of base rates of a leaf set (helper for rate derivations).
  double SumLeafRates(const std::vector<StreamId>& leaves) const;

  /// §IV-B adaptive planning: replaces a base stream's rate estimate
  /// with a measured value and recomputes every dependent composite
  /// stream rate and operator cost (composite rates are functions of
  /// the base leaf rates, so the recomputation is exact). Callers
  /// holding Deployments over this catalog must refresh their resource
  /// ledgers afterwards (Deployment::RecomputeAggregates).
  ///
  Status UpdateBaseRate(StreamId base, double new_rate_mbps);

  /// Monotonic counter bumped by every successful UpdateBaseRate. Rates
  /// and operator costs feed the SQPR model's objective coefficients and
  /// resource rows, so any cache keyed on model *structure* must include
  /// this epoch: a rate install invalidates every cached model built
  /// from the old rates.
  uint64_t rate_epoch() const { return rate_epoch_; }

  /// Shrinks both stores' admission capacity so tests can exercise
  /// graceful exhaustion without interning millions of entries. Never
  /// grows past kMaxEntries.
  void set_capacity_for_testing(size_t max_streams, size_t max_operators) {
    max_streams_ = std::min(max_streams, kMaxEntries);
    max_operators_ = std::min(max_operators, kMaxEntries);
  }

 private:
  /// Upper bound on either store's size (see the class comment).
  static constexpr size_t kMaxEntries = size_t{1} << 23;

  /// True when the store cannot accept another entry. Interning tests
  /// this *before* appending; finding an existing entry always works.
  bool StreamsFull() const { return streams_.size() >= max_streams_; }
  bool OperatorsFull() const { return operators_.size() >= max_operators_; }

  StreamId InternJoinStream(std::vector<StreamId> sorted_leaves);
  /// Appends a stream entry and its (empty) producer list.
  StreamId AppendStream(StreamInfo info);
  /// Appends an operator entry and registers it as a producer of its
  /// output stream.
  OperatorId AppendOperator(OperatorInfo op);

  CostModel cost_model_;

  std::deque<StreamInfo> streams_;
  std::deque<OperatorInfo> operators_;
  std::deque<std::vector<OperatorId>> producers_;  // by output stream
  size_t max_streams_ = kMaxEntries;
  size_t max_operators_ = kMaxEntries;

  uint64_t rate_epoch_ = 0;

  // Canonical maps. Keys are (kind-tagged) signatures.
  std::map<std::vector<StreamId>, StreamId> join_stream_by_leaves_;
  std::map<std::vector<StreamId>, OperatorId> join_op_by_inputs_;
  std::map<std::pair<std::pair<int, StreamId>, int32_t>, StreamId>
      unary_stream_by_sig_;
  std::map<StreamId, Closure> closure_cache_;
};

}  // namespace sqpr

#endif  // SQPR_MODEL_CATALOG_H_
