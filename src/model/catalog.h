#ifndef SQPR_MODEL_CATALOG_H_
#define SQPR_MODEL_CATALOG_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <map>
#include <mutex>
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

/// Append-only store with stable addresses, lock-free reads and
/// externally serialised appends — the backing the catalog needs so that
/// planner worker threads can read already-interned entries while the
/// event-loop thread interns new ones.
///
/// Entries live in fixed-size blocks reached through a fixed spine of
/// atomic block pointers, so a published `const T&` is never moved or
/// reallocated. Publication protocol: the writer fully constructs the
/// entry, then release-stores the new size; readers acquire-load the
/// size (inside operator[]'s bounds check), which establishes the
/// happens-before edge making the entry's contents visible. Writers must
/// be serialised by the owner (the catalog's intern mutex); published
/// entries must not be mutated while readers are live (see
/// Catalog::UpdateBaseRate for the one exclusive-mode exception).
template <typename T, int kBlockBits = 10, int kSpineBits = 13>
class StableStore {
 public:
  static constexpr size_t kBlockSize = size_t{1} << kBlockBits;
  static constexpr size_t kSpineSize = size_t{1} << kSpineBits;

  StableStore() = default;
  ~StableStore() {
    for (auto& slot : spine_) delete[] slot.load(std::memory_order_relaxed);
  }

  StableStore(const StableStore&) = delete;
  StableStore& operator=(const StableStore&) = delete;

  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// True when the store cannot accept another entry. Writers must test
  /// this *before* appending: NextSlot's capacity check is a last-resort
  /// invariant, not an admission policy.
  bool Full() const { return size() >= capacity_limit_; }

  size_t capacity() const { return capacity_limit_; }

  /// Shrinks the admission capacity so tests can exercise graceful
  /// exhaustion without interning millions of entries. Never grows past
  /// the physical spine capacity. Owner-serialised like appends; only
  /// call before concurrent readers exist.
  void set_capacity_for_testing(size_t limit) {
    capacity_limit_ = std::min(limit, kBlockSize * kSpineSize);
  }

  /// Lock-free read of a published entry. The acquire load in the bounds
  /// check synchronises with the writer's release publication.
  const T& operator[](size_t i) const {
    SQPR_CHECK(i < size()) << "StableStore index out of range";
    return spine_[i >> kBlockBits].load(std::memory_order_acquire)
        [i & (kBlockSize - 1)];
  }

  /// Appends a fully constructed entry (writer side; callers serialise).
  T& Append(T value) {
    T& slot = NextSlot();
    slot = std::move(value);
    Publish();
    return slot;
  }

  /// Appends a default-constructed entry — for non-movable Ts such as
  /// ProducerList (writer side; callers serialise).
  T& AppendDefault() {
    T& slot = NextSlot();
    Publish();
    return slot;
  }

  /// Writer-side mutable access to a published entry. Only legal when
  /// the owner guarantees no concurrent readers (exclusive phases like
  /// Catalog::UpdateBaseRate) or when the mutation is itself internally
  /// synchronised (ProducerList::Append).
  T& Mutable(size_t i) { return const_cast<T&>((*this)[i]); }

 private:
  T& NextSlot() {
    const size_t i = size_.load(std::memory_order_relaxed);
    SQPR_CHECK(i < capacity_limit_) << "StableStore capacity";
    T* block = spine_[i >> kBlockBits].load(std::memory_order_relaxed);
    if (block == nullptr) {
      block = new T[kBlockSize];
      spine_[i >> kBlockBits].store(block, std::memory_order_release);
    }
    return block[i & (kBlockSize - 1)];
  }

  void Publish() {
    size_.store(size_.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
  }

  std::array<std::atomic<T*>, kSpineSize> spine_{};
  std::atomic<size_t> size_{0};
  size_t capacity_limit_ = kBlockSize * kSpineSize;
};

/// Append-only list of the operators producing one stream, readable
/// lock-free while the (serialised) interning writer appends. Chunked
/// linked list: chunks are never moved, the element count is the
/// publication point (release store; acquire load in size()).
class ProducerList {
 private:
  struct Node;  // defined below; iterators hold pointers into the chain

 public:
  static constexpr size_t kChunk = 8;

  ProducerList() = default;
  ~ProducerList();

  ProducerList(const ProducerList&) = delete;
  ProducerList& operator=(const ProducerList&) = delete;

  size_t size() const { return size_.load(std::memory_order_acquire); }
  bool empty() const { return size() == 0; }
  OperatorId operator[](size_t i) const;
  OperatorId front() const { return (*this)[0]; }

  /// Appends a producer (writer side; serialised by the intern mutex).
  void Append(OperatorId op);

  /// Forward iteration over the producers published at begin() time.
  class const_iterator {
   public:
    OperatorId operator*() const { return node_->ops[idx_]; }
    const_iterator& operator++() {
      --remaining_;
      if (++idx_ == kChunk && remaining_ > 0) {
        node_ = node_->next.load(std::memory_order_acquire);
        idx_ = 0;
      }
      return *this;
    }
    bool operator!=(const const_iterator& other) const {
      return remaining_ != other.remaining_;
    }

   private:
    friend class ProducerList;
    const_iterator(const Node* node, size_t remaining)
        : node_(node), idx_(0), remaining_(remaining) {}
    const Node* node_;
    size_t idx_;
    size_t remaining_;
  };

  const_iterator begin() const { return const_iterator(&head_, size()); }
  const_iterator end() const { return const_iterator(nullptr, 0); }

 private:
  struct Node {
    std::array<OperatorId, kChunk> ops{};
    std::atomic<Node*> next{nullptr};
  };

  Node head_;
  Node* tail_ = &head_;  // writer-only
  std::atomic<size_t> size_{0};
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
/// Thread-safety contract (the continuous planning service's tentpole —
/// see docs/ARCHITECTURE.md §3):
///  * *Interning* (AddBaseStream, JoinOperator, CanonicalJoinStream,
///    UnaryOperator, JoinClosure) is internally synchronised by a mutex
///    over the canonical maps and may be called from any thread. New
///    entries are published atomically, after they are fully built.
///  * *Reads of already-interned entries* (stream(), op(),
///    ProducersOf(), num_streams(), num_operators(), SumLeafRates())
///    are lock-free and may run concurrently with interning. A reader
///    may observe a catalog size smaller than the writer's — never a
///    partially constructed entry.
///  * UpdateBaseRate mutates *published* entries (rates, costs) and
///    therefore requires exclusive access: callers must quiesce every
///    concurrent reader first (the planning service commits its pending
///    re-planning round before monitor reports install rates).
///
/// Note that interning safety is distinct from *determinism*: StreamIds
/// are assigned in interning order, so replayable systems must intern
/// only at deterministic points (the service interns through
/// WarmCatalog at fixed logical points, before a solve).
///
/// Capacity: the stable stores are bounded (kBlockSize * kSpineSize =
/// 8M streams and 8M operators — roughly a GB of operator metadata,
/// far past the point where solves stop being practical) and entries
/// are never reclaimed. Exhaustion is a *graceful* condition, not an
/// abort: interning entry points return kInvalidStream /
/// ResourceExhausted when a store is full, and the planning service
/// turns that into a reason-coded admission rejection
/// (ServiceStats::catalog_exhausted). Catalog growth is driven by
/// *distinct* query leaf sets (an 8-leaf closure interns ~3k
/// operators), so a service intending to run against unbounded novel
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

  const StreamInfo& stream(StreamId id) const { return streams_[id]; }
  const OperatorInfo& op(OperatorId id) const { return operators_[id]; }
  int num_streams() const { return static_cast<int>(streams_.size()); }
  int num_operators() const { return static_cast<int>(operators_.size()); }

  /// All operators producing stream s ({o : s_o = s}). For a stream
  /// reached through a warmed join closure the list is complete and
  /// stable; in general it may still be growing (lock-free iteration
  /// sees a published prefix).
  const ProducerList& ProducersOf(StreamId s) const { return producers_[s]; }

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
  /// Unlike interning this mutates already-published entries, so it
  /// requires *exclusive* access: no concurrent reader or interner.
  Status UpdateBaseRate(StreamId base, double new_rate_mbps);

  /// Monotonic counter bumped by every successful UpdateBaseRate. Rates
  /// and operator costs feed the SQPR model's objective coefficients and
  /// resource rows, so any cache keyed on model *structure* must include
  /// this epoch: a rate install invalidates every cached model built
  /// from the old rates. Lock-free to read (planner hot path).
  uint64_t rate_epoch() const {
    return rate_epoch_.load(std::memory_order_acquire);
  }

  /// Shrinks both stores' admission capacity (see
  /// StableStore::set_capacity_for_testing). The producer store tracks
  /// the stream store one-to-one, so it gets the stream limit too.
  void set_capacity_for_testing(size_t max_streams, size_t max_operators) {
    std::lock_guard<std::mutex> lock(intern_mu_);
    streams_.set_capacity_for_testing(max_streams);
    producers_.set_capacity_for_testing(max_streams);
    operators_.set_capacity_for_testing(max_operators);
  }

 private:
  // *Locked variants assume intern_mu_ is held; the public entry points
  // take the lock once (JoinClosure recurses, so the public methods must
  // not re-lock).
  StreamId InternJoinStreamLocked(std::vector<StreamId> sorted_leaves);
  Result<OperatorId> JoinOperatorLocked(StreamId left, StreamId right);
  Result<Closure> JoinClosureLocked(StreamId stream);

  CostModel cost_model_;

  // Stable, lock-free-readable entry stores (see StableStore).
  StableStore<StreamInfo> streams_;
  StableStore<OperatorInfo> operators_;
  StableStore<ProducerList> producers_;  // by output stream

  /// Serialises interning: guards the canonical maps below and the
  /// append side of the stores. Lock-free readers never take it.
  mutable std::mutex intern_mu_;

  std::atomic<uint64_t> rate_epoch_{0};

  // Canonical maps. Keys are (kind-tagged) signatures.
  std::map<std::vector<StreamId>, StreamId> join_stream_by_leaves_;
  std::map<std::vector<StreamId>, OperatorId> join_op_by_inputs_;
  std::map<std::pair<std::pair<int, StreamId>, int32_t>, StreamId>
      unary_stream_by_sig_;
  std::map<StreamId, Closure> closure_cache_;
};

}  // namespace sqpr

#endif  // SQPR_MODEL_CATALOG_H_
