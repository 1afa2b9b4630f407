#ifndef SQPR_PLANNER_SQPR_MODEL_CACHE_H_
#define SQPR_PLANNER_SQPR_MODEL_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "planner/sqpr/model_builder.h"

namespace sqpr {

/// Identity of one grounded SQPR solve *structure*. Two solves with equal
/// keys build bit-identical model skeletons (same variables, rows, terms,
/// objective coefficients and names): the skeleton depends only on the
/// relevant sets, the demand flags, the §VII host subset (which pins
/// x/z/d columns in the skeleton), the catalog's rates/costs and the
/// cluster specs — never on the committed deployment, which only moves
/// bounds (see SqprMip::Rebind). The epochs fold every mutable input into
/// the key, so a measured-rate install or a host failure/rejoin makes old
/// cache entries unreachable instead of stale.
struct SolveKey {
  std::vector<StreamId> streams;    // sorted, deduped
  std::vector<OperatorId> operators;
  /// (stream, must_serve) per demand, in demand order.
  std::vector<std::pair<StreamId, uint8_t>> demands;
  /// The SqprMip host subset as passed (empty = unrestricted).
  std::vector<HostId> host_subset;
  uint64_t rate_epoch = 0;  // Catalog::rate_epoch()
  uint64_t spec_epoch = 0;  // Cluster::spec_epoch()

  friend bool operator<(const SolveKey& a, const SolveKey& b) {
    return std::tie(a.rate_epoch, a.spec_epoch, a.streams, a.operators,
                    a.demands, a.host_subset) <
           std::tie(b.rate_epoch, b.spec_epoch, b.streams, b.operators,
                    b.demands, b.host_subset);
  }
};

/// A bounded pool of built SqprMip models keyed by solve structure.
/// Checkout() hands out ownership (the entry is removed from the pool),
/// so a checked-out model can be Rebind()-ed and solved; Return() puts it
/// back for the next solve. A rebound cached model is bit-identical to a
/// fresh build, which makes the whole cache performance-only: a hit or a
/// miss can never change a solve's result.
///
/// A checked-in model's base-deployment pointer may dangle (the
/// deployment it was built against may be gone); callers must Rebind()
/// before any other use, which is what re-targets the pointer.
class SqprSolveCache {
 public:
  SqprSolveCache() = default;

  SqprSolveCache(const SqprSolveCache&) = delete;
  SqprSolveCache& operator=(const SqprSolveCache&) = delete;

  /// Removes and returns the model cached for `key`; null on miss.
  std::unique_ptr<SqprMip> Checkout(const SolveKey& key);

  /// Re-inserts a model under `key`, evicting the least-recently-used
  /// entry past capacity.
  void Return(const SolveKey& key, std::unique_ptr<SqprMip> model);

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::unique_ptr<SqprMip> model;
    uint64_t last_used = 0;
  };

  /// Models kept before the least recently used one is evicted.
  static constexpr size_t kCapacity = 16;
  uint64_t tick_ = 0;
  std::map<SolveKey, Entry> entries_;
};

}  // namespace sqpr

#endif  // SQPR_PLANNER_SQPR_MODEL_CACHE_H_
