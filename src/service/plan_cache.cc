#include "service/plan_cache.h"

#include <algorithm>
#include <utility>

namespace sqpr {

bool PlanCache::FindMaterialized(StreamId stream, Hit* hit) const {
  if (deployment_->catalog().stream(stream).is_base) return false;
  std::vector<HostId> hosts;
  for (HostId h = 0; h < deployment_->cluster().num_hosts(); ++h) {
    if (deployment_->Grounded(h, stream)) hosts.push_back(h);
  }
  if (hosts.empty()) return false;
  if (hit != nullptr) {
    hit->stream = stream;
    hit->hosts = std::move(hosts);
  }
  return true;
}

namespace {

/// Enumerates the proper subsets of `leaves` with >= 2 elements, largest
/// cardinality first, invoking `fn(subset)`. Arities in the evaluation
/// workloads are small (<= 12 enforced by the trace tools), so the 2^k
/// enumeration stays tiny.
template <typename Fn>
void ForEachProperSubset(const std::vector<StreamId>& leaves, Fn fn) {
  const int k = static_cast<int>(leaves.size());
  if (k > 16) return;  // defensive: skip enumeration for absurd arities
  std::vector<uint32_t> masks;
  masks.reserve((1u << k) - 2);
  for (uint32_t mask = 1; mask + 1 < (1u << k); ++mask) {
    if (__builtin_popcount(mask) >= 2) masks.push_back(mask);
  }
  std::stable_sort(masks.begin(), masks.end(),
                   [](uint32_t a, uint32_t b) {
                     return __builtin_popcount(a) > __builtin_popcount(b);
                   });
  std::vector<StreamId> subset;
  for (uint32_t mask : masks) {
    subset.clear();
    for (int i = 0; i < k; ++i) {
      if (mask & (1u << i)) subset.push_back(leaves[i]);
    }
    fn(subset);
  }
}

}  // namespace

PlanCache::Lookup PlanCache::OnArrival(StreamId query) {
  Lookup result;

  if (deployment_->ServingHost(query) != kInvalidHost) {
    result.exact = true;
    result.served = true;
  } else if (FindMaterialized(query, nullptr)) {
    result.exact = true;
  }

  // Canonical subquery probes: the leaf vector of every subset is already
  // sorted (a subsequence of the query's sorted leaves), i.e. exactly
  // the signature the catalog interned. Any other stream carrying those
  // leaves is a unary composite derived from the join stream, which is
  // materialised wherever such a composite's derivation starts, so the
  // join stream answers for the whole signature.
  const Catalog& catalog = deployment_->catalog();
  const StreamInfo& info = catalog.stream(query);
  if (!info.is_base) {
    ForEachProperSubset(info.leaves, [&](const std::vector<StreamId>& sig) {
      const StreamId sub = catalog.FindJoinStream(sig);
      if (sub == kInvalidStream) return;
      Hit hit;
      if (FindMaterialized(sub, &hit)) result.partial.push_back(std::move(hit));
    });
  }

  if (result.exact) {
    ++exact_hits_;
  } else if (!result.partial.empty()) {
    ++partial_hits_;
  } else {
    ++misses_;
  }
  return result;
}

}  // namespace sqpr
