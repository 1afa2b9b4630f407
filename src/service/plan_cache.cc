#include "service/plan_cache.h"

#include <algorithm>

namespace sqpr {

void PlanCache::Rebuild(const Deployment& deployment) {
  by_stream_.clear();
  by_signature_.clear();
  served_.clear();

  // Only streams produced or carried by committed state can be grounded
  // away from an injection host, so the scan is proportional to the
  // deployment, not the catalog.
  for (HostId h = 0; h < deployment.cluster().num_hosts(); ++h) {
    for (StreamId s : deployment.GroundedOn(h)) IndexMaterialized(h, s);
  }

  for (StreamId s : deployment.ServedStreams()) {
    served_[s] = deployment.ServingHost(s);
  }

  indexed_ = true;
  ++rebuilds_;
}

bool PlanCache::Indexed(HostId h, StreamId s) const {
  auto it = by_stream_.find(s);
  return it != by_stream_.end() &&
         std::binary_search(it->second.begin(), it->second.end(), h);
}

void PlanCache::IndexMaterialized(HostId h, StreamId s) {
  const StreamInfo& info = catalog_->stream(s);
  if (info.is_base) return;  // base reuse is just the injection host
  std::vector<HostId>& hosts = by_stream_[s];
  auto pos = std::lower_bound(hosts.begin(), hosts.end(), h);
  if (pos == hosts.end() || *pos != h) hosts.insert(pos, h);
  by_signature_[info.leaves].insert(s);
}

void PlanCache::UnindexMaterialized(HostId h, StreamId s) {
  const StreamInfo& info = catalog_->stream(s);
  if (info.is_base) return;
  auto it = by_stream_.find(s);
  if (it == by_stream_.end()) return;
  std::vector<HostId>& hosts = it->second;
  hosts.erase(std::remove(hosts.begin(), hosts.end(), h), hosts.end());
  if (!hosts.empty()) return;
  by_stream_.erase(it);
  auto sig = by_signature_.find(info.leaves);
  sig->second.erase(s);
  if (sig->second.empty()) by_signature_.erase(sig);
}

bool PlanCache::ApplyDelta(const Deployment& deployment,
                           const DeploymentDelta& delta) {
  if (!indexed_) {
    Rebuild(deployment);
    return false;
  }

  for (const DeploymentDelta::ServingChange& change : delta.serving_changes) {
    if (change.after == kInvalidHost) {
      served_.erase(change.stream);
    } else {
      served_[change.stream] = change.after;
    }
  }

  // Groundedness can only have changed at the head of an added or
  // removed fact, or downstream of a (host, stream) whose groundedness
  // changed. So re-read the heads, and walk on — through the consumers
  // in the final deployment — only past pairs whose indexed state
  // changed. Base streams are not indexed, so the walk cannot tell
  // whether a relayed base stream changed and always goes past it
  // (never past an injection host, where a base stream is grounded for
  // good).
  std::vector<std::pair<HostId, StreamId>> pending;
  for (const auto& [h, o] : delta.ops_removed) {
    pending.emplace_back(h, catalog_->op(o).output);
  }
  for (const auto& [h, o] : delta.ops_added) {
    pending.emplace_back(h, catalog_->op(o).output);
  }
  for (const auto& [from, to, s] : delta.flows_removed) {
    pending.emplace_back(to, s);
  }
  for (const auto& [from, to, s] : delta.flows_added) {
    pending.emplace_back(to, s);
  }
  std::set<std::pair<HostId, StreamId>> visited;
  while (!pending.empty()) {
    const auto [h, s] = pending.back();
    pending.pop_back();
    if (!visited.insert({h, s}).second) continue;
    const StreamInfo& info = catalog_->stream(s);
    if (info.is_base) {
      if (info.source_host == h) continue;
    } else {
      const bool grounded = deployment.Grounded(h, s);
      if (Indexed(h, s) == grounded) continue;
      if (grounded) {
        IndexMaterialized(h, s);
      } else {
        UnindexMaterialized(h, s);
      }
    }
    for (OperatorId o : deployment.OperatorsOn(h)) {
      const OperatorInfo& op = catalog_->op(o);
      if (std::find(op.inputs.begin(), op.inputs.end(), s) !=
          op.inputs.end()) {
        pending.emplace_back(h, op.output);
      }
    }
    for (const auto& [from, to] : deployment.FlowsOf(s)) {
      if (from == h) pending.emplace_back(to, s);
    }
  }

  ++delta_updates_;
  return true;
}

std::string PlanCache::DebugDump() const {
  std::string out;
  for (const auto& [s, hosts] : by_stream_) {
    out += "mat " + std::to_string(s) + ":";
    for (HostId h : hosts) out += " " + std::to_string(h);
    out += "\n";
  }
  for (const auto& [sig, streams] : by_signature_) {
    out += "sig";
    for (StreamId leaf : sig) out += " " + std::to_string(leaf);
    out += " ->";
    for (StreamId s : streams) out += " " + std::to_string(s);
    out += "\n";
  }
  for (const auto& [s, h] : served_) {
    out += "served " + std::to_string(s) + "@" + std::to_string(h) + "\n";
  }
  return out;
}

bool PlanCache::FindMaterialized(StreamId stream, Hit* hit) const {
  auto it = by_stream_.find(stream);
  if (it == by_stream_.end()) return false;
  if (hit != nullptr) {
    hit->stream = stream;
    hit->hosts = it->second;
  }
  return true;
}

namespace {

/// Enumerates the proper subsets of `leaves` with >= 2 elements, largest
/// cardinality first, invoking `fn(subset)`. Arities in the evaluation
/// workloads are small (<= 12 enforced by the trace tools), so the 2^k
/// enumeration stays tiny; each subset costs one map lookup.
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

  auto served_it = served_.find(query);
  if (served_it != served_.end()) {
    result.exact = true;
    result.served = true;
    result.exact_hit.stream = query;
    result.exact_hit.hosts = {served_it->second};
  } else if (FindMaterialized(query, &result.exact_hit)) {
    result.exact = true;
  }

  // Canonical subquery probes: the leaf vector of every subset is already
  // sorted (subsequence of the query's sorted leaves), i.e. exactly the
  // signature the catalog interned.
  const StreamInfo& info = catalog_->stream(query);
  if (!info.is_base) {
    ForEachProperSubset(info.leaves, [&](const std::vector<StreamId>& sig) {
      auto it = by_signature_.find(sig);
      if (it == by_signature_.end()) return;
      Hit hit;
      if (FindMaterialized(*it->second.begin(), &hit)) {
        result.partial.push_back(std::move(hit));
      }
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
