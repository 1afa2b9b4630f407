#include "service/plan_cache.h"

#include <algorithm>

namespace sqpr {

void PlanCache::Rebuild(const Deployment& deployment) {
  by_stream_.clear();
  by_signature_.clear();
  served_.clear();

  const GroundedMap grounded = deployment.GroundedAvailability();
  num_hosts_ = grounded.num_hosts;
  num_streams_ = grounded.num_streams;
  grounded_ = grounded.bits;

  // Only streams actually produced or carried by committed state can be
  // grounded somewhere, so the signature table stays proportional to the
  // deployment, not the catalog.
  for (StreamId s = 0; s < grounded.num_streams; ++s) {
    const StreamInfo& info = catalog_->stream(s);
    if (info.is_base) continue;  // base reuse is just the injection host
    std::vector<HostId> hosts;
    for (HostId h = 0; h < grounded.num_hosts; ++h) {
      if (grounded.at(h, s)) {
        hosts.push_back(h);
      }
    }
    if (hosts.empty()) continue;
    by_signature_[info.leaves].insert(s);
    by_stream_.emplace(s, std::move(hosts));
  }

  for (StreamId s : deployment.ServedStreams()) {
    served_[s] = deployment.ServingHost(s);
  }

  indexed_ = true;
  ++rebuilds_;
}

void PlanCache::GrowStride() {
  const int streams_now = catalog_->num_streams();
  if (streams_now <= num_streams_) return;
  std::vector<bool> grown(static_cast<size_t>(num_hosts_) * streams_now,
                          false);
  for (HostId h = 0; h < num_hosts_; ++h) {
    for (StreamId s = 0; s < num_streams_; ++s) {
      if (grounded_[static_cast<size_t>(h) * num_streams_ + s]) {
        grown[static_cast<size_t>(h) * streams_now + s] = true;
      }
    }
  }
  // Newly interned base streams are grounded at their source hosts —
  // the same seeding the from-scratch fixpoint applies. (New composite
  // streams start ungrounded until an operator or flow grounds them.)
  for (StreamId s = num_streams_; s < streams_now; ++s) {
    const StreamInfo& info = catalog_->stream(s);
    if (info.is_base && info.source_host != kInvalidHost &&
        info.source_host < num_hosts_) {
      grown[static_cast<size_t>(info.source_host) * streams_now + s] = true;
    }
  }
  grounded_ = std::move(grown);
  num_streams_ = streams_now;
}

bool PlanCache::IsSource(HostId h, StreamId s) const {
  const StreamInfo& info = catalog_->stream(s);
  return info.is_base && info.source_host == h;
}

void PlanCache::IndexMaterialized(HostId h, StreamId s) {
  const StreamInfo& info = catalog_->stream(s);
  if (info.is_base) return;
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

void PlanCache::Ground(HostId h, StreamId s,
                       std::vector<std::pair<HostId, StreamId>>* worklist) {
  grounded_[static_cast<size_t>(h) * num_streams_ + s] = true;
  IndexMaterialized(h, s);
  worklist->emplace_back(h, s);
}

void PlanCache::Unground(HostId h, StreamId s,
                         std::vector<std::pair<HostId, StreamId>>* suspects) {
  if (!Grounded(h, s) || IsSource(h, s)) return;
  grounded_[static_cast<size_t>(h) * num_streams_ + s] = false;
  UnindexMaterialized(h, s);
  suspects->emplace_back(h, s);
}

void PlanCache::TryGroundOperator(
    HostId h, OperatorId o,
    std::vector<std::pair<HostId, StreamId>>* worklist) {
  const OperatorInfo& op = catalog_->op(o);
  if (Grounded(h, op.output)) return;
  for (StreamId in : op.inputs) {
    if (!Grounded(h, in)) return;
  }
  Ground(h, op.output, worklist);
}

bool PlanCache::Supported(const Deployment& deployment, HostId h,
                          StreamId s) const {
  for (OperatorId o : catalog_->ProducersOf(s)) {
    if (!deployment.RunsOperator(h, o)) continue;
    const OperatorInfo& op = catalog_->op(o);
    if (std::all_of(op.inputs.begin(), op.inputs.end(),
                    [&](StreamId in) { return Grounded(h, in); })) {
      return true;
    }
  }
  for (const auto& [from, to] : deployment.FlowsOf(s)) {
    if (to == h && Grounded(from, s)) return true;
  }
  return false;
}

bool PlanCache::ApplyDelta(const Deployment& deployment,
                           const DeploymentDelta& delta) {
  if (!indexed_) {
    Rebuild(deployment);
    return false;
  }

  GrowStride();

  for (const DeploymentDelta::ServingChange& change : delta.serving_changes) {
    if (change.after == kInvalidHost) {
      served_.erase(change.stream);
    } else {
      served_[change.stream] = change.after;
    }
  }

  // 1. Over-delete: un-ground the head of every removed operator and
  // flow, then everything the deployment derives from an un-grounded
  // fact. Consumers are read from the final deployment; removed
  // consumers were seeded directly, and consumers added since only
  // widen the suspect set, which step 2 re-checks.
  std::vector<std::pair<HostId, StreamId>> suspects;
  for (const auto& [h, o] : delta.ops_removed) {
    Unground(h, catalog_->op(o).output, &suspects);
  }
  for (const auto& [from, to, s] : delta.flows_removed) {
    Unground(to, s, &suspects);
  }
  for (size_t i = 0; i < suspects.size(); ++i) {
    const auto [h, s] = suspects[i];
    for (OperatorId o : deployment.OperatorsOn(h)) {
      const OperatorInfo& op = catalog_->op(o);
      if (std::find(op.inputs.begin(), op.inputs.end(), s) !=
          op.inputs.end()) {
        Unground(h, op.output, &suspects);
      }
    }
    for (const auto& [from, to] : deployment.FlowsOf(s)) {
      if (from == h) Unground(to, s, &suspects);
    }
  }

  // 2. Re-derive: a suspect with a support among the facts still
  // grounded is grounded again. Supports through other suspects are
  // found by the closure below once those re-ground — never through
  // each other's stale bits, which is what un-grounds a cycle that lost
  // its root.
  std::vector<std::pair<HostId, StreamId>> worklist;
  for (const auto& [h, s] : suspects) {
    if (!Grounded(h, s) && Supported(deployment, h, s)) {
      Ground(h, s, &worklist);
    }
  }

  // 3. Monotone closure over the re-grounded facts and the additions:
  // each newly grounded (host, stream) re-examines the operators and
  // flows that consume it. Additions a later commit in the same delta
  // removed again are skipped.
  for (const auto& [h, o] : delta.ops_added) {
    if (deployment.RunsOperator(h, o)) TryGroundOperator(h, o, &worklist);
  }
  for (const auto& [from, to, s] : delta.flows_added) {
    if (Grounded(from, s) && !Grounded(to, s) &&
        deployment.HasFlow(from, to, s)) {
      Ground(to, s, &worklist);
    }
  }
  while (!worklist.empty()) {
    const auto [h, s] = worklist.back();
    worklist.pop_back();
    for (OperatorId o : deployment.OperatorsOn(h)) {
      const OperatorInfo& op = catalog_->op(o);
      if (std::find(op.inputs.begin(), op.inputs.end(), s) !=
          op.inputs.end()) {
        TryGroundOperator(h, o, &worklist);
      }
    }
    for (const auto& [from, to] : deployment.FlowsOf(s)) {
      if (from == h && !Grounded(to, s)) {
        Ground(to, s, &worklist);
      }
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
  for (HostId h = 0; h < num_hosts_; ++h) {
    for (StreamId s = 0; s < num_streams_; ++s) {
      if (grounded_[static_cast<size_t>(h) * num_streams_ + s]) {
        out += "g " + std::to_string(h) + ":" + std::to_string(s) + "\n";
      }
    }
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
