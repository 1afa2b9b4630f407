#include "planner/sqpr/model_cache.h"

namespace sqpr {

std::unique_ptr<SqprMip> SqprSolveCache::Checkout(const SolveKey& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  std::unique_ptr<SqprMip> model = std::move(it->second.model);
  entries_.erase(it);
  return model;
}

void SqprSolveCache::Return(const SolveKey& key,
                            std::unique_ptr<SqprMip> model) {
  if (model == nullptr) return;
  Entry& entry = entries_[key];
  entry.model = std::move(model);
  entry.last_used = ++tick_;
  while (entries_.size() > capacity_) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    entries_.erase(victim);
  }
}

}  // namespace sqpr
