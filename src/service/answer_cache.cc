#include "service/answer_cache.h"

#include <algorithm>

#include "relational/relation.h"

namespace urm {
namespace service {

size_t ApproxResponseBytes(const core::Response& response) {
  size_t bytes = sizeof(core::Response);
  switch (response.kind) {
    case core::RequestKind::kEvaluate:
    case core::RequestKind::kSetOp:
      bytes += response.evaluate.answers.ApproxBytes();
      break;
    case core::RequestKind::kTopK:
      for (const auto& t : response.top_k.tuples) {
        bytes += relational::ApproxRowBytes(t.values) + 2 * sizeof(double);
      }
      break;
    case core::RequestKind::kThreshold:
      for (const auto& t : response.threshold.tuples) {
        bytes += relational::ApproxRowBytes(t.values) + 2 * sizeof(double);
      }
      break;
  }
  if (response.leaves != nullptr) {
    for (const auto& leaf : *response.leaves) {
      bytes += sizeof(core::RecordedLeaf) + sizeof(double);
      for (const auto& row : leaf.rows) {
        bytes += relational::ApproxRowBytes(row);
      }
    }
  }
  return bytes;
}

bool AnswerCache::Expired(const Entry& entry, Clock::time_point now) const {
  if (options_.ttl_seconds <= 0.0) return false;
  return std::chrono::duration<double>(now - entry.inserted).count() >
         options_.ttl_seconds;
}

void AnswerCache::DropOldest() {
  Entry& victim = lru_.back();
  bytes_ -= victim.bytes;
  index_.erase(victim.key);
  lru_.pop_back();
}

AnswerCache::Value AnswerCache::Get(const algebra::PlanFingerprint& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    stats_.misses++;
    return nullptr;
  }
  if (Expired(*it->second, Clock::now())) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
    stats_.expirations++;
    stats_.misses++;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  stats_.hits++;
  return it->second->value;
}

void AnswerCache::Put(const algebra::PlanFingerprint& key, Value value,
                      uint64_t epoch, std::vector<uint64_t> sources,
                      uint64_t data_epoch) {
  if (options_.capacity_entries == 0 || value == nullptr) return;
  size_t bytes = ApproxResponseBytes(*value);
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch != fenced_epoch_.load(std::memory_order_relaxed)) {
    return;  // computed under a fenced-past epoch
  }
  if (StaleUnderChanges(sources, data_epoch)) {
    return;  // a source relation changed after this was computed
  }
  auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ += bytes - it->second->bytes;
    it->second->value = std::move(value);
    it->second->bytes = bytes;
    it->second->inserted = Clock::now();
    it->second->sources = std::move(sources);
    it->second->data_epoch = data_epoch;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, std::move(value), bytes, Clock::now(),
                          std::move(sources), data_epoch});
    index_.emplace(key, lru_.begin());
    bytes_ += bytes;
  }
  // Enforce both budgets, never evicting the entry just touched (an
  // answer larger than the whole byte budget still serves repeats).
  while (lru_.size() > options_.capacity_entries ||
         (options_.capacity_bytes > 0 && bytes_ > options_.capacity_bytes &&
          lru_.size() > 1)) {
    DropOldest();
    stats_.evictions++;
  }
}

bool AnswerCache::StaleUnderChanges(const std::vector<uint64_t>& sources,
                                    uint64_t data_epoch) const {
  if (sources.empty()) {
    // Depends-on-everything: stale if ANY relation changed since.
    return max_change_epoch_ > data_epoch;
  }
  for (uint64_t source : sources) {
    auto it = changed_.find(source);
    if (it != changed_.end() && it->second > data_epoch) return true;
  }
  return false;
}

void AnswerCache::FenceEpoch(uint64_t epoch) {
  // Fast path: between reconfigurations every dispatch fences with an
  // unchanged epoch — one atomic load, no contention with Get/Put.
  // Forward only: a worker holding a stale epoch must not clear
  // entries valid under a newer one (and then block their
  // re-insertion via the epoch-checked Put).
  if (epoch <= fenced_epoch_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch <= fenced_epoch_.load(std::memory_order_relaxed)) return;
  fenced_epoch_.store(epoch, std::memory_order_release);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  stats_.epoch_fences++;
}

size_t AnswerCache::FenceRelations(const std::vector<uint64_t>& changed,
                                   uint64_t data_epoch) {
  if (changed.empty()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  // Record the changes first, so a Put racing with this fence (its
  // response computed before the delta, its Put arriving after) is
  // rejected by StaleUnderChanges rather than resurrecting stale data.
  for (uint64_t source : changed) {
    uint64_t& epoch = changed_[source];
    epoch = std::max(epoch, data_epoch);
  }
  max_change_epoch_ = std::max(max_change_epoch_, data_epoch);
  size_t fenced = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (!StaleUnderChanges(it->sources, it->data_epoch)) {
      ++it;
      continue;
    }
    bytes_ -= it->bytes;
    index_.erase(it->key);
    it = lru_.erase(it);
    ++fenced;
  }
  stats_.relation_fenced += fenced;
  return fenced;
}

void AnswerCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

CacheStats AnswerCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats out = stats_;
  out.entries = lru_.size();
  out.bytes = bytes_;
  return out;
}

}  // namespace service
}  // namespace urm
