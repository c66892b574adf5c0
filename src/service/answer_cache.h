#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algebra/fingerprint.h"
#include "core/request.h"

/// \file answer_cache.h
/// Bounded LRU cache from request fingerprints to responses — the
/// paper's MQO spirit (share work across identical queries) lifted to
/// the serving tier: a repeated request of any kind (method
/// evaluation, top-k, set-op, threshold) over an unchanged mapping set
/// is answered without touching the engine at all.
///
/// Entries are weighed by their answer-set bytes (a one-tuple COUNT
/// result no longer costs the same budget as a million-row answer) and
/// bounded by both an entry count and a byte budget. Entries can
/// expire by TTL, and FenceEpoch drops everything on a mapping-set
/// reconfiguration — the fingerprint already keys on the mapping-set
/// hash, so stale entries were unreachable; the fence reclaims their
/// memory instead of waiting for LRU churn.

namespace urm {
namespace service {

/// Cache counters (monotonic except `entries` / `bytes`).
struct CacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;    ///< dropped by the entry/byte budgets
  size_t expirations = 0;  ///< dropped because their TTL elapsed
  /// FenceEpoch calls that actually advanced the epoch and dropped
  /// entries (mapping-set reconfigurations observed by this cache).
  size_t epoch_fences = 0;
  /// Entries dropped by FenceRelations (catalog delta invalidation).
  size_t relation_fenced = 0;
  size_t entries = 0;
  size_t bytes = 0;        ///< current answer bytes held
};

struct AnswerCacheOptions {
  /// Maximum entries; 0 disables the cache entirely.
  size_t capacity_entries = 256;
  /// Maximum total answer bytes across entries; 0 = no byte bound.
  size_t capacity_bytes = 64ull << 20;
  /// Entry lifetime in seconds; 0 = entries never expire. Expiry is
  /// checked on Get (an expired entry counts as a miss).
  double ttl_seconds = 0.0;
};

/// Approximate answer payload bytes of a response, by kind: the
/// AnswerSet tuples (evaluate/set-op) or the bound-carrying tuple lists
/// (top-k/threshold).
size_t ApproxResponseBytes(const core::Response& response);

/// \brief Thread-safe bounded LRU keyed by PlanFingerprint.
///
/// Values are shared_ptr<const core::Response>, so hits are zero-copy
/// and entries evicted while a caller still holds the response stay
/// valid.
class AnswerCache {
 public:
  using Value = std::shared_ptr<const core::Response>;

  explicit AnswerCache(AnswerCacheOptions options) : options_(options) {}

  /// Returns the cached result (promoting it to most-recently-used),
  /// or nullptr on miss. An entry past its TTL is dropped and misses.
  Value Get(const algebra::PlanFingerprint& key);

  /// Inserts or refreshes `value`, evicting least-recently-used
  /// entries while over the entry or byte budget. `value` is dropped
  /// instead when `epoch` no longer matches the last fenced mapping
  /// epoch (a response computed under a mapping set the cache has
  /// fenced past is unreachable by any current-epoch request, and no
  /// future fence of the same epoch would ever drop it), or when any
  /// of its `sources` — sorted FNV-1a name hashes from
  /// Engine::SourceFootprint; empty = depends on every relation —
  /// changed after `data_epoch`, the catalog data epoch it was
  /// computed under (the response may already be stale).
  void Put(const algebra::PlanFingerprint& key, Value value, uint64_t epoch,
           std::vector<uint64_t> sources, uint64_t data_epoch);

  /// Explicit invalidation hook for mapping-set reconfigurations:
  /// drops every entry when `epoch` advances past the last fenced
  /// epoch (Engine::mapping_epoch; forward only, so a worker holding a
  /// stale epoch cannot clear entries valid under a newer one). Cheap
  /// no-op between reconfigurations.
  void FenceEpoch(uint64_t epoch);

  /// Delta-aware invalidation for a catalog delta that produced
  /// `data_epoch` and touched the relations in `changed` (FNV-1a name
  /// hashes): drops every entry computed before `data_epoch` whose
  /// source set intersects `changed` (or is empty = depends-on-all),
  /// records the change epochs so racing Puts of pre-delta responses
  /// are rejected, and returns the number of entries dropped. Entries
  /// over untouched relations survive — the point of delta-aware
  /// invalidation.
  size_t FenceRelations(const std::vector<uint64_t>& changed,
                        uint64_t data_epoch);

  void Clear();

  size_t capacity() const { return options_.capacity_entries; }
  const AnswerCacheOptions& options() const { return options_; }
  CacheStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Entry {
    algebra::PlanFingerprint key;
    Value value;
    size_t bytes = 0;
    Clock::time_point inserted;
    /// Source-relation name hashes (sorted) + catalog data epoch at
    /// computation — the delta-aware invalidation keys.
    std::vector<uint64_t> sources;
    uint64_t data_epoch = 0;
  };

  bool Expired(const Entry& entry, Clock::time_point now) const;
  /// Unlinks lru_.back() from both structures (caller holds mu_).
  void DropOldest();
  /// Whether a response with these provenance marks is already stale
  /// under the recorded relation changes (caller holds mu_).
  bool StaleUnderChanges(const std::vector<uint64_t>& sources,
                         uint64_t data_epoch) const;

  const AnswerCacheOptions options_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<algebra::PlanFingerprint, std::list<Entry>::iterator,
                     algebra::PlanFingerprintHash>
      index_;
  size_t bytes_ = 0;
  /// Atomic so the per-dispatch FenceEpoch no-op path (every request,
  /// between reconfigurations) is one load that never contends with
  /// concurrent Get/Put on mu_.
  std::atomic<uint64_t> fenced_epoch_{0};
  /// Relation change log (guarded by mu_): relation name hash -> data
  /// epoch of its last observed change, plus the max over all of them
  /// (for empty-source entries). Bounded by the catalog's relation
  /// count.
  std::unordered_map<uint64_t, uint64_t> changed_;
  uint64_t max_change_epoch_ = 0;
  CacheStats stats_;
};

}  // namespace service
}  // namespace urm
