#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "common/hash_util.h"
#include "common/sharded_map.h"
#include "common/status.h"
#include "relational/relation.h"

/// \file operator_store.h
/// The operator memo the paper's §IX asks for ("data structures to
/// facilitate o-sharing evaluation"): a concurrent, sharded,
/// byte-budgeted store of materialized selection results and aliased
/// base-relation scans. It is the only operator memo of the u-trace:
/// every OSharingEngine looks each selection and scan up here, in the
/// caller's store or, when none is given, in one it owns.
///
/// One store instance is shared by
///   * every u-trace branch that repeats an operator its sibling
///     already executed (sequential or parallel),
///   * every engine clone inside one parallel u-trace (RunParallel
///     branches reuse each other's selections instead of redoing work
///     the sequential trace would have memoized), and
///   * every concurrent query evaluated by a QueryService over the same
///     engine — overlapping queries share materialized operators.
///
/// Lookups are single-flight: when two branches need the same selection
/// at the same time, one computes it and the other waits for that
/// result instead of duplicating the work.
///
/// Keys carry the input relation's identity and the engine's mapping
/// epoch — plus a shard-local epoch component when the evaluation runs
/// over one shard of a sharded mapping set (see OperatorKey::shard_epoch);
/// FenceEpoch drops every entry when the global epoch advances
/// (UseTopMappings reconfigurations), so a stale materialization can
/// never be returned, whether it was keyed whole-set or shard-local.
/// Entries pin their input relation (pointer-identity keys stay valid —
/// an input address cannot be recycled while an entry references it)
/// and are evicted LRU per shard once the byte budget is exceeded —
/// except the entry just inserted, so an operator larger than a shard's
/// budget still serves repeats (the budget overruns by at most one
/// entry per shard; the AnswerCache makes the same trade).

namespace urm {
namespace osharing {

struct OperatorStoreOptions {
  /// Total byte budget across shards, counting each entry's result
  /// relation plus the input relation it pins; enforced per shard at
  /// max_bytes / num_shards.
  size_t max_bytes = 256ull << 20;
  /// Concurrency shards (rounded up to a power of two).
  size_t num_shards = 16;
};

/// Monotonic counters plus a point-in-time size snapshot.
struct OperatorStoreStats {
  size_t hits = 0;                ///< served from the store
  /// Computed fresh — and inserted, unless an op_hash collision forced
  /// an uncached compute.
  size_t misses = 0;
  size_t evictions = 0;           ///< dropped by the byte budget
  size_t single_flight_waits = 0; ///< hits that waited on an in-flight compute
  size_t bytes_reused = 0;        ///< result bytes served instead of recomputed
  /// FenceEpoch calls that actually advanced the epoch and cleared the
  /// store (mapping-set reconfigurations observed by this store).
  size_t epoch_fences = 0;
  /// Entries dropped by FenceRelations (delta-aware invalidation).
  size_t relation_fenced = 0;
  size_t entries = 0;             ///< current entries (snapshot)
  /// Current budget-weighted bytes (results + pinned inputs; snapshot).
  size_t bytes = 0;
};

/// Identity of one materialized operator evaluation.
struct OperatorKey {
  uint64_t epoch = 0;  ///< Engine::mapping_epoch at evaluation
  /// Shard-local epoch component: 0 for whole-set evaluations; the
  /// owning shard's identity hash (mapping::MappingShard::hash) for
  /// sharded ones. The global `epoch` stays monotonic — it alone
  /// drives FenceEpoch — while this field partitions the key space per
  /// shard: one shard's materializations are distinct from its
  /// siblings' (each shard's store slice is self-contained, the layout
  /// a distributed deployment needs to place one shard per node), yet
  /// repeated sharded queries in the same epoch still reuse them,
  /// because a shard's hash is stable for a given source set and shard
  /// count.
  uint64_t shard_epoch = 0;
  /// Input relation identity for selections (entries pin the pointee);
  /// null for base-relation scans.
  const void* input = nullptr;
  /// Hash of the rendered operator (predicate rendering, or scan
  /// relation + alias); the rendering itself is re-verified on hits.
  uint64_t op_hash = 0;

  bool operator==(const OperatorKey& other) const {
    return epoch == other.epoch && shard_epoch == other.shard_epoch &&
           input == other.input && op_hash == other.op_hash;
  }
};

struct OperatorKeyHash {
  size_t operator()(const OperatorKey& key) const {
    size_t seed = static_cast<size_t>(key.op_hash);
    HashCombine(seed, static_cast<size_t>(key.epoch));
    HashCombine(seed, static_cast<size_t>(key.shard_epoch));
    HashCombine(seed, std::hash<const void*>{}(key.input));
    return seed;
  }
};

/// \brief Concurrent cross-query memo of materialized operators.
///
/// Thread-safety: all members may be called concurrently. GetOrCompute
/// runs `compute` outside any shard lock, so computations may nest
/// (a selection's compute may itself fetch its input scan from the
/// store) and never block unrelated lookups.
class OperatorStore {
 public:
  using Compute = std::function<Result<relational::RelationPtr>()>;

  explicit OperatorStore(OperatorStoreOptions options = OperatorStoreOptions());

  /// Drops every entry when `epoch` advances past the last fenced
  /// epoch (forward only: a worker holding a stale epoch cannot clear
  /// entries valid under a newer one). The serving tier calls this
  /// with Engine::mapping_epoch before each evaluation; between
  /// reconfigurations it is a single atomic load.
  void FenceEpoch(uint64_t epoch);

  /// Delta-aware invalidation: drops every entry whose key.input is
  /// one of `replaced` (the relation pointers a Catalog::ApplyDelta
  /// swapped out — see relational::ApplyResult::replaced) and returns
  /// how many were dropped. Entries over other relations survive, so a
  /// single-relation update trickle does not zero the store. Scan
  /// entries key on their base catalog relation; downstream selection
  /// entries chain off the scan's result pointer and simply become
  /// unreachable (new scans produce new pointers), aging out by LRU.
  size_t FenceRelations(
      const std::vector<const relational::Relation*>& replaced);

  /// Returns the memoized result for `key`, or runs `compute` exactly
  /// once across all concurrent callers of the same key and memoizes
  /// its result. `op_render` is the rendered operator description,
  /// verified on hits so a 64-bit op_hash collision degrades to an
  /// uncached recompute, never a wrong result. `pinned_input` (may be
  /// null for scans) is kept alive while the entry lives. `shared`, if
  /// non-null, is set to whether the result came from the store rather
  /// than this caller's own compute; `result_bytes`, if non-null, to
  /// the result's ApproxBytes — measured once per entry, so hot-path
  /// hits never rescan the relation to account savings. Failed
  /// computes are not cached.
  Result<relational::RelationPtr> GetOrCompute(
      const OperatorKey& key, const std::string& op_render,
      relational::RelationPtr pinned_input, const Compute& compute,
      bool* shared = nullptr, size_t* result_bytes = nullptr);

  OperatorStoreStats stats() const;

  void Clear();

  const OperatorStoreOptions& options() const { return options_; }

 private:
  /// One memoized evaluation. `future` is valid from insertion (so
  /// concurrent callers can wait on it); the remaining fields are
  /// maintained under the shard lock once the compute finishes.
  struct Entry {
    std::string op_render;
    relational::RelationPtr pinned_input;
    std::shared_future<Result<relational::RelationPtr>> future;
    bool ready = false;
    /// Budget weight: result bytes plus the pinned input's bytes —
    /// the retained-memory bound must count what the entry keeps
    /// alive, or zero-selectivity selections over large per-query
    /// intermediates would pin unbounded memory at ~zero weight. A
    /// shared input is deliberately counted by each entry that pins
    /// it: charging it once would stop counting it the moment the
    /// charging entry is evicted while dependents still pin it,
    /// letting retained memory exceed max_bytes unboundedly. The
    /// conservative N-times charge can only over-evict, never
    /// over-retain.
    size_t bytes = 0;
    size_t result_bytes = 0;  ///< reuse accounting (hit stats)
    std::list<OperatorKey>::iterator lru_it;
  };

  struct ShardState {
    std::list<OperatorKey> lru;  ///< front = most recently used; ready only
    size_t bytes = 0;
  };

  using Shards = ShardedMap<OperatorKey, std::shared_ptr<Entry>,
                            OperatorKeyHash, ShardState>;

  OperatorStoreOptions options_;
  Shards shards_;
  size_t per_shard_budget_ = 0;
  std::atomic<uint64_t> fenced_epoch_{0};
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
  std::atomic<size_t> evictions_{0};
  std::atomic<size_t> single_flight_waits_{0};
  std::atomic<size_t> bytes_reused_{0};
  std::atomic<size_t> epoch_fences_{0};
  std::atomic<size_t> relation_fenced_{0};
};

/// Stable hash of a rendered operator description (hash_util's FNV-1a);
/// the canonical op_hash for OperatorKey.
inline uint64_t HashOperatorRender(const std::string& render) {
  return Fnv1a(render);
}

}  // namespace osharing
}  // namespace urm
