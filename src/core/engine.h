#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "common/status.h"
#include "core/request.h"
#include "core/setops.h"
#include "datagen/target_schemas.h"
#include "datagen/tpch.h"
#include "mapping/generator.h"
#include "mapping/sharded.h"
#include "obs/metrics.h"
#include "osharing/osharing.h"
#include "topk/threshold.h"
#include "topk/topk.h"

/// \file engine.h
/// The library's public facade. An Engine bundles everything the paper's
/// setup (§VIII-A) prepares once per configuration:
///   * a TPC-H-style source instance `D` (datagen),
///   * the scored correspondences between TPC-H and a target schema
///     (matching),
///   * the h best possible mappings with probabilities (mapping),
/// and answers probabilistic queries of every kind through the unified
/// request API: build a core::Request (method evaluation, top-k,
/// set-op, or threshold) and dispatch it with Run. See request.h for
/// the envelope and the AnswerSink streaming hook, and
/// EvalOptions::mapping_shards for sharded (h ≫ 10³) evaluation.
///
/// Quickstart:
/// \code
///   urm::core::Engine::Options opts;
///   opts.target_schema = urm::datagen::TargetSchemaId::kExcel;
///   auto engine = urm::core::Engine::Create(opts);
///   auto q = urm::core::QueryById("Q1");
///   auto response = engine.ValueOrDie()->Run(
///       urm::core::Request::MethodEval(q.query,
///                                      urm::core::Method::kOSharing));
///   // response.ValueOrDie().evaluate.answers holds the AnswerSet.
/// \endcode

namespace urm {
namespace core {

/// \brief One fully-prepared experiment configuration.
///
/// Thread-safety: all const members (Run, Analyze, the accessors) are
/// safe to call concurrently — every evaluation pins an immutable
/// snapshot of the active mapping set and of the catalog once at
/// dispatch and never rereads either, so UseTopMappings /
/// SetActiveMappings (mapping hot-reconfiguration) and ApplyDelta
/// (row-level ingest) may run under traffic: in-flight evaluations
/// complete against their pinned epoch, later dispatches see the new
/// state. `mappings()` returns a reference into the
/// current snapshot — do not hold it across a reconfiguration.
class Engine {
 public:
  struct Options {
    /// Source instance size; row counts scale linearly (§VIII-A uses
    /// 100 MB; benchmarks default lower so suites finish in minutes).
    double target_mb = 5.0;
    uint64_t seed = 42;
    datagen::TargetSchemaId target_schema =
        datagen::TargetSchemaId::kExcel;
    /// Number of possible mappings (the paper's h).
    int num_mappings = 100;
    /// Name-score threshold for the matcher (seeded pairs always kept).
    double matcher_threshold = 0.74;
    /// Operator selection strategy for o-sharing / top-k.
    osharing::StrategyKind strategy = osharing::StrategyKind::kSEF;
  };

  /// Generates the instance, runs the matcher, and enumerates the h
  /// best mappings.
  static Result<std::unique_ptr<Engine>> Create(const Options& options);

  /// Builds an Engine from pre-made parts (tests use this to craft
  /// small controlled scenarios).
  static std::unique_ptr<Engine> FromParts(
      relational::Catalog catalog, matching::SchemaDef source_schema,
      matching::SchemaDef target_schema,
      std::vector<mapping::Mapping> mappings, Options options);

  /// Configuration accessors. Safe to call concurrently with
  /// evaluations; the references stay valid for the engine's lifetime,
  /// but `mappings()` returns a view into the current mapping-set
  /// snapshot, which a reconfiguration replaces — do not hold the
  /// reference across one.
  const relational::Catalog& catalog() const { return catalog_; }
  const matching::SchemaDef& source_schema() const { return source_schema_; }
  const matching::SchemaDef& target_schema() const { return target_schema_; }
  const std::vector<mapping::Mapping>& mappings() const {
    return CurrentMappingState()->mappings;
  }
  const std::vector<matching::Correspondence>& correspondences() const {
    return correspondences_;
  }
  const Options& options() const { return options_; }

  /// Restricts the mapping set to the top h (renormalized); used by the
  /// |M| sweeps. Bumps the reconfiguration epoch and refreshes the
  /// memoized mapping-set hash. Safe under traffic: in-flight
  /// evaluations complete against their pinned snapshot.
  void UseTopMappings(size_t h);

  /// Replaces the active mapping set wholesale (hot reconfiguration:
  /// swap or reweight under traffic). Probabilities are renormalized
  /// to sum to 1; fails on an empty set or non-positive total mass.
  /// Bumps the reconfiguration epoch like UseTopMappings. The full
  /// enumerated set (`all_mappings_`, the UseTopMappings source) is
  /// left untouched.
  Status SetActiveMappings(std::vector<mapping::Mapping> mappings);

  /// Applies a row-level delta batch to the catalog (see
  /// relational/delta.h). In-flight evaluations complete against their
  /// pinned catalog snapshot; later dispatches see the new state. The
  /// receipt carries what the serving tier needs to fence its caches.
  Result<relational::ApplyResult> ApplyDelta(
      const relational::DeltaBatch& batch) {
    return catalog_.ApplyDelta(batch);
  }

  /// Structural hash of the active mapping set, memoized per
  /// reconfiguration epoch — the serving tier folds it into every
  /// request fingerprint without rehashing h mappings per submission.
  uint64_t mapping_set_hash() const {
    return mapping_set_hash_.load(std::memory_order_acquire);
  }

  /// Monotonic counter incremented by each mapping reconfiguration
  /// (UseTopMappings / SetActiveMappings).
  uint64_t mapping_epoch() const {
    return mapping_epoch_.load(std::memory_order_acquire);
  }

  /// The catalog's data epoch (bumped per applied delta batch).
  uint64_t data_epoch() const { return catalog_.data_epoch(); }

  /// The set of source relations `request` can read under the current
  /// mapping set, as FNV-1a hashes of the relation names (sorted,
  /// deduplicated) — the AnswerCache's delta-aware invalidation keys.
  /// Returns an empty vector when the footprint cannot be determined
  /// (analysis failure), which callers must treat as
  /// "depends on every relation".
  std::vector<uint64_t> SourceFootprint(const Request& request) const;

  /// Analyzes a target query against the target schema.
  Result<reformulation::TargetQueryInfo> Analyze(
      const algebra::PlanPtr& query) const;

  /// Per-dispatch knobs for Run. With parallelism > 1 and a pool, the
  /// mapping-partition loops of a method evaluation fan out
  /// (q-sharing/basic/e-basic: one task per representative source
  /// query; o-sharing: one task per root u-trace partition) and merge
  /// deterministically in partition order. e-MQO stays sequential (its
  /// shared-subexpression memo is an execution-order dependency), as do
  /// top-k/threshold (their pruning depends on ordered traversal).
  struct EvalOptions {
    int parallelism = 1;
    ThreadPool* pool = nullptr;
    /// Partition the active mapping set into this many contiguous
    /// probability-renormalized shards (mapping::ShardedMappingSet),
    /// evaluate each shard independently — its own engine clone /
    /// reformulator, concurrently when `pool` is set — and merge the
    /// per-shard AnswerSets deterministically in shard order,
    /// reweighting probabilities by shard mass. <= 1 evaluates the
    /// whole set in one pass (the default; bit-identical to the
    /// pre-sharding behavior). Applies to all four request kinds; for
    /// top-k / threshold each shard computes its complete renormalized
    /// answer mass (per-shard scans still terminate on their own
    /// exhausted-mass bound) and the rank/threshold cut happens on the
    /// merged exact probabilities. Ignored for streaming requests
    /// (`sink` set): a sharded merge has no global leaf order to
    /// stream.
    int mapping_shards = 1;
    /// Streams u-trace leaf answers as they are produced (o-sharing
    /// evaluation, top-k, threshold); see core::AnswerSink. May be
    /// null. OnComplete fires for every request kind.
    AnswerSink* sink = nullptr;
    /// Shared cross-query memo of materialized o-sharing operators
    /// (selections + scans); see osharing/operator_store.h. The
    /// serving tier owns one per QueryService and fences it on
    /// mapping-epoch changes, so concurrent and successive queries
    /// over the same catalog reuse each other's materializations. May
    /// be null (each o-sharing engine then owns a store for its one
    /// evaluation).
    osharing::OperatorStore* operator_store = nullptr;
    /// Pre-resolved histograms RunSharded reports per-shard wall time
    /// and per-run skew (max/mean) into; the serving tier wires this
    /// from its metrics bundle. May be null (no reporting).
    const obs::ShardMetrics* shard_metrics = nullptr;
  };

  /// Dispatches any Request — the single entry point behind all query
  /// kinds. Returns the kind-tagged Response; with eval.sink set, leaf
  /// answers stream to the sink before Run returns.
  Result<Response> Run(const Request& request,
                       const EvalOptions& eval) const;

  /// Run with default EvalOptions (sequential, no streaming).
  Result<Response> Run(const Request& request) const;

  /// Average pairwise overlap of the current mapping set (Fig. 9).
  double MappingOverlapRatio() const {
    return mapping::MappingSetOverlapRatio(CurrentMappingState()->mappings);
  }

 private:
  Engine() = default;

  /// One immutable published generation of the active mapping set.
  /// Evaluations pin the current state once at dispatch;
  /// reconfigurations build a new state and swap the pointer, so
  /// mappings / epoch / hash can never tear apart mid-evaluation.
  struct MappingState {
    std::vector<mapping::Mapping> mappings;
    uint64_t epoch = 0;
    uint64_t hash = 0;
  };

  std::shared_ptr<const MappingState> CurrentMappingState() const;

  /// Swaps in a new active mapping set and refreshes the atomic
  /// epoch/hash mirrors. `advance_epoch` is false only at construction
  /// (the initial publish keeps epoch 0); reconfigurations pass true
  /// and the next epoch is taken under the lock, so concurrent
  /// reconfigurations cannot mint the same epoch twice.
  void PublishMappings(std::vector<mapping::Mapping> mappings,
                       bool advance_epoch);

  /// Run minus the sink OnComplete notification (Run wraps it so the
  /// completion hook fires exactly once on every path). Pins the
  /// mapping-set snapshot and a catalog snapshot, then delegates.
  Result<Response> RunInternal(const Request& request,
                               const EvalOptions& eval) const;

  /// The dispatch body, everything below the snapshot pin: `state` and
  /// `catalog` are the request's frozen view of the world for its
  /// whole (synchronous) evaluation, shards included.
  Result<Response> RunPinned(const Request& request,
                             const EvalOptions& eval,
                             const MappingState& state,
                             const relational::Catalog& catalog) const;

  /// Sharded evaluation (EvalOptions::mapping_shards > 1): builds the
  /// ShardedMappingSet, evaluates every shard (concurrently when
  /// eval.pool is set), and merges the per-shard results in shard
  /// order. Falls back to the single-pass path when the set cannot be
  /// split (h < 2).
  Result<Response> RunSharded(const Request& request,
                              const EvalOptions& eval,
                              const MappingState& state,
                              const relational::Catalog& catalog) const;

  /// The memoized sharded view of `state`'s mapping set for
  /// `num_shards`, rebuilt only when the reconfiguration epoch or the
  /// requested shard count changes — serving a sharded request is
  /// O(plan), not O(h), after the first build (mirrors the
  /// mapping-set-hash memo). Callers alternating shard counts on one
  /// engine thrash the memo but stay correct (each gets its own
  /// shared_ptr).
  std::shared_ptr<const mapping::ShardedMappingSet> ShardedView(
      const MappingState& state, size_t num_shards) const;

  /// The kEvaluate method dispatch over an explicit mapping set — one
  /// code path shared by the whole-set evaluation and every shard
  /// evaluation, so the merged sharded result cannot drift from the
  /// unsharded one. `store_shard_epoch` is 0 for whole-set runs, the
  /// shard's identity hash otherwise (see OperatorKey::shard_epoch);
  /// `store_epoch` is the pinned mapping epoch.
  /// The u-trace options every o-sharing, top-k and threshold
  /// evaluation starts from: the request's strategy (or the engine
  /// default), the engine seed, `tee`, and eval's operator store keyed
  /// by `store_epoch` / `store_shard_epoch` (see
  /// EvaluateMethodOverMappings). Parallelism is left to the caller.
  osharing::OSharingOptions MakeOSharingOptions(
      const Request& request, const EvalOptions& eval, uint64_t store_epoch,
      uint64_t store_shard_epoch, osharing::LeafVisitor* tee) const;

  Result<baselines::MethodResult> EvaluateMethodOverMappings(
      const reformulation::TargetQueryInfo& info, const Request& request,
      const EvalOptions& eval,
      const std::vector<mapping::Mapping>& mappings,
      const relational::Catalog& catalog, uint64_t store_epoch,
      uint64_t store_shard_epoch, osharing::LeafVisitor* tee) const;

  relational::Catalog catalog_;
  matching::SchemaDef source_schema_;
  matching::SchemaDef target_schema_;
  std::vector<matching::Correspondence> correspondences_;
  std::vector<mapping::Mapping> all_mappings_;  ///< full enumerated set
  /// Active mapping set: published generations swapped under
  /// mapping_mu_, read via CurrentMappingState().
  mutable std::mutex mapping_mu_;
  std::shared_ptr<const MappingState> mapping_state_;
  /// Lock-free mirrors of mapping_state_->{hash, epoch} for the
  /// hot-path accessors (fingerprinting, per-dispatch fences).
  std::atomic<uint64_t> mapping_set_hash_{0};
  std::atomic<uint64_t> mapping_epoch_{0};
  /// ShardedView memo (guarded by shard_memo_mu_): the sharded set for
  /// the last (epoch, shard count) pair requested.
  mutable std::mutex shard_memo_mu_;
  mutable std::shared_ptr<const mapping::ShardedMappingSet> shard_memo_;
  mutable uint64_t shard_memo_epoch_ = 0;
  mutable size_t shard_memo_count_ = 0;
  Options options_;
};

}  // namespace core
}  // namespace urm
