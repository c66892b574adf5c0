#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "algebra/fingerprint.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "osharing/operator_store.h"
#include "service/answer_cache.h"

/// \file query_service.h
/// The concurrent query-serving tier on top of core::Engine, built
/// around the unified request API (core/request.h). Every query kind —
/// method evaluation, top-k, set-op, threshold — enters as a
/// core::Request and flows through one pipeline:
///   * the full request (plans + kind parameters + the engine's
///     memoized mapping-set hash) is fingerprinted;
///   * identical requests are deduplicated — within a batch, against
///     evaluations already in flight, and against the bounded LRU
///     answer cache — so any repeated request evaluates once;
///   * distinct requests evaluate concurrently on a fixed thread pool,
///     and each evaluation can fan its mapping partitions out to the
///     same pool (intra_query_parallelism) and/or split the mapping
///     set into probability-renormalized shards evaluated concurrently
///     and merged deterministically (mapping_shards — the h ≫ 10³
///     scaling path; shard config is part of every fingerprint);
///   * completion is delivered as the caller prefers: a
///     std::future<QueryResponse> (SubmitAsync), a completion
///     callback, or a blocking wait (Submit);
///   * a core::AnswerSink streams u-trace leaf answers to the caller
///     while the evaluation is still running (o-sharing / top-k /
///     threshold paths).
///
/// Quickstart:
/// \code
///   urm::service::QueryService svc(engine.get(), {});
///   auto q = urm::core::QueryById("Q1");
///   // Sync:
///   auto r = svc.Submit(
///       urm::core::Request::MethodEval(q.query,
///                                      urm::core::Method::kOSharing));
///   r.response->evaluate.answers.ToString();
///   // Async with a future:
///   auto f = svc.SubmitAsync(urm::core::Request::TopK(q.query, 5));
///   f.get().response->top_k.tuples;
/// \endcode

namespace urm {
namespace service {

/// Pre-resolved metric instruments + registered stat bridges (defined
/// in the .cc; null when ServiceOptions::enable_metrics is off).
struct ServiceMetrics;

struct ServiceOptions {
  /// Worker threads in the shared pool (>= 0; 0 runs every request on
  /// the submitting/waiting thread, preserving single-threaded
  /// semantics — note that with 0 workers SubmitAsync futures only
  /// make progress while a Submit-style wait is draining the queue).
  int num_threads = 4;
  /// Answer-cache capacity in entries; 0 disables caching.
  size_t cache_capacity = 256;
  /// Answer-cache byte budget across entries (answer-set bytes, not
  /// entry count); 0 = unbounded bytes.
  size_t cache_capacity_bytes = 64ull << 20;
  /// Answer-cache entry TTL in seconds; 0 = never expire. Use for
  /// deployments where the source instance mutates out-of-band.
  double cache_ttl_seconds = 0.0;
  /// Partition fan-out width inside one evaluation (see
  /// core::Engine::EvalOptions). 1 keeps each evaluation sequential;
  /// the pool is then used for inter-query concurrency only.
  int intra_query_parallelism = 1;
  /// Evaluate every request over the mapping set partitioned into this
  /// many contiguous probability-renormalized shards, concurrently on
  /// the pool, merging per-shard answers deterministically (see
  /// core::Engine::EvalOptions::mapping_shards and
  /// mapping::ShardedMappingSet). <= 1 (default) evaluates the whole
  /// set in one pass. The shard count is folded into every request
  /// fingerprint, so cached answers key on the shard configuration;
  /// streaming (sink-bearing) requests ignore sharding and evaluate in
  /// one pass.
  int mapping_shards = 1;
  /// Byte budget of the service's osharing::OperatorStore, through
  /// which all evaluations of this service share materialized o-sharing
  /// operators (selections + scans) — concurrent and successive
  /// queries over the same catalog reuse each other's work (paper §IX).
  size_t operator_store_bytes = 256ull << 20;
  /// Report serving-tier metrics — per-kind latency histograms,
  /// request outcomes, in-flight gauge, dedup joins, shard timing, and
  /// collect-time bridges for the cache / operator-store / pool stats
  /// — into `metrics_registry`. Off disables every metric touch (the
  /// bench's overhead config measures the difference).
  bool enable_metrics = true;
  /// Registry to report into; null uses obs::DefaultRegistry(). Must
  /// outlive the service.
  obs::Registry* metrics_registry = nullptr;
  /// Labels attached to every series this service emits (urm_server
  /// uses {{"schema", <target schema>}}), so multiple services can
  /// share one registry without their series colliding.
  obs::Labels metric_labels;
};

/// Outcome for one request.
struct QueryResponse {
  Status status;  ///< per-request; response is null unless ok
  algebra::PlanFingerprint fingerprint;
  /// The kind-tagged result envelope (see core::Response).
  std::shared_ptr<const core::Response> response;
  /// Served from the answer cache (a previous submission).
  bool cache_hit = false;
  /// Shared an identical evaluation — earlier in the same batch, or
  /// already in flight from a concurrent submission.
  bool shared_in_batch = false;
};

/// Completion hook for SubmitAsync: runs on the evaluating thread
/// right before the future is fulfilled (or inline on the submitting
/// thread for immediate cache hits / validation errors), so its
/// effects are visible to whoever unblocks from future.get().
using CompletionCallback = std::function<void(const QueryResponse&)>;

/// Invalidation outcome of FenceCatalogDelta: entries dropped per
/// store.
struct FenceOutcome {
  size_t answers = 0;    ///< AnswerCache entries fenced
  size_t operators = 0;  ///< OperatorStore entries fenced
};

/// \brief Concurrent query service owning a pool, a cache, and the
/// in-flight dedup table.
///
/// Thread-safety: Submit / SubmitAsync may be called from multiple
/// threads, concurrently with engine reconfigurations (UseTopMappings /
/// SetActiveMappings — in-flight evaluations pin their mapping-set
/// snapshot and their responses are only cached if the epoch is still
/// current at completion) and with catalog deltas (Catalog::ApplyDelta
/// followed by FenceCatalogDelta here; see live::IngestController for
/// the assembled path). The mapping-set hash in every fingerprint keys
/// the cache, so stale entries can never be returned.
/// Destroying the service completes all outstanding futures first.
class QueryService {
 public:
  /// `engine` must outlive the service.
  QueryService(const core::Engine* engine, ServiceOptions options);

  /// Completes all outstanding futures, then unregisters the metric
  /// stat bridges from the registry.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Submits one request for asynchronous evaluation and returns a
  /// future for its response. Cache hits and validation errors resolve
  /// immediately; otherwise the evaluation is scheduled on the pool,
  /// deduplicated against identical in-flight requests (joiners mark
  /// shared_in_batch). `sink` streams leaf answers as they are
  /// produced (see core::AnswerSink); a streaming request records its
  /// leaf sequence alongside the cached Response, so a later
  /// sink-bearing hit replays the identical stream instead of
  /// re-evaluating (a hit on a leafless entry — one produced without a
  /// sink — still evaluates fresh and upgrades the entry). Streaming
  /// requests bypass in-flight sharing, since a shared evaluation has
  /// no leaf stream to tap, and their responses only land in the cache
  /// when the service is not shard-configured (a streaming evaluation
  /// runs whole-set, which must not alias sharded cache keys). Streaming
  /// evaluations also ignore intra_query_parallelism (the parallel
  /// path replays buffered leaves only at the end, which would defeat
  /// time-to-first-answer). `callback`, if set, fires once, just
  /// before the future is fulfilled.
  std::future<QueryResponse> SubmitAsync(
      const core::Request& request, core::AnswerSink* sink = nullptr,
      CompletionCallback callback = nullptr);

  /// Synchronous single-request convenience: SubmitAsync + wait (the
  /// waiting thread helps drain the pool, so this works with
  /// num_threads = 0).
  QueryResponse Submit(const core::Request& request,
                       core::AnswerSink* sink = nullptr);

  /// Evaluates a batch of any request kinds: fingerprint, dedup within
  /// the batch, then SubmitAsync the distinct requests and wait for
  /// all. Responses are in request order; per-request failures (e.g. a
  /// query over an unknown table) are reported in
  /// QueryResponse::status without failing the batch.
  std::vector<QueryResponse> Submit(const std::vector<core::Request>& batch);

  /// Fingerprint a request exactly as Submit would: the full request
  /// envelope plus the engine's memoized mapping-set hash as context.
  algebra::PlanFingerprint Fingerprint(const core::Request& request) const;

  /// Scan-byte accounting aggregated from every completed evaluation
  /// (the EvalStats storage counters of all four request kinds):
  /// columnar vs row selection counts and encoded vs logical bytes
  /// read. Monotonic over the service lifetime.
  struct StorageScanStats {
    uint64_t bytes_scanned = 0;
    uint64_t logical_bytes_scanned = 0;
    uint64_t columnar_scans = 0;
    uint64_t row_scans = 0;
  };

  StorageScanStats storage_scan_stats() const {
    StorageScanStats out;
    out.bytes_scanned = bytes_scanned_.load(std::memory_order_relaxed);
    out.logical_bytes_scanned =
        logical_bytes_scanned_.load(std::memory_order_relaxed);
    out.columnar_scans = columnar_scans_.load(std::memory_order_relaxed);
    out.row_scans = row_scans_.load(std::memory_order_relaxed);
    return out;
  }

  /// Invalidates cached state made stale by a catalog delta the
  /// caller just applied (engine()->ApplyDelta): only answer-cache
  /// entries whose source footprint intersects the delta's relations
  /// and operator-store entries keyed on the replaced relation
  /// pointers are dropped. Racing Puts of pre-delta responses are
  /// rejected (the cache records the change epochs). Returns how many
  /// entries each store dropped.
  FenceOutcome FenceCatalogDelta(const relational::ApplyResult& delta);

  CacheStats cache_stats() const { return cache_.stats(); }
  void ClearCache() { cache_.Clear(); }

  /// Point-in-time pool occupancy (threads, queue depth, running
  /// tasks, total executed) — see ThreadPool::stats.
  PoolStats pool_stats() const { return pool_.stats(); }

  /// Counters of the shared operator store.
  osharing::OperatorStoreStats operator_store_stats() const {
    return operator_store_.stats();
  }

  const core::Engine& engine() const { return *engine_; }
  const ServiceOptions& options() const { return options_; }
  ThreadPool& pool() { return pool_; }

 private:
  /// One scheduled evaluation plus everyone waiting on it.
  struct Work {
    core::Request request;
    algebra::PlanFingerprint fingerprint;
    core::AnswerSink* sink = nullptr;
    /// Dispatch time; anchors the submit-to-complete and
    /// submit-to-first-streamed-leaf latency observations.
    std::chrono::steady_clock::time_point submitted;
    /// Registered in in_flight_ (shareable; false for sink-bearing
    /// private evaluations).
    bool in_flight = false;
    struct Subscriber {
      std::promise<QueryResponse> promise;
      CompletionCallback callback;
      bool shared = false;  ///< joined an evaluation someone else owns
    };
    std::vector<Subscriber> subscribers;  ///< guarded by service mu_
  };

  /// Cache lookup, in-flight join, or new scheduling for a validated
  /// request; the returned future is fulfilled by RunWork (or
  /// immediately on a cache hit).
  std::future<QueryResponse> Dispatch(const core::Request& request,
                                      const algebra::PlanFingerprint& fp,
                                      core::AnswerSink* sink,
                                      CompletionCallback callback);

  /// Evaluates one Work item on a pool thread and publishes the
  /// response to cache and subscribers.
  void RunWork(const std::shared_ptr<Work>& work);

  /// Resolves every instrument child and registers the stat bridges
  /// (constructor, when enable_metrics is on).
  void InitMetrics();

  /// Blocks until `future` is ready, draining queued pool tasks on
  /// this thread while waiting.
  QueryResponse Wait(std::future<QueryResponse> future);

  const core::Engine* engine_;
  ServiceOptions options_;
  AnswerCache cache_;
  /// Cross-query memo of materialized o-sharing operators, shared by
  /// every evaluation (and every parallel branch within one); fenced
  /// on mapping-epoch changes.
  osharing::OperatorStore operator_store_;
  /// Pre-resolved instruments + registered stat bridges; null when
  /// enable_metrics is off. Declared before pool_ so in-flight
  /// evaluations can still report while the pool drains in ~pool_.
  std::unique_ptr<ServiceMetrics> metrics_;
  /// Storage scan accounting, accumulated lock-free by RunWork from
  /// each evaluation's EvalStats (read by storage_scan_stats and the
  /// urm_storage_* metric bridges).
  std::atomic<uint64_t> bytes_scanned_{0};
  std::atomic<uint64_t> logical_bytes_scanned_{0};
  std::atomic<uint64_t> columnar_scans_{0};
  std::atomic<uint64_t> row_scans_{0};
  mutable std::mutex mu_;  ///< guards in_flight_ + Work::subscribers
  std::unordered_map<algebra::PlanFingerprint, std::shared_ptr<Work>,
                     algebra::PlanFingerprintHash>
      in_flight_;
  /// Last member: destroyed (drained + joined) first, while the cache
  /// and in-flight table its tasks touch are still alive.
  ThreadPool pool_;
};

}  // namespace service
}  // namespace urm
