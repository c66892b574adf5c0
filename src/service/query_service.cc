#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/hash_util.h"
#include "mapping/sharded.h"
#include "obs/log.h"

namespace urm {
namespace service {

namespace {

constexpr size_t kNumKinds = 4;  ///< core::RequestKind cardinality

/// Outcome label values for urm_requests_total.
enum Outcome { kEvaluated = 0, kCacheHit, kShared, kError, kNumOutcomes };

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case kEvaluated: return "evaluated";
    case kCacheHit: return "cache_hit";
    case kShared: return "shared";
    case kError: return "error";
    default: return "unknown";
  }
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Wraps a caller sink to observe the submit-to-first-streamed-leaf
/// latency on the first OnAnswer, then forwards everything unchanged.
class FirstAnswerTimingSink : public core::AnswerSink {
 public:
  FirstAnswerTimingSink(core::AnswerSink* inner, obs::Histogram* histogram,
                        std::chrono::steady_clock::time_point submitted)
      : inner_(inner), histogram_(histogram), submitted_(submitted) {}

  bool OnAnswer(const std::vector<relational::Row>& rows,
                double probability) override {
    if (!observed_) {
      observed_ = true;
      histogram_->Observe(SecondsSince(submitted_));
    }
    return inner_->OnAnswer(rows, probability);
  }

  void OnComplete(const Status& status) override {
    inner_->OnComplete(status);
  }

 private:
  core::AnswerSink* inner_;
  obs::Histogram* histogram_;
  std::chrono::steady_clock::time_point submitted_;
  bool observed_ = false;
};

/// Forwards leaves to the caller's sink while recording the complete
/// sequence for the cache, so a later sink-bearing hit can replay the
/// stream. Recording outlives a caller unsubscribe (the wrapper keeps
/// returning true and just stops forwarding): the cached trace must be
/// the full one, not the prefix one impatient client happened to take.
class RecordingSink : public core::AnswerSink {
 public:
  explicit RecordingSink(core::AnswerSink* inner) : inner_(inner) {}

  bool OnAnswer(const std::vector<relational::Row>& rows,
                double probability) override {
    leaves_.push_back({rows, probability});
    if (!unsubscribed_) unsubscribed_ = !inner_->OnAnswer(rows, probability);
    return true;
  }

  void OnComplete(const Status& status) override {
    inner_->OnComplete(status);
  }

  /// The recorded trace, surrendered once (for Response::leaves).
  std::shared_ptr<const std::vector<core::RecordedLeaf>> TakeLeaves() {
    return std::make_shared<const std::vector<core::RecordedLeaf>>(
        std::move(leaves_));
  }

 private:
  core::AnswerSink* inner_;
  std::vector<core::RecordedLeaf> leaves_;
  bool unsubscribed_ = false;
};

}  // namespace

/// Every instrument the service updates on the request path, resolved
/// once at construction (child lookups are locked; updates are not),
/// plus the collect-time bridges feeding the cache / operator-store /
/// pool stats structs into the registry without hot-path duplication.
struct ServiceMetrics {
  obs::Registry* registry = nullptr;
  obs::Counter* requests[kNumKinds][kNumOutcomes] = {};
  obs::Histogram* latency[kNumKinds] = {};       ///< submit -> complete
  obs::Histogram* first_answer[kNumKinds] = {};  ///< submit -> first leaf
  obs::Counter* dedup_joins = nullptr;
  obs::Gauge* in_flight = nullptr;
  obs::ShardMetrics shard;  ///< wired through EvalOptions
  std::vector<uint64_t> callback_ids;  ///< stat bridges to unregister
};

namespace {

/// Registers a one-series stat bridge: at Collect, `value` is read
/// from the component's own stats and emitted under `labels`.
void AddStatBridge(ServiceMetrics* metrics, const std::string& name,
                   const std::string& help, obs::MetricType type,
                   const obs::Labels& labels,
                   std::function<double()> value) {
  metrics->callback_ids.push_back(metrics->registry->AddCallback(
      name, help, type,
      [labels, value = std::move(value)](std::vector<obs::Sample>* out) {
        obs::Sample sample;
        sample.labels = labels;
        sample.value = value();
        out->push_back(std::move(sample));
      }));
}

/// One catalog walk shared by every urm_storage_* bridge. Collect
/// invokes each metric family's callback separately, so without this
/// a single scrape would walk all catalog relations (with four
/// per-column CodecCount passes each) seven times over. The walk is
/// cached for a short beat: the bridges of one scrape read the same
/// snapshot, and a later scrape past the TTL recomputes it.
class StorageStatsCache {
 public:
  explicit StorageStatsCache(const core::Engine* engine) : engine_(engine) {}

  relational::Catalog::StorageStats Get() {
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    if (!valid_ || now - computed_at_ > kTtl) {
      stats_ = engine_->catalog().Storage();
      computed_at_ = now;
      valid_ = true;
    }
    return stats_;
  }

 private:
  static constexpr std::chrono::milliseconds kTtl{250};

  const core::Engine* engine_;
  std::mutex mu_;
  bool valid_ = false;
  std::chrono::steady_clock::time_point computed_at_{};
  relational::Catalog::StorageStats stats_;
};

/// Immediately-resolved future (cache hits, validation errors).
std::future<QueryResponse> ReadyFuture(const QueryResponse& response) {
  std::promise<QueryResponse> promise;
  promise.set_value(response);
  return promise.get_future();
}

}  // namespace

namespace {

AnswerCacheOptions MakeCacheOptions(const ServiceOptions& options) {
  AnswerCacheOptions cache;
  cache.capacity_entries = options.cache_capacity;
  cache.capacity_bytes = options.cache_capacity_bytes;
  cache.ttl_seconds = options.cache_ttl_seconds;
  return cache;
}

osharing::OperatorStoreOptions MakeStoreOptions(
    const ServiceOptions& options) {
  osharing::OperatorStoreOptions store;
  store.max_bytes = options.operator_store_bytes;
  return store;
}

}  // namespace

QueryService::QueryService(const core::Engine* engine,
                           ServiceOptions options)
    : engine_(engine),
      options_(options),
      cache_(MakeCacheOptions(options)),
      operator_store_(MakeStoreOptions(options)),
      pool_(options.num_threads) {
  URM_CHECK(engine != nullptr);
  if (options_.enable_metrics) InitMetrics();
}

void QueryService::InitMetrics() {
  metrics_ = std::make_unique<ServiceMetrics>();
  ServiceMetrics& m = *metrics_;
  m.registry = options_.metrics_registry != nullptr
                   ? options_.metrics_registry
                   : &obs::DefaultRegistry();

  // Base label set every series carries (e.g. {"schema", <name>}),
  // extended per family; families are shared across services on the
  // same registry (registration is idempotent), so the base labels are
  // what keeps their series apart.
  std::vector<std::string> base_names;
  std::vector<std::string> base_values;
  for (const obs::Label& label : options_.metric_labels) {
    base_names.push_back(label.first);
    base_values.push_back(label.second);
  }
  auto names = [&](std::initializer_list<const char*> extra) {
    std::vector<std::string> out = base_names;
    for (const char* name : extra) out.emplace_back(name);
    return out;
  };
  auto values = [&](std::initializer_list<const char*> extra) {
    std::vector<std::string> out = base_values;
    for (const char* value : extra) out.emplace_back(value);
    return out;
  };

  auto& requests = m.registry->CounterFamily(
      "urm_requests_total",
      "Requests completed, by request kind and outcome (evaluated, "
      "cache_hit, shared, error).",
      names({"kind", "outcome"}));
  auto& latency = m.registry->HistogramFamily(
      "urm_request_latency_seconds",
      "Submit-to-complete latency of evaluated requests, by kind "
      "(includes queue wait; cache hits resolve inline and are not "
      "observed).",
      obs::LatencyBuckets(), names({"kind"}));
  auto& first_answer = m.registry->HistogramFamily(
      "urm_request_first_answer_seconds",
      "Submit-to-first-streamed-leaf latency of streaming requests, "
      "by kind.",
      obs::LatencyBuckets(), names({"kind"}));
  for (size_t k = 0; k < kNumKinds; ++k) {
    const char* kind = core::RequestKindName(static_cast<core::RequestKind>(k));
    for (size_t o = 0; o < kNumOutcomes; ++o) {
      m.requests[k][o] = requests.WithLabels(
          values({kind, OutcomeName(static_cast<Outcome>(o))}));
    }
    m.latency[k] = latency.WithLabels(values({kind}));
    m.first_answer[k] = first_answer.WithLabels(values({kind}));
  }
  m.dedup_joins =
      m.registry
          ->CounterFamily("urm_dedup_joins_total",
                          "Submissions that joined an identical in-flight "
                          "evaluation instead of scheduling their own.",
                          base_names)
          .WithLabels(base_values);
  m.in_flight =
      m.registry
          ->GaugeFamily("urm_inflight_requests",
                        "Evaluations currently queued or running.",
                        base_names)
          .WithLabels(base_values);
  m.shard.shard_seconds =
      m.registry
          ->HistogramFamily("urm_shard_seconds",
                            "Per-shard wall time of sharded evaluations.",
                            obs::LatencyBuckets(), base_names)
          .WithLabels(base_values);
  m.shard.shard_skew =
      m.registry
          ->HistogramFamily(
              "urm_shard_skew_ratio",
              "Slowest shard's wall time over the mean, per sharded "
              "run (1.0 = perfectly balanced split).",
              {1.05, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0}, base_names)
          .WithLabels(base_values);

  // Collect-time bridges: the cache / store / pool already maintain
  // their counters; re-read them at scrape time instead of adding a
  // second set of hot-path increments.
  const obs::Labels& base = options_.metric_labels;
  AddStatBridge(&m, "urm_answer_cache_hits_total",
                "Answer-cache lookups served from the cache.",
                obs::MetricType::kCounter, base,
                [this] { return static_cast<double>(cache_.stats().hits); });
  AddStatBridge(&m, "urm_answer_cache_misses_total",
                "Answer-cache lookups that missed (including TTL "
                "expiries).",
                obs::MetricType::kCounter, base,
                [this] { return static_cast<double>(cache_.stats().misses); });
  AddStatBridge(
      &m, "urm_answer_cache_evictions_total",
      "Answer-cache entries dropped by the entry or byte budget.",
      obs::MetricType::kCounter, base,
      [this] { return static_cast<double>(cache_.stats().evictions); });
  AddStatBridge(
      &m, "urm_answer_cache_ttl_expiries_total",
      "Answer-cache entries dropped because their TTL elapsed.",
      obs::MetricType::kCounter, base,
      [this] { return static_cast<double>(cache_.stats().expirations); });
  AddStatBridge(
      &m, "urm_answer_cache_epoch_fences_total",
      "Mapping-set reconfiguration fences that cleared the cache.",
      obs::MetricType::kCounter, base,
      [this] { return static_cast<double>(cache_.stats().epoch_fences); });
  AddStatBridge(&m, "urm_answer_cache_entries",
                "Answer-cache entries currently held.",
                obs::MetricType::kGauge, base,
                [this] { return static_cast<double>(cache_.stats().entries); });
  AddStatBridge(&m, "urm_answer_cache_bytes",
                "Answer bytes currently held by the cache.",
                obs::MetricType::kGauge, base,
                [this] { return static_cast<double>(cache_.stats().bytes); });

  const osharing::OperatorStore* store = &operator_store_;
  AddStatBridge(&m, "urm_operator_store_hits_total",
                "Materialized operators served from the shared store.",
                obs::MetricType::kCounter, base,
                [store] { return static_cast<double>(store->stats().hits); });
  AddStatBridge(
      &m, "urm_operator_store_misses_total",
      "Operator lookups computed fresh.", obs::MetricType::kCounter,
      base, [store] { return static_cast<double>(store->stats().misses); });
  AddStatBridge(
      &m, "urm_operator_store_evictions_total",
      "Store entries dropped by the byte budget.",
      obs::MetricType::kCounter, base,
      [store] { return static_cast<double>(store->stats().evictions); });
  AddStatBridge(&m, "urm_operator_store_single_flight_waits_total",
                "Hits that waited on an in-flight compute of the same "
                "operator.",
                obs::MetricType::kCounter, base, [store] {
                  return static_cast<double>(
                      store->stats().single_flight_waits);
                });
  AddStatBridge(&m, "urm_operator_store_bytes_reused_total",
                "Result bytes served from the store instead of "
                "recomputed.",
                obs::MetricType::kCounter, base, [store] {
                  return static_cast<double>(store->stats().bytes_reused);
                });
  AddStatBridge(&m, "urm_operator_store_epoch_fences_total",
                "Mapping-set reconfiguration fences that cleared the "
                "store.",
                obs::MetricType::kCounter, base, [store] {
                  return static_cast<double>(store->stats().epoch_fences);
                });
  AddStatBridge(
      &m, "urm_operator_store_entries",
      "Materialized operators currently held.", obs::MetricType::kGauge,
      base, [store] { return static_cast<double>(store->stats().entries); });
  AddStatBridge(&m, "urm_operator_store_bytes",
                "Budget-weighted bytes currently held by the store "
                "(results plus pinned inputs).",
                obs::MetricType::kGauge, base,
                [store] { return static_cast<double>(store->stats().bytes); });

  // Storage families: the compressed-catalog footprint (collect-time
  // reads of the engine catalog's encodings) plus the scan-byte
  // counters RunWork accumulates from every evaluation. Registered
  // unconditionally so the urm_storage_* families appear in every
  // scrape (tools/metrics_lint.py --require-storage enforces this).
  auto with_label = [&base](const char* key, const char* value) {
    obs::Labels out = base;
    out.emplace_back(key, value);
    return out;
  };
  auto storage = std::make_shared<StorageStatsCache>(engine_);
  AddStatBridge(&m, "urm_storage_encoded_bytes",
                "Compressed (encoded) bytes of all columnar-encoded "
                "catalog relations.",
                obs::MetricType::kGauge, base, [storage] {
                  return static_cast<double>(storage->Get().encoded_bytes);
                });
  AddStatBridge(&m, "urm_storage_logical_bytes",
                "Row-format bytes the same encoded relations would "
                "occupy (encoded/logical = compression ratio).",
                obs::MetricType::kGauge, base, [storage] {
                  return static_cast<double>(storage->Get().logical_bytes);
                });
  AddStatBridge(&m, "urm_storage_encoded_relations",
                "Catalog relations holding a live columnar encoding.",
                obs::MetricType::kGauge, base, [storage] {
                  return static_cast<double>(
                      storage->Get().encoded_relations);
                });
  struct CodecGauge {
    const char* label;
    size_t relational::Catalog::StorageStats::* field;
  };
  static constexpr CodecGauge kCodecGauges[] = {
      {"plain", &relational::Catalog::StorageStats::columns_plain},
      {"delta", &relational::Catalog::StorageStats::columns_delta},
      {"rle", &relational::Catalog::StorageStats::columns_rle},
      {"dictionary", &relational::Catalog::StorageStats::columns_dictionary},
  };
  for (const CodecGauge& gauge : kCodecGauges) {
    AddStatBridge(&m, "urm_storage_columns",
                  "Encoded catalog columns, by codec.",
                  obs::MetricType::kGauge, with_label("codec", gauge.label),
                  [storage, field = gauge.field] {
                    return static_cast<double>(storage->Get().*field);
                  });
  }
  AddStatBridge(&m, "urm_storage_bytes_scanned_total",
                "Bytes selections actually read: encoded bytes on the "
                "columnar path, touched-cell bytes on the row path.",
                obs::MetricType::kCounter, base, [this] {
                  return static_cast<double>(
                      bytes_scanned_.load(std::memory_order_relaxed));
                });
  AddStatBridge(&m, "urm_storage_logical_bytes_scanned_total",
                "Row-format bytes of the same scanned cells (the "
                "uncompressed cost of the scan mix).",
                obs::MetricType::kCounter, base, [this] {
                  return static_cast<double>(logical_bytes_scanned_.load(
                      std::memory_order_relaxed));
                });
  AddStatBridge(&m, "urm_storage_selection_scans_total",
                "Selections answered via codec-aware selection vectors "
                "on the encoded form.",
                obs::MetricType::kCounter, with_label("path", "columnar"),
                [this] {
                  return static_cast<double>(
                      columnar_scans_.load(std::memory_order_relaxed));
                });
  AddStatBridge(&m, "urm_storage_selection_scans_total",
                "Selections that fell back to the row-at-a-time loop.",
                obs::MetricType::kCounter, with_label("path", "row"),
                [this] {
                  return static_cast<double>(
                      row_scans_.load(std::memory_order_relaxed));
                });

  AddStatBridge(&m, "urm_pool_threads", "Worker threads in the pool.",
                obs::MetricType::kGauge, base,
                [this] { return static_cast<double>(pool_.stats().threads); });
  AddStatBridge(
      &m, "urm_pool_queue_depth", "Tasks queued and not yet started.",
      obs::MetricType::kGauge, base,
      [this] { return static_cast<double>(pool_.stats().queue_depth); });
  AddStatBridge(
      &m, "urm_pool_running_tasks", "Tasks currently executing.",
      obs::MetricType::kGauge, base,
      [this] { return static_cast<double>(pool_.stats().running_tasks); });
  AddStatBridge(
      &m, "urm_pool_tasks_executed_total", "Tasks completed by the pool.",
      obs::MetricType::kCounter, base,
      [this] { return static_cast<double>(pool_.stats().tasks_executed); });
}

QueryService::~QueryService() {
  // The stat bridges read members of this service at Collect time;
  // unregister them before any member is torn down. The pool drains in
  // ~pool_ afterwards — in-flight evaluations only touch pre-resolved
  // instruments, which live in the registry, not here.
  if (metrics_ != nullptr) {
    for (uint64_t id : metrics_->callback_ids) {
      metrics_->registry->RemoveCallback(id);
    }
  }
}

algebra::PlanFingerprint QueryService::Fingerprint(
    const core::Request& request) const {
  // The engine memoizes the mapping-set hash per reconfiguration
  // epoch, so fingerprinting is O(plan size), not O(h mappings). The
  // shard configuration is folded in (O(1), no shard materialization):
  // sharded and unsharded evaluations of the same request agree only
  // to ~1e-12, so their cached answers must not alias.
  return core::FingerprintRequest(
      request, mapping::ShardContextHash(
                   engine_->mapping_set_hash(),
                   static_cast<size_t>(std::max(options_.mapping_shards, 1))));
}

std::future<QueryResponse> QueryService::SubmitAsync(
    const core::Request& request, core::AnswerSink* sink,
    CompletionCallback callback) {
  Status valid = core::ValidateRequest(request);
  if (!valid.ok()) {
    QueryResponse response;
    response.status = valid;
    if (metrics_ != nullptr) {
      metrics_->requests[static_cast<size_t>(request.kind)][kError]
          ->Increment();
    }
    URM_LOG(Warn, "service")
        << core::RequestKindName(request.kind)
        << " request rejected: " << valid.message();
    // Same contract as an engine-side failure: the sink's completion
    // hook fires exactly once even when nothing was evaluated.
    if (sink != nullptr) sink->OnComplete(valid);
    if (callback) callback(response);
    return ReadyFuture(response);
  }
  return Dispatch(request, Fingerprint(request), sink, std::move(callback));
}

std::future<QueryResponse> QueryService::Dispatch(
    const core::Request& request, const algebra::PlanFingerprint& fp,
    core::AnswerSink* sink, CompletionCallback callback) {
  // Mapping-epoch invalidation hook: entries cached before a
  // reconfiguration are unreachable anyway (the fingerprint contains
  // the mapping-set hash); the fence frees their memory instead of
  // letting them age out through the LRU.
  cache_.FenceEpoch(engine_->mapping_epoch());
  if (sink == nullptr) {
    // Cache probe and in-flight lookup under one lock: a finishing
    // evaluation Puts before erasing its in-flight entry, so a
    // submitter always sees the response via one of the two — never a
    // duplicate evaluation. Both probes are O(1); evaluations never
    // run under mu_.
    std::unique_lock<std::mutex> lock(mu_);
    if (auto cached = cache_.Get(fp)) {
      lock.unlock();
      QueryResponse response;
      response.fingerprint = fp;
      response.response = std::move(cached);
      response.cache_hit = true;
      if (metrics_ != nullptr) {
        metrics_->requests[static_cast<size_t>(request.kind)][kCacheHit]
            ->Increment();
      }
      if (callback) callback(response);
      return ReadyFuture(response);
    }
    auto it = in_flight_.find(fp);
    if (it != in_flight_.end()) {
      Work::Subscriber subscriber;
      subscriber.callback = std::move(callback);
      subscriber.shared = true;
      auto future = subscriber.promise.get_future();
      it->second->subscribers.push_back(std::move(subscriber));
      if (metrics_ != nullptr) metrics_->dedup_joins->Increment();
      return future;
    }
    auto work = std::make_shared<Work>();
    work->request = request;
    work->fingerprint = fp;
    work->in_flight = true;
    work->submitted = std::chrono::steady_clock::now();
    Work::Subscriber subscriber;
    subscriber.callback = std::move(callback);
    auto future = subscriber.promise.get_future();
    work->subscribers.push_back(std::move(subscriber));
    in_flight_.emplace(fp, work);
    lock.unlock();
    if (metrics_ != nullptr) metrics_->in_flight->Add();
    pool_.Submit([this, work] { RunWork(work); });
    return future;
  }

  // Streaming requests: a cache hit that recorded its leaf trace is
  // replayed through the sink — same frames, no evaluation. Entries
  // without a trace (cached by a non-streaming submission) fall
  // through to a fresh evaluation, which records the trace and
  // republishes, upgrading the entry for the next streaming hit.
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto cached = cache_.Get(fp);
    lock.unlock();
    if (cached != nullptr && cached->leaves != nullptr) {
      QueryResponse response;
      response.fingerprint = fp;
      response.response = std::move(cached);
      response.cache_hit = true;
      if (metrics_ != nullptr) {
        metrics_->requests[static_cast<size_t>(request.kind)][kCacheHit]
            ->Increment();
      }
      bool subscribed = true;
      for (const auto& leaf : *response.response->leaves) {
        if (!subscribed) break;
        subscribed = sink->OnAnswer(leaf.rows, leaf.probability);
      }
      sink->OnComplete(Status::OK());
      if (callback) callback(response);
      return ReadyFuture(response);
    }
  }

  // Otherwise a streaming request is a private evaluation: no
  // in-flight sharing — the sink must observe every leaf of its own
  // fresh u-trace. The finished response (with the recorded trace) is
  // still published to the cache.
  auto work = std::make_shared<Work>();
  work->request = request;
  work->fingerprint = fp;
  work->sink = sink;
  work->submitted = std::chrono::steady_clock::now();
  Work::Subscriber subscriber;
  subscriber.callback = std::move(callback);
  auto future = subscriber.promise.get_future();
  work->subscribers.push_back(std::move(subscriber));
  if (metrics_ != nullptr) metrics_->in_flight->Add();
  pool_.Submit([this, work] { RunWork(work); });
  return future;
}

void QueryService::RunWork(const std::shared_ptr<Work>& work) {
  // The epoch this evaluation runs under; the post-evaluation cache
  // Put is epoch-checked so a response computed before a concurrent
  // reconfiguration's fence cannot repopulate the fenced cache.
  const uint64_t epoch = engine_->mapping_epoch();
  // Data provenance for delta-aware invalidation, captured BEFORE the
  // evaluation pins its catalog snapshot: the entry's recorded
  // data_epoch is then <= the epoch it actually read, so any delta
  // that could affect the response fences (or rejects the Put of) the
  // entry — conservative, never stale.
  const uint64_t data_epoch = engine_->data_epoch();
  std::vector<uint64_t> sources = engine_->SourceFootprint(work->request);
  core::Engine::EvalOptions eval;
  // Streaming evaluations stay sequential: the parallel o-sharing path
  // buffers leaves per partition and replays them only after the
  // barrier, which would push the first streamed answer to completion
  // time — the opposite of what a sink is for.
  eval.parallelism =
      work->sink != nullptr ? 1 : options_.intra_query_parallelism;
  // Sharded evaluation: the engine splits the mapping set into
  // contiguous renormalized shards and fans them out on the pool.
  // Streaming requests evaluate whole-set (a sharded merge has no
  // global leaf order to stream); the engine enforces the same rule,
  // but zeroing it here keeps the dispatch intent explicit.
  eval.mapping_shards =
      work->sink != nullptr ? 1 : options_.mapping_shards;
  eval.pool = &pool_;
  eval.sink = work->sink;
  const size_t kind_index = static_cast<size_t>(work->request.kind);
  // Time-to-first-leaf: wrap the caller's sink so the first streamed
  // answer stamps the first_answer histogram (the wrapper only needs
  // to outlive the synchronous evaluation in this frame).
  std::unique_ptr<FirstAnswerTimingSink> timing_sink;
  if (work->sink != nullptr && metrics_ != nullptr) {
    timing_sink = std::make_unique<FirstAnswerTimingSink>(
        work->sink, metrics_->first_answer[kind_index], work->submitted);
    eval.sink = timing_sink.get();
  }
  // Record the leaf trace alongside the response, so sink-bearing
  // cache hits replay the stream instead of re-evaluating (an empty
  // trace is meaningful too: non-streaming kinds replay as a bare
  // OnComplete, exactly like their fresh evaluation).
  std::unique_ptr<RecordingSink> recording_sink;
  if (work->sink != nullptr) {
    recording_sink = std::make_unique<RecordingSink>(eval.sink);
    eval.sink = recording_sink.get();
  }
  if (metrics_ != nullptr) eval.shard_metrics = &metrics_->shard;
  // Drop shared materializations from before a UseTopMappings
  // reconfiguration (entries are also epoch-keyed; the fence just
  // reclaims their memory promptly).
  operator_store_.FenceEpoch(epoch);
  eval.operator_store = &operator_store_;
  QueryResponse base;
  base.fingerprint = work->fingerprint;
  // An exception escaping the evaluation must not abandon the
  // subscribers' promises (future.get() would throw broken_promise and
  // callbacks / OnComplete would never fire); fold it into the
  // per-request status like any other evaluation failure.
  try {
    auto result = engine_->Run(work->request, eval);
    if (result.ok()) {
      core::Response evaluated = std::move(result).ValueOrDie();
      if (recording_sink != nullptr) {
        evaluated.leaves = recording_sink->TakeLeaves();
      }
      // Fold the evaluation's storage scan accounting into the
      // service-lifetime counters (every kind carries EvalStats).
      const algebra::EvalStats& stats =
          evaluated.kind == core::RequestKind::kTopK
              ? evaluated.top_k.stats
              : (evaluated.kind == core::RequestKind::kThreshold
                     ? evaluated.threshold.stats
                     : evaluated.evaluate.stats);
      bytes_scanned_.fetch_add(stats.bytes_scanned,
                               std::memory_order_relaxed);
      logical_bytes_scanned_.fetch_add(stats.logical_bytes_scanned,
                                       std::memory_order_relaxed);
      columnar_scans_.fetch_add(stats.columnar_scans,
                                std::memory_order_relaxed);
      row_scans_.fetch_add(stats.row_scans, std::memory_order_relaxed);
      base.response =
          std::make_shared<const core::Response>(std::move(evaluated));
    } else {
      base.status = result.status();
    }
  } catch (const std::exception& e) {
    base.status = Status::Internal(std::string("evaluation threw: ") +
                                   e.what());
    if (work->sink != nullptr) work->sink->OnComplete(base.status);
  } catch (...) {
    base.status = Status::Internal("evaluation threw");
    if (work->sink != nullptr) work->sink->OnComplete(base.status);
  }

  // Publish to the cache before the in-flight entry disappears, so a
  // concurrent Dispatch always sees the response one way or the other;
  // the cache has its own lock, keeping mu_'s critical section O(1).
  // Exception: on a shard-configured service a streaming evaluation
  // ran whole-set (sinks bypass sharding), so its response must not be
  // published under the shard-folded fingerprint — sharded and
  // unsharded answers agree only to ~1e-12 and their cache entries
  // must never alias.
  // A mapping reconfiguration mid-evaluation means this response was
  // computed under a mapping-set snapshot other than the one its
  // fingerprint names — never cache it (the check can only drop valid
  // entries, it never admits an invalid one).
  const bool epoch_stable = engine_->mapping_epoch() == epoch;
  const bool cacheable =
      (work->sink == nullptr || options_.mapping_shards <= 1) && epoch_stable;
  if (base.status.ok() && cacheable) {
    cache_.Put(work->fingerprint, base.response, epoch, std::move(sources),
               data_epoch);
  }
  std::vector<Work::Subscriber> subscribers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (work->in_flight) in_flight_.erase(work->fingerprint);
    subscribers = std::move(work->subscribers);
  }
  if (metrics_ != nullptr) {
    metrics_->in_flight->Sub();
    metrics_->latency[kind_index]->Observe(SecondsSince(work->submitted));
  }
  if (!base.status.ok()) {
    URM_LOG(Warn, "service")
        << core::RequestKindName(work->request.kind)
        << " evaluation failed: " << base.status.message();
  }
  for (auto& subscriber : subscribers) {
    QueryResponse response = base;
    response.shared_in_batch = subscriber.shared;
    if (metrics_ != nullptr) {
      const Outcome outcome = !base.status.ok()
                                  ? kError
                                  : (subscriber.shared ? kShared : kEvaluated);
      metrics_->requests[kind_index][outcome]->Increment();
    }
    // Callback strictly before the future is fulfilled: anything the
    // callback writes is visible to whoever unblocks from get().
    if (subscriber.callback) subscriber.callback(response);
    subscriber.promise.set_value(response);
  }
}

FenceOutcome QueryService::FenceCatalogDelta(
    const relational::ApplyResult& delta) {
  FenceOutcome outcome;
  if (delta.relations.empty()) return outcome;
  std::vector<uint64_t> changed;
  changed.reserve(delta.relations.size());
  for (const std::string& name : delta.relations) {
    changed.push_back(Fnv1a(name));
  }
  outcome.answers = cache_.FenceRelations(changed, delta.data_epoch);
  std::vector<const relational::Relation*> replaced;
  replaced.reserve(delta.replaced.size());
  for (const auto& rel : delta.replaced) replaced.push_back(rel.get());
  outcome.operators = operator_store_.FenceRelations(replaced);
  return outcome;
}

QueryResponse QueryService::Wait(std::future<QueryResponse> future) {
  // Helping drain keeps num_threads = 0 single-threaded semantics and
  // speeds batch waits: the submitting thread runs queued evaluations
  // instead of blocking.
  while (future.wait_for(std::chrono::seconds(0)) !=
         std::future_status::ready) {
    if (!pool_.TryRunOne()) {
      // Queue drained: the evaluation is running on another thread.
      future.wait();
    }
  }
  return future.get();
}

QueryResponse QueryService::Submit(const core::Request& request,
                                   core::AnswerSink* sink) {
  return Wait(SubmitAsync(request, sink));
}

std::vector<QueryResponse> QueryService::Submit(
    const std::vector<core::Request>& batch) {
  std::vector<QueryResponse> responses(batch.size());
  if (batch.empty()) return responses;

  // Fingerprint every request and dedup inside the batch: the first
  // occurrence of a fingerprint owns the dispatch, later occurrences
  // copy its response. Cross-batch sharing (cache, in-flight) is
  // handled by Dispatch.
  std::unordered_map<algebra::PlanFingerprint, size_t,
                     algebra::PlanFingerprintHash>
      first_of;
  std::vector<size_t> owner(batch.size(), SIZE_MAX);
  std::vector<std::future<QueryResponse>> futures(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    Status valid = core::ValidateRequest(batch[i]);
    if (!valid.ok()) {
      responses[i].status = valid;
      continue;
    }
    responses[i].fingerprint = Fingerprint(batch[i]);
    auto [it, inserted] = first_of.emplace(responses[i].fingerprint, i);
    owner[i] = it->second;
    if (inserted) {
      futures[i] = Dispatch(batch[i], responses[i].fingerprint, nullptr,
                            nullptr);
    }
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    if (owner[i] == i) responses[i] = Wait(std::move(futures[i]));
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    if (owner[i] == SIZE_MAX || owner[i] == i) continue;
    responses[i] = responses[owner[i]];
    // A duplicate of a cached request was served by the cache, not by
    // an in-batch evaluation.
    responses[i].shared_in_batch = !responses[i].cache_hit;
  }
  return responses;
}

}  // namespace service
}  // namespace urm
