#include "service/query_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <thread>

#include "core/workload.h"
#include "relational/value.h"

namespace urm {
namespace service {
namespace {

using core::Engine;
using core::Method;
using core::Request;
using core::WorkloadQuery;

/// Engines are expensive; build one per target schema and share.
Engine* SharedEngine(datagen::TargetSchemaId schema) {
  static std::map<datagen::TargetSchemaId, std::unique_ptr<Engine>> cache;
  auto it = cache.find(schema);
  if (it == cache.end()) {
    Engine::Options options;
    options.target_mb = 0.3;
    options.num_mappings = 24;
    options.target_schema = schema;
    auto engine = Engine::Create(options);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    it = cache.emplace(schema, std::move(engine).ValueOrDie()).first;
  }
  return it->second.get();
}

const Method kAllMethods[] = {Method::kBasic, Method::kEBasic,
                              Method::kEMqo, Method::kQSharing,
                              Method::kOSharing};

TEST(ParallelEvaluationTest, MatchesSequentialForAllMethodsOnWorkload) {
  ThreadPool pool(4);
  for (const WorkloadQuery& wq : core::PaperWorkload()) {
    Engine* engine = SharedEngine(wq.schema);
    Engine::EvalOptions eval;
    eval.parallelism = 4;
    eval.pool = &pool;
    for (Method method : kAllMethods) {
      const Request request = Request::MethodEval(wq.query, method);
      auto sequential = engine->Run(request);
      ASSERT_TRUE(sequential.ok())
          << wq.id << " " << MethodName(method) << ": "
          << sequential.status().ToString();
      auto parallel = engine->Run(request, eval);
      ASSERT_TRUE(parallel.ok())
          << wq.id << " " << MethodName(method) << ": "
          << parallel.status().ToString();
      const auto& seq = sequential.ValueOrDie().evaluate;
      const auto& par = parallel.ValueOrDie().evaluate;
      EXPECT_TRUE(seq.answers.ApproxEquals(par.answers, 1e-12))
          << wq.id << " " << MethodName(method) << "\nsequential:\n"
          << seq.answers.ToString() << "parallel:\n"
          << par.answers.ToString();
      EXPECT_EQ(seq.answers.size(), par.answers.size())
          << wq.id << " " << MethodName(method);
      EXPECT_EQ(seq.partitions, par.partitions)
          << wq.id << " " << MethodName(method);
      EXPECT_EQ(seq.source_queries, par.source_queries)
          << wq.id << " " << MethodName(method);
    }
  }
}

TEST(ParallelEvaluationTest, OSharingParallelLeafCountsMatchSequential) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  ThreadPool pool(3);
  Engine::EvalOptions eval;
  eval.parallelism = 3;
  eval.pool = &pool;
  const auto request =
      Request::MethodEval(core::QueryById("Q4").query, Method::kOSharing);
  auto seq = engine->Run(request);
  auto par = engine->Run(request, eval);
  ASSERT_TRUE(seq.ok() && par.ok());
  EXPECT_EQ(seq.ValueOrDie().evaluate.source_queries,
            par.ValueOrDie().evaluate.source_queries);
  EXPECT_EQ(seq.ValueOrDie().evaluate.stats.operators_executed,
            par.ValueOrDie().evaluate.stats.operators_executed);
}

TEST(QueryServiceTest, CacheMissThenHit) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  ServiceOptions options;
  options.num_threads = 2;
  QueryService service(engine, options);

  auto request =
      Request::MethodEval(core::QueryById("Q1").query, Method::kQSharing);
  auto first = service.Submit(request);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  ASSERT_NE(first.response, nullptr);
  EXPECT_FALSE(first.cache_hit);

  auto second = service.Submit(request);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  // Zero-copy: the cached Response object is shared.
  EXPECT_EQ(first.response.get(), second.response.get());

  CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);

  // Duplicates of a cached plan report cache provenance, not in-batch
  // sharing.
  auto batch = service.Submit(std::vector<Request>{request, request});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch[0].cache_hit);
  EXPECT_TRUE(batch[1].cache_hit);
  EXPECT_FALSE(batch[1].shared_in_batch);
}

TEST(QueryServiceTest, BatchDeduplicatesStructurallyIdenticalPlans) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  ServiceOptions options;
  options.num_threads = 2;
  QueryService service(engine, options);

  // Two plans built independently (each PaperWorkload call rebuilds
  // the trees) are structurally identical and must share one
  // evaluation.
  const auto first_build = core::PaperWorkload();
  const auto second_build = core::PaperWorkload();
  std::vector<Request> batch = {
      Request::MethodEval(first_build[1].query, Method::kOSharing),   // Q2
      Request::MethodEval(first_build[2].query, Method::kOSharing),   // Q3
      Request::MethodEval(second_build[1].query, Method::kOSharing),  // Q2
  };
  auto responses = service.Submit(batch);
  ASSERT_EQ(responses.size(), 3u);
  for (const auto& r : responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_NE(r.response, nullptr);
  }
  EXPECT_EQ(responses[0].fingerprint, responses[2].fingerprint);
  EXPECT_NE(responses[0].fingerprint, responses[1].fingerprint);
  EXPECT_FALSE(responses[0].shared_in_batch);
  EXPECT_TRUE(responses[2].shared_in_batch);
  EXPECT_EQ(responses[0].response.get(), responses[2].response.get());
  // Only two distinct evaluations hit the cache as misses.
  EXPECT_EQ(service.cache_stats().misses, 2u);
  EXPECT_EQ(service.cache_stats().entries, 2u);
}

TEST(QueryServiceTest, BatchAnswersMatchDirectEngineEvaluation) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  ServiceOptions options;
  options.num_threads = 3;
  options.intra_query_parallelism = 2;
  QueryService service(engine, options);

  std::vector<Request> batch;
  for (const char* id : {"Q1", "Q2", "Q3", "Q4", "Q5"}) {
    for (Method method : kAllMethods) {
      batch.push_back(Request::MethodEval(core::QueryById(id).query, method));
    }
  }
  auto responses = service.Submit(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok())
        << responses[i].status.ToString();
    auto direct = engine->Run(batch[i]);
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(direct.ValueOrDie().evaluate.answers.ApproxEquals(
        responses[i].response->evaluate.answers, 1e-9))
        << "request " << i;
  }
}

TEST(QueryServiceTest, CacheKeyedByMethod) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  QueryService service(engine, ServiceOptions{});
  auto as_basic =
      Request::MethodEval(core::QueryById("Q1").query, Method::kBasic);
  auto as_osharing =
      Request::MethodEval(core::QueryById("Q1").query, Method::kOSharing);
  EXPECT_NE(service.Fingerprint(as_basic), service.Fingerprint(as_osharing));
  auto first = service.Submit(as_basic);
  auto second = service.Submit(as_osharing);
  ASSERT_TRUE(first.status.ok() && second.status.ok());
  EXPECT_FALSE(second.cache_hit);
}

TEST(QueryServiceTest, CacheKeyedByMappingSet) {
  // A private engine: UseTopMappings must not disturb the shared one.
  Engine::Options engine_options;
  engine_options.target_mb = 0.05;
  engine_options.num_mappings = 8;
  auto owned = Engine::Create(engine_options);
  ASSERT_TRUE(owned.ok()) << owned.status().ToString();
  Engine* engine = owned.ValueOrDie().get();

  QueryService service(engine, ServiceOptions{});
  auto request =
      Request::MethodEval(core::QueryById("Q4").query, Method::kQSharing);
  auto fp_before = service.Fingerprint(request);
  ASSERT_TRUE(service.Submit(request).status.ok());
  engine->UseTopMappings(4);
  EXPECT_NE(service.Fingerprint(request), fp_before);
  auto after = service.Submit(request);
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.cache_hit);  // reconfiguration invalidates by key
}

TEST(QueryServiceTest, EvictionRespectsCapacity) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  ServiceOptions options;
  options.num_threads = 0;
  options.cache_capacity = 2;
  QueryService service(engine, options);
  for (const char* id : {"Q1", "Q2", "Q3"}) {
    ASSERT_TRUE(service
                    .Submit(Request::MethodEval(core::QueryById(id).query,
                                                Method::kQSharing))
                    .status.ok());
  }
  CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  // Q1 was evicted (LRU), Q3 still resident.
  EXPECT_FALSE(service
                   .Submit(Request::MethodEval(core::QueryById("Q1").query,
                                               Method::kQSharing))
                   .cache_hit);
  EXPECT_TRUE(service
                  .Submit(Request::MethodEval(core::QueryById("Q3").query,
                                              Method::kQSharing))
                  .cache_hit);
}

TEST(QueryServiceTest, PerRequestErrorsDoNotFailTheBatch) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  QueryService service(engine, ServiceOptions{});
  auto bogus = algebra::MakeSelect(
      algebra::MakeScan("no_such_table", "x"),
      algebra::Predicate::AttrCmpValue("x.a", algebra::CmpOp::kEq,
                                       relational::Value(1)));
  std::vector<Request> batch = {
      Request::MethodEval(bogus, Method::kBasic),
      Request::MethodEval(core::QueryById("Q1").query, Method::kBasic),
      Request::MethodEval(nullptr, Method::kBasic),
  };
  auto responses = service.Submit(batch);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(responses[0].status.ok());
  EXPECT_EQ(responses[0].response, nullptr);
  EXPECT_TRUE(responses[1].status.ok());
  ASSERT_NE(responses[1].response, nullptr);
  EXPECT_FALSE(responses[2].status.ok());
}

/// Fabricates an evaluate Response whose AnswerSet weighs roughly
/// `approx_bytes` (int64 rows at 8 bytes + 8 for the probability).
std::shared_ptr<const core::Response> ResponseOfBytes(size_t approx_bytes) {
  auto response = std::make_shared<core::Response>();
  response->kind = core::RequestKind::kEvaluate;
  response->evaluate.answers = reformulation::AnswerSet({"v"});
  for (size_t i = 0; i * 16 < approx_bytes; ++i) {
    response->evaluate.answers.Add(
        {relational::Value(static_cast<int64_t>(i))}, 0.1);
  }
  return response;
}

algebra::PlanFingerprint FingerprintOf(uint64_t seed) {
  algebra::PlanFingerprint fp;
  fp.plan_hash = seed;
  return fp;
}

/// Puts a fabricated ~`bytes` answer under key `key`, computed at
/// mapping epoch `epoch` and catalog data epoch `data_epoch` over the
/// source relations `sources` (empty = depends on every relation).
void PutAnswer(AnswerCache* cache, uint64_t key, size_t bytes,
               uint64_t epoch = 0, std::vector<uint64_t> sources = {},
               uint64_t data_epoch = 0) {
  cache->Put(FingerprintOf(key), ResponseOfBytes(bytes), epoch,
             std::move(sources), data_epoch);
}

TEST(AnswerCacheTest, EvictsByAnswerBytesNotEntryCount) {
  AnswerCacheOptions options;
  options.capacity_entries = 100;  // entry bound alone would keep all
  options.capacity_bytes = 1024;
  AnswerCache cache(options);
  // Three ~480-byte answers blow a 1 KB budget at the third Put.
  PutAnswer(&cache, 1, 480);
  PutAnswer(&cache, 2, 480);
  PutAnswer(&cache, 3, 480);
  CacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, 1024u + sizeof(core::Response));
  EXPECT_EQ(cache.Get(FingerprintOf(1)), nullptr);      // LRU victim
  EXPECT_NE(cache.Get(FingerprintOf(3)), nullptr);
}

TEST(AnswerCacheTest, OversizedAnswerStillServesRepeats) {
  AnswerCacheOptions options;
  options.capacity_entries = 4;
  options.capacity_bytes = 64;  // smaller than any real answer
  AnswerCache cache(options);
  PutAnswer(&cache, 1, 512);
  // The newest entry is never evicted by the byte bound, so a repeat
  // of even an over-budget answer is a hit.
  EXPECT_NE(cache.Get(FingerprintOf(1)), nullptr);
}

TEST(AnswerCacheTest, TtlExpiresEntries) {
  AnswerCacheOptions options;
  options.capacity_entries = 8;
  options.ttl_seconds = 0.02;
  AnswerCache cache(options);
  PutAnswer(&cache, 1, 64);
  EXPECT_NE(cache.Get(FingerprintOf(1)), nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_EQ(cache.Get(FingerprintOf(1)), nullptr);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.expirations, 1u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(AnswerCacheTest, FenceEpochInvalidates) {
  AnswerCache cache(AnswerCacheOptions{});
  PutAnswer(&cache, 1, 64);
  cache.FenceEpoch(0);  // initial epoch: no-op
  EXPECT_EQ(cache.stats().entries, 1u);
  cache.FenceEpoch(1);  // reconfiguration
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(AnswerCacheTest, FenceEpochIsForwardOnly) {
  AnswerCache cache(AnswerCacheOptions{});
  cache.FenceEpoch(2);
  PutAnswer(&cache, 1, 64, /*epoch=*/2);
  EXPECT_EQ(cache.stats().entries, 1u);
  // A stale worker fencing late must not clear newer-epoch entries.
  cache.FenceEpoch(1);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(AnswerCacheTest, StaleEpochPutDoesNotRepopulateFencedCache) {
  AnswerCache cache(AnswerCacheOptions{});
  cache.FenceEpoch(1);  // reconfiguration fenced mid-evaluation
  // A response computed under epoch 0 must be dropped: its fingerprint
  // is unreachable by any current-epoch request, and no future
  // FenceEpoch(1) would ever drop it.
  PutAnswer(&cache, 1, 64, /*epoch=*/0);
  EXPECT_EQ(cache.stats().entries, 0u);
  PutAnswer(&cache, 2, 64, /*epoch=*/1);
  EXPECT_EQ(cache.stats().entries, 1u);
  // The mapping-epoch check holds whatever the data provenance: a
  // footprinted response at a current data epoch is still dropped.
  PutAnswer(&cache, 3, 64, /*epoch=*/0, /*sources=*/{10}, /*data_epoch=*/5);
  EXPECT_EQ(cache.Get(FingerprintOf(3)), nullptr);
}

TEST(AnswerCacheTest, FenceRelationsDropsOnlyIntersectingSources) {
  AnswerCache cache(AnswerCacheOptions{});
  PutAnswer(&cache, 1, 64, 0, /*sources=*/{10});
  PutAnswer(&cache, 2, 64, 0, /*sources=*/{20});
  PutAnswer(&cache, 3, 64, 0, /*sources=*/{10, 30});
  EXPECT_EQ(cache.FenceRelations(/*changed=*/{10}, /*data_epoch=*/1), 2u);
  EXPECT_EQ(cache.Get(FingerprintOf(1)), nullptr);
  EXPECT_NE(cache.Get(FingerprintOf(2)), nullptr);  // disjoint: survives
  EXPECT_EQ(cache.Get(FingerprintOf(3)), nullptr);
  EXPECT_EQ(cache.stats().relation_fenced, 2u);
}

TEST(AnswerCacheTest, EmptyFootprintIsDroppedByAnyRelationChange) {
  AnswerCache cache(AnswerCacheOptions{});
  PutAnswer(&cache, 1, 64, 0, /*sources=*/{});
  PutAnswer(&cache, 2, 64, 0, /*sources=*/{20});
  EXPECT_EQ(cache.FenceRelations(/*changed=*/{99}, /*data_epoch=*/1), 1u);
  EXPECT_EQ(cache.Get(FingerprintOf(1)), nullptr);
  EXPECT_NE(cache.Get(FingerprintOf(2)), nullptr);
}

TEST(AnswerCacheTest, PreDeltaPutArrivingAfterFenceIsRejected) {
  AnswerCache cache(AnswerCacheOptions{});
  // The delta producing data epoch 1 touched relation 10 before a
  // response computed at data epoch 0 reached the cache.
  EXPECT_EQ(cache.FenceRelations(/*changed=*/{10}, /*data_epoch=*/1), 0u);
  PutAnswer(&cache, 1, 64, 0, /*sources=*/{10}, /*data_epoch=*/0);
  PutAnswer(&cache, 2, 64, 0, /*sources=*/{}, /*data_epoch=*/0);
  EXPECT_EQ(cache.stats().entries, 0u);  // both may have read stale rows
  // A disjoint footprint, or a response computed after the delta, is
  // still admitted.
  PutAnswer(&cache, 3, 64, 0, /*sources=*/{20}, /*data_epoch=*/0);
  PutAnswer(&cache, 4, 64, 0, /*sources=*/{10}, /*data_epoch=*/1);
  EXPECT_NE(cache.Get(FingerprintOf(3)), nullptr);
  EXPECT_NE(cache.Get(FingerprintOf(4)), nullptr);
}

TEST(QueryServiceTest, ReconfigurationFencesAnswerCache) {
  Engine::Options engine_options;
  engine_options.target_mb = 0.05;
  engine_options.num_mappings = 8;
  auto owned = Engine::Create(engine_options);
  ASSERT_TRUE(owned.ok()) << owned.status().ToString();
  Engine* engine = owned.ValueOrDie().get();

  QueryService service(engine, ServiceOptions{});
  auto request =
      Request::MethodEval(core::QueryById("Q1").query, Method::kQSharing);
  ASSERT_TRUE(service.Submit(request).status.ok());
  EXPECT_EQ(service.cache_stats().entries, 1u);
  engine->UseTopMappings(4);
  // The next dispatch notices the epoch change and drops the (already
  // unreachable) pre-reconfiguration entries.
  ASSERT_TRUE(service.Submit(request).status.ok());
  EXPECT_EQ(service.cache_stats().entries, 1u);
  EXPECT_EQ(service.cache_stats().evictions, 0u);
}

TEST(QueryServiceTest, ZeroCapacityDisablesCaching) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  ServiceOptions options;
  options.cache_capacity = 0;
  QueryService service(engine, options);
  auto request =
      Request::MethodEval(core::QueryById("Q1").query, Method::kQSharing);
  ASSERT_TRUE(service.Submit(request).status.ok());
  EXPECT_FALSE(service.Submit(request).cache_hit);
  EXPECT_EQ(service.cache_stats().entries, 0u);
}

/// Records every leaf (row count + probability) for the replay tests.
struct CollectingSink : core::AnswerSink {
  std::vector<std::pair<size_t, double>> leaves;
  bool complete = false;
  bool OnAnswer(const std::vector<relational::Row>& rows,
                double probability) override {
    leaves.emplace_back(rows.size(), probability);
    return true;
  }
  void OnComplete(const Status& status) override {
    EXPECT_TRUE(status.ok()) << status.ToString();
    complete = true;
  }
};

TEST(QueryServiceTest, StreamingCacheHitReplaysLeafSequence) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  ServiceOptions options;
  options.num_threads = 2;
  QueryService service(engine, options);
  core::Request request = core::Request::MethodEval(
      core::QueryById("Q1").query, Method::kOSharing);

  CollectingSink first;
  QueryResponse miss = service.SubmitAsync(request, &first).get();
  ASSERT_TRUE(miss.status.ok()) << miss.status.ToString();
  EXPECT_FALSE(miss.cache_hit);
  ASSERT_TRUE(first.complete);
  ASSERT_FALSE(first.leaves.empty());
  ASSERT_NE(miss.response->leaves, nullptr);
  EXPECT_EQ(miss.response->leaves->size(), first.leaves.size());

  // Second sink-bearing submission: served from cache, but the sink
  // still sees the identical leaf stream (replayed, not re-evaluated).
  CollectingSink second;
  QueryResponse hit = service.SubmitAsync(request, &second).get();
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_TRUE(second.complete);
  ASSERT_EQ(second.leaves.size(), first.leaves.size());
  for (size_t i = 0; i < first.leaves.size(); ++i) {
    EXPECT_EQ(second.leaves[i].first, first.leaves[i].first) << i;
    EXPECT_DOUBLE_EQ(second.leaves[i].second, first.leaves[i].second) << i;
  }
  EXPECT_TRUE(miss.response->evaluate.answers.ApproxEquals(
      hit.response->evaluate.answers, 1e-12));
  EXPECT_GE(service.cache_stats().hits, 1u);
}

TEST(QueryServiceTest, ReplayHonorsSinkUnsubscribe) {
  /// Unsubscribes after the first leaf; completion must still fire.
  struct OneLeafSink : core::AnswerSink {
    size_t seen = 0;
    bool complete = false;
    bool OnAnswer(const std::vector<relational::Row>&, double) override {
      ++seen;
      return false;
    }
    void OnComplete(const Status&) override { complete = true; }
  };
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  ServiceOptions options;
  options.num_threads = 2;
  QueryService service(engine, options);
  core::Request request = core::Request::MethodEval(
      core::QueryById("Q2").query, Method::kOSharing);
  CollectingSink warm;
  ASSERT_TRUE(service.SubmitAsync(request, &warm).get().status.ok());
  ASSERT_GT(warm.leaves.size(), 1u) << "need a multi-leaf query";

  OneLeafSink sink;
  QueryResponse hit = service.SubmitAsync(request, &sink).get();
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(sink.seen, 1u);
  EXPECT_TRUE(sink.complete);
}

TEST(QueryServiceTest, NonStreamingSubmissionsDoNotRecordLeaves) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  ServiceOptions options;
  options.num_threads = 2;
  QueryService service(engine, options);
  core::Request request = core::Request::MethodEval(
      core::QueryById("Q3").query, Method::kOSharing);
  QueryResponse plain = service.SubmitAsync(request).get();
  ASSERT_TRUE(plain.status.ok());
  EXPECT_EQ(plain.response->leaves, nullptr);

  // A later sink-bearing submission of the same request finds a
  // leafless entry, evaluates fresh, and upgrades the cache entry.
  CollectingSink sink;
  QueryResponse streamed = service.SubmitAsync(request, &sink).get();
  ASSERT_TRUE(streamed.status.ok());
  EXPECT_FALSE(streamed.cache_hit);
  EXPECT_TRUE(sink.complete);
  CollectingSink replayed;
  QueryResponse hit = service.SubmitAsync(request, &replayed).get();
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(replayed.leaves.size(), sink.leaves.size());
}

}  // namespace
}  // namespace service
}  // namespace urm
