/// \file live_catalog_test.cc
/// Live catalogs under traffic: the delta-ingest subsystem
/// (relational::Catalog::ApplyDelta + live::IngestController) and its
/// delta-aware cache invalidation, proven by a differential
/// consistency harness.
///
/// Three contracts under test:
///  * **differential consistency** — random delta batches applied
///    incrementally (with queries interleaved between batches, hitting
///    and missing the answer cache) leave the serving stack
///    bit-identical to a fresh engine rebuilt from the final state,
///    for all four request kinds, across row vs columnar backing and
///    S ∈ {1, 4} mapping shards;
///  * **delta-aware fencing** — a delta fences exactly the cached
///    answers whose source relations it touched: entries over
///    untouched relations keep serving hits, and a fenced entry is
///    never served again;
///  * **batch encoding** — a delta batch (and the batched AddRows
///    fixture path) re-encodes each touched relation's columnar
///    backing exactly once, never once per row.
///
/// The ConcurrentIngestStress case runs under TSan in CI alongside the
/// service suites: concurrent ingest, sync/async/streaming queries,
/// mapping hot-reconfiguration, metric scrapes, and stats reads, with
/// every response checked against the set of answers reachable from
/// some prefix of the delta sequence under some active mapping set.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algebra/expr.h"
#include "columnar/columnar_relation.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "live/ingest.h"
#include "obs/metrics.h"
#include "relational/catalog.h"
#include "relational/delta.h"
#include "relational/relation.h"
#include "service/query_service.h"
#include "tests/paper_fixture.h"

namespace urm {
namespace live {
namespace {

using algebra::CmpOp;
using algebra::MakeProject;
using algebra::MakeScan;
using algebra::MakeSelect;
using algebra::PlanPtr;
using algebra::Predicate;
using reformulation::AnswerSet;
using relational::DeltaBatch;
using relational::DeltaOp;
using relational::DeltaOpKind;
using relational::Relation;
using relational::Row;
using relational::RowsEqual;

// ---------------------------------------------------------------------------
// Plans over the paper fixture's target schema.

/// π_phone σ_addr=c Person (the paper's qa for c = 'aaa').
PlanPtr PhoneByAddr(const std::string& c) {
  return MakeProject(
      MakeSelect(MakeScan("Person", "person"),
                 Predicate::AttrCmpValue("person.addr", CmpOp::kEq, c)),
      {"person.phone"});
}

/// π_addr σ_phone='123' Person (the paper's q0).
PlanPtr AddrByPhone() {
  return MakeProject(
      MakeSelect(MakeScan("Person", "person"),
                 Predicate::AttrCmpValue("person.phone", CmpOp::kEq, "123")),
      {"person.addr"});
}

/// π_nation σ_addr=c Person — its footprint spans customer AND nation
/// (Person.nation maps from nation.nname), unlike the two above which
/// read customer only.
PlanPtr NationByAddr(const std::string& c) {
  return MakeProject(
      MakeSelect(MakeScan("Person", "person"),
                 Predicate::AttrCmpValue("person.addr", CmpOp::kEq, c)),
      {"person.nation"});
}

/// One request of every kind (the differential harness' probe set).
std::vector<core::Request> AllKindRequests() {
  std::vector<core::Request> out;
  out.push_back(
      core::Request::MethodEval(PhoneByAddr("aaa"), core::Method::kOSharing));
  out.push_back(core::Request::MethodEval(AddrByPhone(), core::Method::kBasic));
  out.push_back(core::Request::MethodEval(NationByAddr("hk"),
                                          core::Method::kQSharing));
  out.push_back(core::Request::TopK(PhoneByAddr("aaa"), 10));
  out.push_back(core::Request::SetOp(PhoneByAddr("aaa"), AddrByPhone(),
                                     core::SetOpKind::kUnion));
  out.push_back(
      core::Request::Threshold(PhoneByAddr("aaa"), std::ldexp(1.0, -40)));
  return out;
}

// ---------------------------------------------------------------------------
// Bit-identity comparison (same contract as columnar_test).

void ExpectAnswersBitIdentical(const AnswerSet& a, const AnswerSet& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.null_probability(), b.null_probability());
  auto sa = a.Sorted();
  auto sb = b.Sorted();
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_TRUE(RowsEqual(sa[i].values, sb[i].values)) << "row " << i;
    EXPECT_EQ(sa[i].probability, sb[i].probability) << "row " << i;
  }
}

void ExpectResponsesBitIdentical(const core::Response& a,
                                 const core::Response& b) {
  ASSERT_EQ(a.kind, b.kind);
  switch (a.kind) {
    case core::RequestKind::kTopK: {
      ASSERT_EQ(a.top_k.tuples.size(), b.top_k.tuples.size());
      for (size_t i = 0; i < a.top_k.tuples.size(); ++i) {
        EXPECT_TRUE(
            RowsEqual(a.top_k.tuples[i].values, b.top_k.tuples[i].values));
        EXPECT_EQ(a.top_k.tuples[i].lower_bound,
                  b.top_k.tuples[i].lower_bound);
        EXPECT_EQ(a.top_k.tuples[i].upper_bound,
                  b.top_k.tuples[i].upper_bound);
      }
      break;
    }
    case core::RequestKind::kThreshold: {
      ASSERT_EQ(a.threshold.tuples.size(), b.threshold.tuples.size());
      for (size_t i = 0; i < a.threshold.tuples.size(); ++i) {
        EXPECT_TRUE(RowsEqual(a.threshold.tuples[i].values,
                              b.threshold.tuples[i].values));
        EXPECT_EQ(a.threshold.tuples[i].lower_bound,
                  b.threshold.tuples[i].lower_bound);
        EXPECT_EQ(a.threshold.tuples[i].upper_bound,
                  b.threshold.tuples[i].upper_bound);
      }
      break;
    }
    default:
      ExpectAnswersBitIdentical(a.evaluate.answers, b.evaluate.answers);
      break;
  }
}

/// Canonical string form of a response — exact, including the bit
/// pattern of every probability/bound — so the stress test can check
/// set membership across threads without gtest assertions racing.
std::string HexBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

std::string CanonRow(const Row& row) {
  std::string out = "(";
  for (const relational::Value& v : row) {
    switch (v.type()) {
      case relational::ValueType::kNull: out += "@null"; break;
      case relational::ValueType::kInt64:
        out += std::to_string(v.AsInt64());
        break;
      case relational::ValueType::kDouble: out += HexBits(v.AsDouble()); break;
      case relational::ValueType::kString: out += v.AsString(); break;
    }
    out += "|";
  }
  return out + ")";
}

std::string Canon(const core::Response& response) {
  std::string out = core::RequestKindName(response.kind);
  switch (response.kind) {
    case core::RequestKind::kTopK:
      for (const auto& t : response.top_k.tuples) {
        out += CanonRow(t.values) + HexBits(t.lower_bound) +
               HexBits(t.upper_bound);
      }
      break;
    case core::RequestKind::kThreshold:
      for (const auto& t : response.threshold.tuples) {
        out += CanonRow(t.values) + HexBits(t.lower_bound) +
               HexBits(t.upper_bound);
      }
      break;
    default: {
      out += HexBits(response.evaluate.answers.null_probability());
      for (const auto& t : response.evaluate.answers.Sorted()) {
        out += CanonRow(t.values) + HexBits(t.probability);
      }
      break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Shadow model + random batches.

/// Row images per relation — the reference state the harness mutates in
/// lockstep with the live catalog, mirroring ApplyDelta's exact
/// semantics (insert appends; update/delete affect every equal row; row
/// order is preserved) so a rebuild is bit-identical, not just
/// set-equal.
using Shadow = std::map<std::string, std::vector<Row>>;

void ApplyToShadow(const DeltaBatch& batch, Shadow* shadow) {
  for (const DeltaOp& op : batch.ops) {
    std::vector<Row>& rows = (*shadow)[op.relation];
    switch (op.kind) {
      case DeltaOpKind::kInsert:
        rows.push_back(op.row);
        break;
      case DeltaOpKind::kUpdate:
        for (Row& row : rows) {
          if (RowsEqual(row, op.row)) row = op.new_row;
        }
        break;
      case DeltaOpKind::kDelete:
        rows.erase(std::remove_if(rows.begin(), rows.end(),
                                  [&op](const Row& row) {
                                    return RowsEqual(row, op.row);
                                  }),
                   rows.end());
        break;
    }
  }
}

class LiveCatalogTest : public ::testing::Test {
 protected:
  LiveCatalogTest() : ex_(urm::testing::MakePaperExample()) {}

  /// 8 mappings at exactly-representable probability 2^-3 so every
  /// shard renormalization is exact and S=1 == S=4 bitwise.
  std::vector<mapping::Mapping> DyadicMappings() const {
    std::vector<mapping::Mapping> out;
    for (size_t i = 0; i < 8; ++i) {
      mapping::Mapping m = ex_.mappings[i % ex_.mappings.size()];
      m.set_probability(0.125);
      m.set_score(0.125);
      out.push_back(std::move(m));
    }
    return out;
  }

  Shadow InitialShadow() const {
    Shadow shadow;
    for (const auto& name : ex_.catalog.Names()) {
      shadow[name] = ex_.catalog.Get(name).ValueOrDie()->rows();
    }
    return shadow;
  }

  /// A catalog holding `shadow`'s rows, columnar-encoded or pure-row.
  relational::Catalog CatalogFrom(const Shadow& shadow, bool columnar) const {
    relational::Catalog catalog;
    catalog.set_auto_encode(columnar);
    for (const auto& [name, rows] : shadow) {
      auto schema = ex_.catalog.Get(name).ValueOrDie()->schema();
      catalog.Put(name,
                  std::make_shared<const Relation>(std::move(schema), rows));
    }
    return catalog;
  }

  std::unique_ptr<core::Engine> MakeEngine(
      relational::Catalog catalog,
      std::vector<mapping::Mapping> mappings) const {
    core::Engine::Options options;
    options.strategy = osharing::StrategyKind::kSEF;
    return core::Engine::FromParts(std::move(catalog), ex_.source_schema,
                                   ex_.target_schema, std::move(mappings),
                                   options);
  }

  /// One random batch against `shadow`'s current state: 1-5 ops over
  /// one relation (a realistic trickle touches one relation per
  /// batch), mixing inserts, updates, and deletes. The shadow is NOT
  /// mutated — callers apply the batch to both sides themselves.
  DeltaBatch RandomBatch(std::mt19937* rng, const Shadow& shadow) {
    static const char* kPhones[] = {"123", "456", "789", "555"};
    static const char* kAddrs[] = {"aaa", "bbb", "hk", "ccc"};
    static const char* kAmounts[] = {"100", "250", "77"};
    static const char* kNations[] = {"HongKong", "China", "Norway"};
    auto pick = [rng](auto& pool) {
      return pool[(*rng)() % (sizeof(pool) / sizeof(pool[0]))];
    };
    static const char* kRelations[] = {"customer", "customer", "c_order",
                                       "nation"};
    const std::string relation = pick(kRelations);

    // Ops within the batch see earlier ops' effects (ApplyDelta applies
    // them in order), so track a local copy for update/delete images.
    std::vector<Row> rows = shadow.count(relation) > 0
                                ? shadow.at(relation)
                                : std::vector<Row>();
    DeltaBatch batch;
    const size_t num_ops = 1 + (*rng)() % 5;
    for (size_t i = 0; i < num_ops; ++i) {
      DeltaOp op;
      op.relation = relation;
      const uint32_t dice = (*rng)() % 4;
      if (dice == 0 || rows.empty()) {
        op.kind = DeltaOpKind::kInsert;
        const std::string id = std::to_string(++serial_);
        if (relation == "customer") {
          op.row = {"c" + id,        "Name" + id,   pick(kPhones),
                    pick(kPhones),   pick(kPhones), pick(kAddrs),
                    pick(kAddrs),    ((*rng)() % 2) ? "n1" : "n2"};
        } else if (relation == "c_order") {
          op.row = {"o" + id, "t" + std::to_string(1 + (*rng)() % 3),
                    pick(kAmounts)};
        } else {
          op.row = {"n" + id, pick(kNations)};
        }
        rows.push_back(op.row);
      } else if (dice == 1) {
        op.kind = DeltaOpKind::kUpdate;
        op.row = rows[(*rng)() % rows.size()];
        op.new_row = op.row;
        // Mutate one non-key cell (keep cell 0, the id-ish column, so
        // updates often leave near-duplicates for RowsEqual to group).
        const size_t cell = 1 + (*rng)() % (op.row.size() - 1);
        if (relation == "customer") {
          op.new_row[cell] = relational::Value(
              cell >= 5 && cell <= 6 ? pick(kAddrs) : pick(kPhones));
        } else if (relation == "c_order") {
          op.new_row[cell] = relational::Value(pick(kAmounts));
        } else {
          op.new_row[cell] = relational::Value(pick(kNations));
        }
        for (Row& row : rows) {
          if (RowsEqual(row, op.row)) row = op.new_row;
        }
      } else {
        op.kind = DeltaOpKind::kDelete;
        op.row = rows[(*rng)() % rows.size()];
        rows.erase(std::remove_if(rows.begin(), rows.end(),
                                  [&op](const Row& row) {
                                    return RowsEqual(row, op.row);
                                  }),
                   rows.end());
      }
      batch.ops.push_back(std::move(op));
    }
    return batch;
  }

  urm::testing::PaperExample ex_;
  uint64_t serial_ = 0;
};

// ---------------------------------------------------------------------------
// Differential consistency: incremental == rebuild, bitwise.

TEST_F(LiveCatalogTest, DifferentialIncrementalVsRebuild) {
  const std::vector<core::Request> requests = AllKindRequests();
  for (const bool columnar : {false, true}) {
    SCOPED_TRACE(columnar ? "columnar backing" : "row backing");
    std::mt19937 rng(20260809u);
    Shadow shadow = InitialShadow();
    auto live = MakeEngine(CatalogFrom(shadow, columnar), DyadicMappings());
    ASSERT_EQ(columnar,
              live->catalog().Get("customer").ValueOrDie()->ColumnarIfEncoded()
                  != nullptr);

    service::ServiceOptions service_options;
    service_options.num_threads = 2;
    service_options.enable_metrics = false;
    service::QueryService service(live.get(), service_options);
    IngestOptions ingest_options;
    ingest_options.enable_metrics = false;
    IngestController controller(live.get(), &service, ingest_options);

    uint64_t last_epoch = live->data_epoch();
    for (int b = 0; b < 8; ++b) {
      // Interleaved traffic: twice per request, so the second Submit
      // can hit the cache — and every response (cached or fresh) must
      // be bit-identical to a direct evaluation of the current state.
      for (int rep = 0; rep < 2; ++rep) {
        for (const core::Request& request : requests) {
          auto response = service.Submit(request);
          ASSERT_TRUE(response.status.ok()) << response.status.ToString();
          auto direct = live->Run(request);
          ASSERT_TRUE(direct.ok()) << direct.status().ToString();
          ExpectResponsesBitIdentical(*response.response,
                                      direct.ValueOrDie());
        }
      }
      DeltaBatch batch = RandomBatch(&rng, shadow);
      ApplyToShadow(batch, &shadow);
      auto report = controller.Apply(batch);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(report.ValueOrDie().data_epoch, last_epoch + 1);
      last_epoch = report.ValueOrDie().data_epoch;
    }
    // The interleave genuinely exercised the cache.
    EXPECT_GT(service.cache_stats().hits, 0u);
    EXPECT_GT(service.cache_stats().relation_fenced, 0u);

    // Rebuild from the final shadow state; the incrementally-updated
    // engine must be bit-identical at S ∈ {1, 4} for all four kinds.
    auto rebuilt =
        MakeEngine(CatalogFrom(shadow, columnar), DyadicMappings());
    ThreadPool pool(4);
    for (const core::Request& request : requests) {
      for (const int shards : {1, 4}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        core::Engine::EvalOptions eval;
        eval.mapping_shards = shards;
        eval.pool = &pool;
        auto incremental = live->Run(request, eval);
        auto fresh = rebuilt->Run(request, eval);
        ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
        ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
        ExpectResponsesBitIdentical(incremental.ValueOrDie(),
                                    fresh.ValueOrDie());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Delta-aware fencing granularity.

TEST_F(LiveCatalogTest, DeltaFencesOnlyTouchedSourceRelations) {
  auto engine = MakeEngine(CatalogFrom(InitialShadow(), true),
                           DyadicMappings());
  service::ServiceOptions service_options;
  service_options.num_threads = 2;
  service_options.enable_metrics = false;
  service::QueryService service(engine.get(), service_options);
  IngestOptions ingest_options;
  ingest_options.enable_metrics = false;
  IngestController controller(engine.get(), &service, ingest_options);

  // Footprint {customer} vs {customer, nation}.
  auto customer_only =
      core::Request::MethodEval(PhoneByAddr("aaa"), core::Method::kOSharing);
  auto customer_and_nation =
      core::Request::MethodEval(NationByAddr("hk"), core::Method::kBasic);
  ASSERT_FALSE(service.Submit(customer_only).cache_hit);
  ASSERT_FALSE(service.Submit(customer_and_nation).cache_hit);
  EXPECT_TRUE(service.Submit(customer_only).cache_hit);

  // A nation delta fences the nation-reading entry only.
  DeltaBatch nation_batch;
  nation_batch.ops.push_back(
      DeltaOp{DeltaOpKind::kInsert, "nation", {"n7", "Norway"}, {}});
  auto nation_report = controller.Apply(nation_batch);
  ASSERT_TRUE(nation_report.ok()) << nation_report.status().ToString();
  EXPECT_EQ(nation_report.ValueOrDie().fenced_answers, 1u);
  EXPECT_TRUE(service.Submit(customer_only).cache_hit);
  EXPECT_FALSE(service.Submit(customer_and_nation).cache_hit);

  // A customer delta fences both (every probe reads customer) — and
  // the refreshed entries match a fresh engine over the new state.
  DeltaBatch customer_batch;
  customer_batch.ops.push_back(DeltaOp{
      DeltaOpKind::kInsert, "customer",
      {"c9", "Dora", "123", "456", "555", "aaa", "hk", "n1"}, {}});
  auto customer_report = controller.Apply(customer_batch);
  ASSERT_TRUE(customer_report.ok());
  EXPECT_EQ(customer_report.ValueOrDie().fenced_answers, 2u);
  auto refreshed = service.Submit(customer_only);
  EXPECT_FALSE(refreshed.cache_hit);
  Shadow shadow = InitialShadow();
  ApplyToShadow(nation_batch, &shadow);
  ApplyToShadow(customer_batch, &shadow);
  auto rebuilt = MakeEngine(CatalogFrom(shadow, true), DyadicMappings());
  auto fresh = rebuilt->Run(customer_only);
  ASSERT_TRUE(fresh.ok());
  ExpectResponsesBitIdentical(*refreshed.response, fresh.ValueOrDie());
  EXPECT_EQ(controller.stats().batches, 2u);
  EXPECT_EQ(controller.stats().data_epoch, 2u);
}

TEST_F(LiveCatalogTest, ApplyRejectsMalformedBatchesAtomically) {
  auto engine = MakeEngine(CatalogFrom(InitialShadow(), true),
                           DyadicMappings());
  service::ServiceOptions service_options;
  service_options.num_threads = 0;
  service_options.enable_metrics = false;
  service::QueryService service(engine.get(), service_options);
  IngestOptions ingest_options;
  ingest_options.enable_metrics = false;
  ingest_options.max_batch_ops = 4;
  IngestController controller(engine.get(), &service, ingest_options);

  // Unknown relation: nothing applied, even for the valid leading op.
  DeltaBatch unknown;
  unknown.ops.push_back(
      DeltaOp{DeltaOpKind::kInsert, "nation", {"n9", "Norway"}, {}});
  unknown.ops.push_back(
      DeltaOp{DeltaOpKind::kInsert, "no_such_relation", {"x"}, {}});
  auto r1 = controller.Apply(unknown);
  EXPECT_EQ(r1.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine->data_epoch(), 0u);
  EXPECT_EQ(engine->catalog().Get("nation").ValueOrDie()->num_rows(), 2u);

  // Arity mismatch.
  DeltaBatch bad_arity;
  bad_arity.ops.push_back(
      DeltaOp{DeltaOpKind::kInsert, "nation", {"n9"}, {}});
  auto r2 = controller.Apply(bad_arity);
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);

  // Oversized batch.
  DeltaBatch oversized;
  for (int i = 0; i < 5; ++i) {
    oversized.ops.push_back(DeltaOp{
        DeltaOpKind::kInsert, "nation", {"n" + std::to_string(10 + i),
                                         "Norway"}, {}});
  }
  auto r3 = controller.Apply(oversized);
  EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->data_epoch(), 0u);
  EXPECT_EQ(controller.stats().rejected_batches, 3u);
  EXPECT_EQ(controller.stats().batches, 0u);
}

// ---------------------------------------------------------------------------
// Batch encoding: one re-encode per touched relation per batch.

TEST_F(LiveCatalogTest, DeltaBatchReencodesEachTouchedRelationOnce) {
  auto shadow = InitialShadow();
  relational::Catalog catalog = CatalogFrom(shadow, true);

  DeltaBatch batch;
  for (int i = 0; i < 32; ++i) {
    batch.ops.push_back(DeltaOp{
        DeltaOpKind::kInsert, "customer",
        {"c" + std::to_string(100 + i), "N", "123", "456", "555", "aaa",
         "hk", "n1"},
        {}});
  }
  const uint64_t before = columnar::ColumnarRelation::EncodeCallsForTest();
  auto applied = catalog.ApplyDelta(batch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  // 32 inserted rows, ONE re-encode — never per row.
  EXPECT_EQ(columnar::ColumnarRelation::EncodeCallsForTest() - before, 1u);

  // A batch spanning two relations re-encodes each once.
  DeltaBatch two;
  two.ops.push_back(DeltaOp{
      DeltaOpKind::kInsert, "customer",
      {"c200", "N", "123", "456", "555", "aaa", "hk", "n1"}, {}});
  two.ops.push_back(
      DeltaOp{DeltaOpKind::kInsert, "nation", {"n20", "Norway"}, {}});
  const uint64_t before_two = columnar::ColumnarRelation::EncodeCallsForTest();
  ASSERT_TRUE(catalog.ApplyDelta(two).ok());
  EXPECT_EQ(columnar::ColumnarRelation::EncodeCallsForTest() - before_two, 2u);

  // A row-backed catalog never encodes on delta.
  relational::Catalog rows_only = CatalogFrom(shadow, false);
  const uint64_t before_rows = columnar::ColumnarRelation::EncodeCallsForTest();
  ASSERT_TRUE(rows_only.ApplyDelta(batch).ok());
  EXPECT_EQ(columnar::ColumnarRelation::EncodeCallsForTest() - before_rows, 0u);
}

TEST(BatchAppendTest, AddRowsValidatesAllOrNothingAndEncodesOnce) {
  relational::RelationSchema schema;
  ASSERT_TRUE(schema
                  .AddColumn(relational::ColumnDef{
                      "t.id", relational::ValueType::kString})
                  .ok());
  ASSERT_TRUE(schema
                  .AddColumn(relational::ColumnDef{
                      "t.v", relational::ValueType::kString})
                  .ok());
  Relation rel(schema);
  // A bad row anywhere in the batch appends nothing.
  Status bad = rel.AddRows({{"a", "1"}, {"b"}});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(rel.num_rows(), 0u);

  std::vector<Row> rows;
  for (int i = 0; i < 64; ++i) {
    rows.push_back({"id" + std::to_string(i), "v"});
  }
  ASSERT_TRUE(rel.AddRows(std::move(rows)).ok());
  EXPECT_EQ(rel.num_rows(), 64u);
  const uint64_t before = columnar::ColumnarRelation::EncodeCallsForTest();
  ASSERT_NE(rel.Columnar(), nullptr);
  EXPECT_EQ(columnar::ColumnarRelation::EncodeCallsForTest() - before, 1u);
}

// ---------------------------------------------------------------------------
// Concurrent ingest + queries + reconfiguration + scrapes (TSan).

/// Collects streamed leaves; the completion status is checked by the
/// submitting thread through the response.
class CollectingSink : public core::AnswerSink {
 public:
  bool OnAnswer(const std::vector<Row>& rows, double probability) override {
    leaves_ += rows.size();
    (void)probability;
    return true;
  }
  void OnComplete(const Status& status) override { complete_ = status.ok(); }
  size_t leaves() const { return leaves_; }
  bool complete() const { return complete_; }

 private:
  size_t leaves_ = 0;
  bool complete_ = false;
};

TEST_F(LiveCatalogTest, ConcurrentIngestStress) {
  // Two mapping sets the reconfiguration thread alternates between:
  // the 8 dyadic mappings, and their first 4 reweighted to 0.25 each
  // (still exact in IEEE double).
  const std::vector<mapping::Mapping> set_a = DyadicMappings();
  std::vector<mapping::Mapping> set_b(set_a.begin(), set_a.begin() + 4);
  for (mapping::Mapping& m : set_b) m.set_probability(0.25);

  // The deterministic delta sequence (a customer trickle) and the full
  // table of answers reachable from (prefix state, mapping set): every
  // concurrent response must be one of them, and after the run the
  // stack must answer exactly from the final state — a fenced entry
  // served stale, a torn catalog read, or a half-applied batch all
  // surface as a canon string outside the table.
  constexpr int kBatches = 6;
  std::mt19937 rng(7u);
  std::vector<DeltaBatch> batches;
  std::vector<Shadow> prefixes;  // prefixes[k] = state after k batches
  Shadow shadow = InitialShadow();
  prefixes.push_back(shadow);
  for (int k = 0; k < kBatches; ++k) {
    DeltaBatch batch;
    while (batch.ops.empty() ||
           batch.ops.front().relation != "customer") {
      batch = RandomBatch(&rng, shadow);
    }
    ApplyToShadow(batch, &shadow);
    batches.push_back(batch);
    prefixes.push_back(shadow);
  }
  const std::vector<core::Request> requests = AllKindRequests();
  std::set<std::string> reachable;
  std::vector<std::string> final_canon;  // final state under set_a
  const std::vector<std::vector<mapping::Mapping>> mapping_sets = {set_a,
                                                                   set_b};
  for (size_t s = 0; s < mapping_sets.size(); ++s) {
    for (size_t k = 0; k < prefixes.size(); ++k) {
      auto engine = MakeEngine(CatalogFrom(prefixes[k], true),
                               mapping_sets[s]);
      for (const core::Request& request : requests) {
        auto result = engine->Run(request);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        std::string canon = Canon(result.ValueOrDie());
        if (s == 0 && k + 1 == prefixes.size()) {
          final_canon.push_back(canon);
        }
        reachable.insert(std::move(canon));
      }
    }
  }
  ASSERT_EQ(final_canon.size(), requests.size());

  obs::Registry registry;
  auto live = MakeEngine(CatalogFrom(prefixes[0], true), set_a);
  service::ServiceOptions service_options;
  service_options.num_threads = 3;
  service_options.metrics_registry = &registry;
  service::QueryService service(live.get(), service_options);
  IngestOptions ingest_options;
  ingest_options.metrics_registry = &registry;
  IngestController controller(live.get(), &service, ingest_options);

  std::atomic<bool> done{false};
  std::atomic<size_t> checked{0};
  std::atomic<size_t> mismatches{0};
  auto check = [&](const service::QueryResponse& response) {
    if (!response.status.ok() || response.response == nullptr) {
      mismatches.fetch_add(1);
      return;
    }
    if (reachable.count(Canon(*response.response)) == 0) {
      mismatches.fetch_add(1);
    }
    checked.fetch_add(1);
  };

  std::vector<std::thread> threads;
  // Ingest + reconfiguration driver.
  threads.emplace_back([&] {
    for (int k = 0; k < kBatches; ++k) {
      auto report = controller.Apply(batches[k]);
      EXPECT_TRUE(report.ok()) << report.status().ToString();
      if (k == 1) {
        EXPECT_TRUE(controller.ReconfigureMappings(set_b).ok());
      }
      if (k == 3) {
        EXPECT_TRUE(controller.ReconfigureMappings(set_a).ok());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    done.store(true);
  });
  // Synchronous submitters.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 local(100u + static_cast<uint32_t>(t));
      for (int i = 0; i < 60; ++i) {
        check(service.Submit(requests[local() % requests.size()]));
      }
    });
  }
  // Async submitter (futures + completion callbacks).
  threads.emplace_back([&] {
    std::mt19937 local(200u);
    for (int i = 0; i < 30; ++i) {
      auto future =
          service.SubmitAsync(requests[local() % requests.size()]);
      check(future.get());
    }
  });
  // Streaming submitter.
  threads.emplace_back([&] {
    std::mt19937 local(300u);
    for (int i = 0; i < 20; ++i) {
      CollectingSink sink;
      auto response = service.Submit(requests[local() % requests.size()],
                                     &sink);
      EXPECT_TRUE(sink.complete());
      check(response);
    }
  });
  // Metric scrapes + stats reads race the whole stack.
  threads.emplace_back([&] {
    while (!done.load()) {
      EXPECT_FALSE(registry.ExposeText().empty());
      (void)service.cache_stats();
      (void)service.operator_store_stats();
      (void)service.pool_stats();
      (void)controller.stats();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (std::thread& thread : threads) thread.join();

  EXPECT_GT(checked.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(controller.stats().batches, static_cast<size_t>(kBatches));
  EXPECT_EQ(live->data_epoch(), static_cast<uint64_t>(kBatches));

  // Strict sequential consistency at quiescence: with all deltas
  // applied and set_a active, every request answers exactly from the
  // final state — a surviving stale cache entry would fail here.
  for (size_t i = 0; i < requests.size(); ++i) {
    auto response = service.Submit(requests[i]);
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(Canon(*response.response), final_canon[i]) << "request " << i;
  }
}

}  // namespace
}  // namespace live
}  // namespace urm
