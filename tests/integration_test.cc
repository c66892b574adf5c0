#include <gtest/gtest.h>

#include <map>

#include "core/engine.h"
#include "core/workload.h"

namespace urm {
namespace core {
namespace {

/// Engines are expensive (instance generation + Murty enumeration);
/// build one per target schema and share across tests.
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

TEST(EngineTest, CreatePreparesMappings) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  EXPECT_FALSE(engine->correspondences().empty());
  ASSERT_FALSE(engine->mappings().empty());
  EXPECT_NEAR(mapping::TotalProbability(engine->mappings()), 1.0, 1e-9);
  // Mappings overlap heavily (paper Fig. 9 reports 68-79%).
  EXPECT_GT(engine->MappingOverlapRatio(), 0.5);
}

TEST(EngineTest, CorrespondenceCountsInPaperBallpark) {
  // COMA++ returned 34/18/31 correspondences; our matcher should land
  // in the same order of magnitude for each schema.
  for (auto id : datagen::AllTargetSchemas()) {
    Engine* engine = SharedEngine(id);
    EXPECT_GE(engine->correspondences().size(), 15u)
        << datagen::TargetSchemaName(id);
    EXPECT_LE(engine->correspondences().size(), 80u)
        << datagen::TargetSchemaName(id);
  }
}

TEST(EngineTest, UseTopMappingsRenormalizes) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  engine->UseTopMappings(5);
  EXPECT_EQ(engine->mappings().size(), 5u);
  EXPECT_NEAR(mapping::TotalProbability(engine->mappings()), 1.0, 1e-9);
  engine->UseTopMappings(1000);  // restore all
}

class WorkloadConsistency
    : public ::testing::TestWithParam<WorkloadQuery> {};

TEST_P(WorkloadConsistency, AllMethodsReturnIdenticalAnswers) {
  const WorkloadQuery& wq = GetParam();
  Engine* engine = SharedEngine(wq.schema);
  auto reference = engine->Run(Request::MethodEval(wq.query, Method::kBasic));
  ASSERT_TRUE(reference.ok()) << wq.id << ": "
                              << reference.status().ToString();
  const auto& expected = reference.ValueOrDie().evaluate.answers;
  // Every mapping contributes at least one tuple or the θ outcome, so
  // the per-tuple marginals plus P(θ) total at least 1 (more when a
  // mapping yields several tuples).
  EXPECT_GE(expected.TotalProbability(), 1.0 - 1e-6) << wq.id;

  for (Method method : {Method::kEBasic, Method::kEMqo, Method::kQSharing,
                        Method::kOSharing}) {
    auto result = engine->Run(Request::MethodEval(wq.query, method));
    ASSERT_TRUE(result.ok())
        << wq.id << " " << MethodName(method) << ": "
        << result.status().ToString();
    const auto& answers = result.ValueOrDie().evaluate.answers;
    EXPECT_TRUE(expected.ApproxEquals(answers, 1e-6))
        << wq.id << " " << MethodName(method) << "\nbasic:\n"
        << expected.ToString() << "\nother:\n"
        << answers.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperQueries, WorkloadConsistency,
    ::testing::ValuesIn(PaperWorkload()),
    [](const ::testing::TestParamInfo<WorkloadQuery>& info) {
      return info.param.id;
    });

TEST(WorkloadTest, ParametricQueriesConsistent) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  for (int n = 1; n <= 5; ++n) {
    auto q = SelectionChainQuery(n);
    auto basic = engine->Run(Request::MethodEval(q, Method::kBasic));
    auto osharing = engine->Run(Request::MethodEval(q, Method::kOSharing));
    ASSERT_TRUE(basic.ok() && osharing.ok())
        << n << ": " << osharing.status().ToString();
    EXPECT_TRUE(basic.ValueOrDie().evaluate.answers.ApproxEquals(
        osharing.ValueOrDie().evaluate.answers, 1e-6))
        << "selection chain n=" << n;
  }
  for (int n = 1; n <= 2; ++n) {
    auto q = SelfJoinQuery(n);
    auto basic = engine->Run(Request::MethodEval(q, Method::kBasic));
    auto osharing = engine->Run(Request::MethodEval(q, Method::kOSharing));
    ASSERT_TRUE(basic.ok() && osharing.ok())
        << n << ": " << osharing.status().ToString();
    EXPECT_TRUE(basic.ValueOrDie().evaluate.answers.ApproxEquals(
        osharing.ValueOrDie().evaluate.answers, 1e-6))
        << "self join n=" << n;
  }
}

TEST(WorkloadTest, TopKAgreesWithExhaustiveOnQ4) {
  Engine* engine = SharedEngine(datagen::TargetSchemaId::kExcel);
  auto q = QueryById("Q4");
  auto full = engine->Run(Request::MethodEval(q.query, Method::kOSharing));
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  auto expected = full.ValueOrDie().evaluate.answers.TopK(5);
  auto topk = engine->Run(Request::TopK(q.query, 5));
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  const auto& got = topk.ValueOrDie().top_k.tuples;
  ASSERT_LE(got.size(), 5u);
  ASSERT_EQ(got.size(), std::min<size_t>(5, expected.size()));
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_LE(got[i].lower_bound, expected[i].probability + 1e-9) << i;
    EXPECT_GE(got[i].upper_bound, expected[i].probability - 1e-9) << i;
  }
}

TEST(WorkloadTest, QueryLookupAndDefault) {
  EXPECT_EQ(DefaultQuery().id, "Q4");
  EXPECT_EQ(PaperWorkload().size(), 10u);
  EXPECT_EQ(QueryById("Q7").schema, datagen::TargetSchemaId::kNoris);
}

}  // namespace
}  // namespace core
}  // namespace urm
