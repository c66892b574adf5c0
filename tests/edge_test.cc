/// \file edge_test.cc
/// Edge cases and failure injection across the stack: degenerate
/// mapping sets, empty results, multi-relation covers (reformulation
/// Cases 2/3), type-mismatched predicates, and the o-sharing extension
/// path (a selection forcing a new covering relation into an existing
/// intermediate state).

#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "core/engine.h"
#include "osharing/osharing.h"
#include "qsharing/qsharing.h"
#include "reformulation/reformulator.h"
#include "tests/paper_fixture.h"
#include "topk/topk.h"

namespace urm {
namespace {

using algebra::AggKind;
using algebra::CmpOp;
using algebra::MakeAggregate;
using algebra::MakeProject;
using algebra::MakeScan;
using algebra::MakeSelect;
using algebra::PlanPtr;
using algebra::Predicate;

class EdgeTest : public ::testing::Test {
 protected:
  EdgeTest() : ex_(testing::MakePaperExample()) {}

  reformulation::TargetQueryInfo Analyze(const PlanPtr& q) {
    auto info = reformulation::AnalyzeTargetQuery(q, ex_.target_schema);
    EXPECT_TRUE(info.ok()) << info.status().ToString();
    return info.ValueOrDie();
  }

  testing::PaperExample ex_;
};

TEST_F(EdgeTest, NoMatchSelectionYieldsPureTheta) {
  PlanPtr q = MakeSelect(
      MakeScan("Person", "person"),
      Predicate::AttrCmpValue("person.phone", CmpOp::kEq, "no-such"));
  auto info = Analyze(q);
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto basic = baselines::RunBasic(info, baselines::AsWeighted(ex_.mappings),
                                   ex_.catalog, reformulator);
  ASSERT_TRUE(basic.ok());
  EXPECT_EQ(basic.ValueOrDie().answers.size(), 0u);
  EXPECT_NEAR(basic.ValueOrDie().answers.null_probability(), 1.0, 1e-12);

  auto oshare = osharing::RunOSharing(info, ex_.mappings, ex_.catalog);
  ASSERT_TRUE(oshare.ok());
  EXPECT_NEAR(oshare.ValueOrDie().answers.null_probability(), 1.0, 1e-12);
}

TEST_F(EdgeTest, CountOfEmptySelectionIsZeroNotTheta) {
  PlanPtr q = MakeAggregate(
      MakeSelect(
          MakeScan("Person", "person"),
          Predicate::AttrCmpValue("person.phone", CmpOp::kEq, "no-such")),
      AggKind::kCount);
  auto info = Analyze(q);
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto basic = baselines::RunBasic(info, baselines::AsWeighted(ex_.mappings),
                                   ex_.catalog, reformulator);
  auto oshare = osharing::RunOSharing(info, ex_.mappings, ex_.catalog);
  ASSERT_TRUE(basic.ok() && oshare.ok());
  // Every mapping yields COUNT = 0 -> single tuple (0) with p = 1.
  ASSERT_EQ(basic.ValueOrDie().answers.size(), 1u);
  EXPECT_EQ(basic.ValueOrDie().answers.Sorted()[0].values[0],
            relational::Value(0));
  EXPECT_TRUE(basic.ValueOrDie().answers.ApproxEquals(
      oshare.ValueOrDie().answers));
}

TEST_F(EdgeTest, SingleMappingSetBehavesDeterministically) {
  std::vector<mapping::Mapping> one = {ex_.mappings[0]};
  one[0].set_probability(1.0);
  PlanPtr q = MakeProject(
      MakeSelect(MakeScan("Person", "person"),
                 Predicate::AttrCmpValue("person.addr", CmpOp::kEq, "aaa")),
      {"person.phone"});
  auto info = Analyze(q);
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto basic = baselines::RunBasic(info, baselines::AsWeighted(one),
                                   ex_.catalog, reformulator);
  auto oshare = osharing::RunOSharing(info, one, ex_.catalog);
  ASSERT_TRUE(basic.ok() && oshare.ok());
  EXPECT_EQ(basic.ValueOrDie().answers.size(), 2u);  // 123, 456
  EXPECT_TRUE(basic.ValueOrDie().answers.ApproxEquals(
      oshare.ValueOrDie().answers));
}

TEST_F(EdgeTest, EmptyMappingSetProducesEmptyAnswers) {
  std::vector<mapping::Mapping> none;
  PlanPtr q = MakeSelect(
      MakeScan("Person", "person"),
      Predicate::AttrCmpValue("person.phone", CmpOp::kEq, "123"));
  auto info = Analyze(q);
  auto oshare = osharing::RunOSharing(info, none, ex_.catalog);
  ASSERT_TRUE(oshare.ok()) << oshare.status().ToString();
  EXPECT_EQ(oshare.ValueOrDie().answers.size(), 0u);
  EXPECT_DOUBLE_EQ(oshare.ValueOrDie().answers.null_probability(), 0.0);
}

TEST_F(EdgeTest, MultiRelationCoverCrossesSourceRelations) {
  // phone lives in customer, nation in the nation relation: the cover
  // is customer × nation (reformulation Case 3), and the answer pairs
  // every matching customer row with every matching nation row.
  PlanPtr q = MakeScan("Person", "person");
  q = MakeSelect(q,
                 Predicate::AttrCmpValue("person.phone", CmpOp::kEq, "123"));
  q = MakeSelect(q, Predicate::AttrCmpValue("person.nation", CmpOp::kEq,
                                            "HongKong"));
  auto info = Analyze(q);
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto basic = baselines::RunBasic(info, baselines::AsWeighted(ex_.mappings),
                                   ex_.catalog, reformulator);
  ASSERT_TRUE(basic.ok()) << basic.status().ToString();
  // m1..m4 map phone/nation (m5 lacks nation -> θ gets 0.1).
  EXPECT_NEAR(basic.ValueOrDie().answers.null_probability(), 0.1, 1e-12);
  ASSERT_GE(basic.ValueOrDie().answers.size(), 1u);

  // o-sharing reaches the same result through the Case-2 extension
  // path: the first selection materializes customer, the second adds
  // the nation relation to the same group.
  auto oshare = osharing::RunOSharing(info, ex_.mappings, ex_.catalog);
  ASSERT_TRUE(oshare.ok()) << oshare.status().ToString();
  EXPECT_TRUE(basic.ValueOrDie().answers.ApproxEquals(
      oshare.ValueOrDie().answers))
      << "basic:\n" << basic.ValueOrDie().answers.ToString()
      << "o-sharing:\n" << oshare.ValueOrDie().answers.ToString();
}

TEST_F(EdgeTest, CountOverMultiRelationCoverMultiplies) {
  PlanPtr q = MakeScan("Person", "person");
  q = MakeSelect(q,
                 Predicate::AttrCmpValue("person.phone", CmpOp::kEq, "456"));
  q = MakeSelect(q, Predicate::AttrCmpValue("person.nation", CmpOp::kEq,
                                            "HongKong"));
  q = MakeAggregate(q, AggKind::kCount);
  auto info = Analyze(q);
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto basic = baselines::RunBasic(info, baselines::AsWeighted(ex_.mappings),
                                   ex_.catalog, reformulator);
  auto oshare = osharing::RunOSharing(info, ex_.mappings, ex_.catalog);
  ASSERT_TRUE(basic.ok() && oshare.ok());
  EXPECT_TRUE(basic.ValueOrDie().answers.ApproxEquals(
      oshare.ValueOrDie().answers));
  // Under m1/m2: σophone='456' -> {t2,t3}; σnname='HongKong' -> 1 row;
  // COUNT = 2×1 = 2.
  bool found_two = false;
  for (const auto& t : basic.ValueOrDie().answers.Sorted()) {
    if (t.values[0] == relational::Value(2)) found_two = true;
  }
  EXPECT_TRUE(found_two);
}

TEST_F(EdgeTest, TypeMismatchedConstantNeverMatches) {
  // phone values are strings; an integer constant matches nothing.
  PlanPtr q = MakeSelect(MakeScan("Person", "person"),
                         Predicate::AttrCmpValue("person.phone",
                                                 CmpOp::kEq, 123));
  auto info = Analyze(q);
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto basic = baselines::RunBasic(info, baselines::AsWeighted(ex_.mappings),
                                   ex_.catalog, reformulator);
  ASSERT_TRUE(basic.ok());
  EXPECT_EQ(basic.ValueOrDie().answers.size(), 0u);
  EXPECT_NEAR(basic.ValueOrDie().answers.null_probability(), 1.0, 1e-12);
}

TEST_F(EdgeTest, SumOverStringColumnEvaluatesToZero) {
  // Force SUM over an attribute every mapping matches to a string
  // column; the tolerant SUM semantics yield 0 rather than an error.
  PlanPtr q = MakeAggregate(
      MakeSelect(MakeScan("Person", "person"),
                 Predicate::AttrCmpValue("person.addr", CmpOp::kEq, "aaa")),
      AggKind::kSum, "person.pname");
  auto info = Analyze(q);
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto basic = baselines::RunBasic(info, baselines::AsWeighted(ex_.mappings),
                                   ex_.catalog, reformulator);
  ASSERT_TRUE(basic.ok()) << basic.status().ToString();
  auto oshare = osharing::RunOSharing(info, ex_.mappings, ex_.catalog);
  ASSERT_TRUE(oshare.ok());
  EXPECT_TRUE(basic.ValueOrDie().answers.ApproxEquals(
      oshare.ValueOrDie().answers));
}

TEST_F(EdgeTest, ProbabilitiesNeedNotSumToOneAcrossTuples) {
  // Marginals can exceed 1 in total (several tuples per mapping);
  // within one tuple they never exceed 1.
  PlanPtr q = MakeProject(
      MakeSelect(MakeScan("Person", "person"),
                 Predicate::AttrCmpValue("person.addr", CmpOp::kEq, "hk")),
      {"person.pname"});
  auto info = Analyze(q);
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto basic = baselines::RunBasic(info, baselines::AsWeighted(ex_.mappings),
                                   ex_.catalog, reformulator);
  ASSERT_TRUE(basic.ok());
  for (const auto& t : basic.ValueOrDie().answers.Sorted()) {
    EXPECT_GT(t.probability, 0.0);
    EXPECT_LE(t.probability, 1.0 + 1e-12);
  }
}

TEST_F(EdgeTest, TopKOnPureThetaQueryReturnsNothing) {
  PlanPtr q = MakeSelect(
      MakeScan("Person", "person"),
      Predicate::AttrCmpValue("person.phone", CmpOp::kEq, "no-such"));
  auto info = Analyze(q);
  auto topk = topk::RunTopK(info, ex_.mappings, ex_.catalog, 3);
  ASSERT_TRUE(topk.ok());
  EXPECT_TRUE(topk.ValueOrDie().tuples.empty());
}

TEST_F(EdgeTest, QSharingWithAllUnanswerableMappings) {
  // gender is mapped only by m2; restrict to mappings without it.
  std::vector<mapping::Mapping> subset = {ex_.mappings[0], ex_.mappings[2]};
  subset[0].set_probability(0.6);
  subset[1].set_probability(0.4);
  PlanPtr q = MakeProject(
      MakeSelect(MakeScan("Person", "person"),
                 Predicate::AttrCmpValue("person.gender", CmpOp::kEq, "x")),
      {"person.gender"});
  auto info = Analyze(q);
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto result = qsharing::RunQSharing(info, subset, ex_.catalog,
                                      reformulator);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().answers.size(), 0u);
  EXPECT_NEAR(result.ValueOrDie().answers.null_probability(), 1.0, 1e-12);
  EXPECT_EQ(result.ValueOrDie().source_queries, 0u);
}

TEST_F(EdgeTest, EngineFromPartsEvaluates) {
  core::Engine::Options options;
  auto engine = core::Engine::FromParts(ex_.catalog, ex_.source_schema,
                                        ex_.target_schema, ex_.mappings,
                                        options);
  PlanPtr q = MakeProject(
      MakeSelect(MakeScan("Person", "person"),
                 Predicate::AttrCmpValue("person.phone", CmpOp::kEq, "123")),
      {"person.addr"});
  auto result =
      engine->Run(core::Request::MethodEval(q, core::Method::kOSharing));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie().evaluate.answers.size(), 2u);  // aaa, hk
}

TEST_F(EdgeTest, AnalyzeRejectsRelationLeafInTargetQuery) {
  relational::Relation rel{relational::RelationSchema{}};
  PlanPtr leaf = algebra::MakeRelationLeaf(
      std::make_shared<const relational::Relation>(std::move(rel)), "r");
  EXPECT_FALSE(
      reformulation::AnalyzeTargetQuery(leaf, ex_.target_schema).ok());
}

TEST_F(EdgeTest, InequalityPredicatesSupported) {
  // σ pname > 'Alice' — non-equality comparisons flow through every
  // layer (they cannot hash-join; the evaluator falls back to filter).
  PlanPtr q = MakeProject(
      MakeSelect(MakeScan("Person", "person"),
                 Predicate::AttrCmpValue("person.pname", CmpOp::kGt,
                                         "Alice")),
      {"person.pname"});
  auto info = Analyze(q);
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto basic = baselines::RunBasic(info, baselines::AsWeighted(ex_.mappings),
                                   ex_.catalog, reformulator);
  auto oshare = osharing::RunOSharing(info, ex_.mappings, ex_.catalog);
  ASSERT_TRUE(basic.ok() && oshare.ok());
  EXPECT_TRUE(basic.ValueOrDie().answers.ApproxEquals(
      oshare.ValueOrDie().answers));
  // Under m1-m4 (pname -> cname): Bob and Cindy qualify.
  bool has_bob = false;
  for (const auto& t : basic.ValueOrDie().answers.Sorted()) {
    if (t.values[0] == relational::Value("Bob")) has_bob = true;
  }
  EXPECT_TRUE(has_bob);
}

}  // namespace
}  // namespace urm
