#include <gtest/gtest.h>

#include "algebra/plan.h"
#include "baselines/baselines.h"
#include "osharing/osharing.h"
#include "osharing/query_shape.h"
#include "reformulation/reformulator.h"
#include "tests/paper_fixture.h"

namespace urm {
namespace osharing {
namespace {

using algebra::AggKind;
using algebra::CmpOp;
using algebra::MakeAggregate;
using algebra::MakeProduct;
using algebra::MakeProject;
using algebra::MakeScan;
using algebra::MakeSelect;
using algebra::PlanPtr;
using algebra::Predicate;

class OSharingTest : public ::testing::Test {
 protected:
  OSharingTest() : ex_(urm::testing::MakePaperExample()) {}

  reformulation::TargetQueryInfo Analyze(const PlanPtr& q) {
    auto info = reformulation::AnalyzeTargetQuery(q, ex_.target_schema);
    EXPECT_TRUE(info.ok()) << info.status().ToString();
    return info.ValueOrDie();
  }

  baselines::MethodResult Basic(const reformulation::TargetQueryInfo& info) {
    reformulation::Reformulator reformulator(ex_.source_schema);
    auto r = baselines::RunBasic(info, baselines::AsWeighted(ex_.mappings),
                                 ex_.catalog, reformulator);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).ValueOrDie();
  }

  /// q2 = (σ_addr='hk' σ_phone='123' Person) × Order (paper §V, Fig. 5).
  PlanPtr Q2Paper() {
    PlanPtr person = MakeScan("Person", "person");
    person = MakeSelect(
        person, Predicate::AttrCmpValue("person.phone", CmpOp::kEq, "123"));
    person = MakeSelect(
        person, Predicate::AttrCmpValue("person.addr", CmpOp::kEq, "hk"));
    return MakeProduct(person, MakeScan("Order", "order"));
  }

  urm::testing::PaperExample ex_;
};

TEST_F(OSharingTest, DecomposeQueryShape) {
  auto info = Analyze(Q2Paper());
  auto shape = DecomposeQuery(info);
  ASSERT_TRUE(shape.ok()) << shape.status().ToString();
  EXPECT_EQ(shape.ValueOrDie().selections.size(), 2u);
  EXPECT_EQ(shape.ValueOrDie().products.size(), 1u);
  EXPECT_TRUE(shape.ValueOrDie().tops.empty());
  EXPECT_EQ(shape.ValueOrDie().NumOperators(),
            algebra::CountOperators(info.query));
}

TEST_F(OSharingTest, DecomposeTopsInnermostFirst) {
  PlanPtr p = MakeScan("Person", "person");
  p = MakeSelect(p,
                 Predicate::AttrCmpValue("person.phone", CmpOp::kEq, "123"));
  p = MakeProject(p, {"person.addr"});
  p = MakeAggregate(p, AggKind::kCount);
  auto info = Analyze(p);
  auto shape = DecomposeQuery(info);
  ASSERT_TRUE(shape.ok());
  ASSERT_EQ(shape.ValueOrDie().tops.size(), 2u);
  EXPECT_FALSE(shape.ValueOrDie().tops[0].is_aggregate);  // π first
  EXPECT_TRUE(shape.ValueOrDie().tops[1].is_aggregate);
}

TEST_F(OSharingTest, MatchesBasicOnPaperFigure5Query) {
  auto info = Analyze(Q2Paper());
  auto basic = Basic(info);
  auto result = RunOSharing(info, ex_.mappings, ex_.catalog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(basic.answers.ApproxEquals(result.ValueOrDie().answers))
      << "basic:\n" << basic.answers.ToString() << "o-sharing:\n"
      << result.ValueOrDie().answers.ToString();
}

TEST_F(OSharingTest, AllStrategiesAgree) {
  auto info = Analyze(Q2Paper());
  auto basic = Basic(info);
  for (StrategyKind strategy :
       {StrategyKind::kRandom, StrategyKind::kSNF, StrategyKind::kSEF}) {
    OSharingOptions options;
    options.strategy = strategy;
    auto result = RunOSharing(info, ex_.mappings, ex_.catalog, options);
    ASSERT_TRUE(result.ok()) << StrategyName(strategy) << ": "
                             << result.status().ToString();
    EXPECT_TRUE(basic.answers.ApproxEquals(result.ValueOrDie().answers))
        << StrategyName(strategy);
  }
}

TEST_F(OSharingTest, ProjectionQueryMatchesBasic) {
  PlanPtr p = MakeScan("Person", "person");
  p = MakeSelect(p,
                 Predicate::AttrCmpValue("person.addr", CmpOp::kEq, "aaa"));
  p = MakeProject(p, {"person.phone"});
  auto info = Analyze(p);
  auto basic = Basic(info);
  auto result = RunOSharing(info, ex_.mappings, ex_.catalog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(basic.answers.ApproxEquals(result.ValueOrDie().answers));
  // Paper §III-B: (123,.5), (456,.8), (789,.2).
  EXPECT_EQ(result.ValueOrDie().answers.size(), 3u);
}

TEST_F(OSharingTest, AggregateQueryMatchesBasic) {
  PlanPtr p = MakeScan("Person", "person");
  p = MakeSelect(p,
                 Predicate::AttrCmpValue("person.addr", CmpOp::kEq, "aaa"));
  p = MakeAggregate(p, AggKind::kCount);
  auto info = Analyze(p);
  auto basic = Basic(info);
  auto result = RunOSharing(info, ex_.mappings, ex_.catalog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(basic.answers.ApproxEquals(result.ValueOrDie().answers));
}

TEST_F(OSharingTest, CountOverBareProductMatchesBasic) {
  // COUNT(σ_phone (Person × Order)) — Order is bare; its cover differs
  // across mappings (c_order vs nation for m5), the Fig. 6 situation.
  PlanPtr p = MakeProduct(MakeScan("Person", "person"),
                          MakeScan("Order", "order"));
  p = MakeSelect(p,
                 Predicate::AttrCmpValue("person.phone", CmpOp::kEq, "123"));
  p = MakeAggregate(p, AggKind::kCount);
  auto info = Analyze(p);
  auto basic = Basic(info);
  auto result = RunOSharing(info, ex_.mappings, ex_.catalog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(basic.answers.ApproxEquals(result.ValueOrDie().answers))
      << "basic:\n" << basic.answers.ToString() << "o-sharing:\n"
      << result.ValueOrDie().answers.ToString();
}

TEST_F(OSharingTest, JoinPredicateQueryMatchesBasic) {
  // σ Person.nation = Order.item (Person × Order): a cross-instance
  // equality predicate exercising factor fusion.
  PlanPtr p = MakeProduct(MakeScan("Person", "person"),
                          MakeScan("Order", "order"));
  p = MakeSelect(p, Predicate::AttrCmpAttr("person.nation", CmpOp::kEq,
                                           "order.item"));
  auto info = Analyze(p);
  auto basic = Basic(info);
  auto result = RunOSharing(info, ex_.mappings, ex_.catalog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(basic.answers.ApproxEquals(result.ValueOrDie().answers))
      << "basic:\n" << basic.answers.ToString() << "o-sharing:\n"
      << result.ValueOrDie().answers.ToString();
}

TEST_F(OSharingTest, SharesOperatorsAcrossMappings) {
  auto info = Analyze(Q2Paper());
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto basic = baselines::RunBasic(
      info, baselines::AsWeighted(ex_.mappings), ex_.catalog, reformulator);
  auto shared = RunOSharing(info, ex_.mappings, ex_.catalog);
  ASSERT_TRUE(basic.ok() && shared.ok());
  EXPECT_LT(shared.ValueOrDie().stats.operators_executed,
            basic.ValueOrDie().stats.operators_executed);
}

TEST_F(OSharingTest, OperatorStoreSharesAlikeWithOrWithoutCallerStore) {
  // The OperatorStore is the one operator memo: an engine-owned store,
  // a caller's store and a parallel trace whose clones share one store
  // must reuse the same operators and give the same answers, bit for
  // bit.
  PlanPtr p = MakeProduct(MakeScan("Person", "person"),
                          MakeScan("Order", "order"));
  p = MakeSelect(p,
                 Predicate::AttrCmpValue("person.addr", CmpOp::kEq, "hk"));
  p = MakeSelect(p,
                 Predicate::AttrCmpValue("person.phone", CmpOp::kEq, "123"));
  auto info = Analyze(p);

  OSharingOptions owned;  // store == nullptr: the engine owns one
  OperatorStore store;
  OSharingOptions caller;
  caller.store = &store;
  ThreadPool pool(4);
  OSharingOptions parallel;
  parallel.parallelism = 4;
  parallel.pool = &pool;
  parallel.parallel_grain = 1;  // fan out even on the tiny fixture

  auto a = RunOSharing(info, ex_.mappings, ex_.catalog, owned);
  auto b = RunOSharing(info, ex_.mappings, ex_.catalog, caller);
  auto c = RunOSharing(info, ex_.mappings, ex_.catalog, parallel);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  const baselines::MethodResult& ra = a.ValueOrDie();
  EXPECT_TRUE(Basic(info).answers.ApproxEquals(ra.answers));
  EXPECT_GT(ra.stats.cache_hits, 0u);
  for (const baselines::MethodResult* r : {&b.ValueOrDie(), &c.ValueOrDie()}) {
    ASSERT_EQ(r->answers.size(), ra.answers.size());
    EXPECT_EQ(r->answers.null_probability(), ra.answers.null_probability());
    for (size_t i = 0; i < ra.answers.size(); ++i) {
      const reformulation::AnswerTuple& x = ra.answers.tuples()[i];
      const reformulation::AnswerTuple& y = r->answers.tuples()[i];
      EXPECT_TRUE(x.values == y.values) << "row " << i;
      EXPECT_EQ(x.probability, y.probability) << "row " << i;
    }
    EXPECT_EQ(r->stats.operators_executed, ra.stats.operators_executed);
    EXPECT_EQ(r->stats.cache_hits, ra.stats.cache_hits);
  }
  EXPECT_EQ(store.stats().hits, ra.stats.cache_hits);
}

TEST_F(OSharingTest, StrategyNamesExposed) {
  EXPECT_STREQ(StrategyName(StrategyKind::kRandom), "Random");
  EXPECT_STREQ(StrategyName(StrategyKind::kSNF), "SNF");
  EXPECT_STREQ(StrategyName(StrategyKind::kSEF), "SEF");
}

}  // namespace
}  // namespace osharing
}  // namespace urm
