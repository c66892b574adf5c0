/// \file property_test.cc
/// Property-based tests. The central invariant of the paper is implicit
/// but crucial: *every evaluation method computes the same probabilistic
/// answer*. We generate randomized queries and mapping sets and assert
/// basic == e-basic == e-MQO == q-sharing == o-sharing(Random|SNF|SEF),
/// plus structural invariants of the mapping machinery.

#include <gtest/gtest.h>

#include <set>

#include "baselines/baselines.h"
#include "common/random.h"
#include "core/workload.h"
#include "mapping/generator.h"
#include "mapping/murty.h"
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
using algebra::MakeProduct;
using algebra::MakeProject;
using algebra::MakeScan;
using algebra::MakeSelect;
using algebra::PlanPtr;
using algebra::Predicate;

/// Random target query over the paper-example schema: 1-3 selections,
/// optional Order product, optional projection or aggregate.
PlanPtr RandomQuery(Rng* rng) {
  const std::vector<std::string> person_attrs = {"pname", "phone", "addr",
                                                 "nation"};
  const std::vector<std::string> constants = {"123", "456",  "789", "aaa",
                                              "bbb", "hk",   "Alice",
                                              "Bob", "zzz",  "HongKong"};
  bool with_order = rng->Bernoulli(0.4);
  PlanPtr p = MakeScan("Person", "person");
  if (with_order) {
    p = MakeProduct(p, MakeScan("Order", "order"));
  }
  int num_selects = static_cast<int>(rng->Uniform(1, 3));
  std::vector<std::string> used;
  for (int i = 0; i < num_selects; ++i) {
    const std::string& attr = rng->Choice(person_attrs);
    p = MakeSelect(p, Predicate::AttrCmpValue("person." + attr, CmpOp::kEq,
                                              rng->Choice(constants)));
    used.push_back("person." + attr);
  }
  if (with_order && rng->Bernoulli(0.5)) {
    // Cross-instance equality predicate.
    p = MakeSelect(p, Predicate::AttrCmpAttr("person.nation", CmpOp::kEq,
                                             "order.item"));
    used.push_back("person.nation");
  }
  int shape = static_cast<int>(rng->Uniform(0, 2));
  if (shape == 1) {
    p = MakeProject(p, {rng->Choice(used)});
  } else if (shape == 2) {
    p = MakeAggregate(p, AggKind::kCount);
  }
  return p;
}

class MethodAgreement : public ::testing::TestWithParam<int> {};

TEST_P(MethodAgreement, AllMethodsAgreeOnRandomQueries) {
  auto ex = testing::MakePaperExample();
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 1);
  reformulation::Reformulator reformulator(ex.source_schema);

  for (int round = 0; round < 8; ++round) {
    PlanPtr q = RandomQuery(&rng);
    auto info_or = reformulation::AnalyzeTargetQuery(q, ex.target_schema);
    ASSERT_TRUE(info_or.ok()) << info_or.status().ToString();
    const auto& info = info_or.ValueOrDie();

    auto basic = baselines::RunBasic(info, baselines::AsWeighted(ex.mappings),
                                     ex.catalog, reformulator);
    ASSERT_TRUE(basic.ok()) << basic.status().ToString();
    const auto& expected = basic.ValueOrDie().answers;

    auto ebasic = baselines::RunEBasic(
        info, baselines::AsWeighted(ex.mappings), ex.catalog, reformulator);
    ASSERT_TRUE(ebasic.ok());
    EXPECT_TRUE(expected.ApproxEquals(ebasic.ValueOrDie().answers))
        << "e-basic disagrees on:\n" << algebra::ToString(q);

    auto emqo = baselines::RunEMqo(info, baselines::AsWeighted(ex.mappings),
                                   ex.catalog, reformulator);
    ASSERT_TRUE(emqo.ok());
    EXPECT_TRUE(expected.ApproxEquals(emqo.ValueOrDie().answers))
        << "e-MQO disagrees on:\n" << algebra::ToString(q);

    auto qshare =
        qsharing::RunQSharing(info, ex.mappings, ex.catalog, reformulator);
    ASSERT_TRUE(qshare.ok());
    EXPECT_TRUE(expected.ApproxEquals(qshare.ValueOrDie().answers))
        << "q-sharing disagrees on:\n" << algebra::ToString(q);

    for (auto strategy :
         {osharing::StrategyKind::kRandom, osharing::StrategyKind::kSNF,
          osharing::StrategyKind::kSEF}) {
      osharing::OSharingOptions options;
      options.strategy = strategy;
      options.random_seed = static_cast<uint64_t>(GetParam() + round);
      auto oshare = osharing::RunOSharing(info, ex.mappings, ex.catalog,
                                          options);
      ASSERT_TRUE(oshare.ok()) << oshare.status().ToString();
      EXPECT_TRUE(expected.ApproxEquals(oshare.ValueOrDie().answers))
          << "o-sharing/" << osharing::StrategyName(strategy)
          << " disagrees on:\n" << algebra::ToString(q)
          << "basic:\n" << expected.ToString()
          << "o-sharing:\n" << oshare.ValueOrDie().answers.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MethodAgreement, ::testing::Range(0, 12));

class TopKAgreement : public ::testing::TestWithParam<int> {};

TEST_P(TopKAgreement, TopKSubsumedByExhaustiveAnswers) {
  auto ex = testing::MakePaperExample();
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 17);
  reformulation::Reformulator reformulator(ex.source_schema);
  for (int round = 0; round < 5; ++round) {
    PlanPtr q = RandomQuery(&rng);
    auto info_or = reformulation::AnalyzeTargetQuery(q, ex.target_schema);
    ASSERT_TRUE(info_or.ok());
    const auto& info = info_or.ValueOrDie();
    auto basic = baselines::RunBasic(info, baselines::AsWeighted(ex.mappings),
                                     ex.catalog, reformulator);
    ASSERT_TRUE(basic.ok());
    const auto& answers = basic.ValueOrDie().answers;

    for (size_t k : {1, 2, 4}) {
      auto topk = topk::RunTopK(info, ex.mappings, ex.catalog, k);
      ASSERT_TRUE(topk.ok()) << topk.status().ToString();
      const auto& tuples = topk.ValueOrDie().tuples;
      EXPECT_EQ(tuples.size(), std::min(k, answers.size()));
      // k-th highest exact probability; every reported tuple's upper
      // bound must reach it, and bounds must bracket the exact value.
      auto exact = answers.TopK(answers.size());
      double kth = tuples.empty() || exact.size() < k
                       ? 0.0
                       : exact[std::min(k, exact.size()) - 1].probability;
      for (const auto& t : tuples) {
        double p = -1.0;
        for (const auto& e : exact) {
          if (relational::RowsEqual(e.values, t.values)) p = e.probability;
        }
        ASSERT_GE(p, 0.0) << "top-k returned a non-answer tuple";
        EXPECT_LE(t.lower_bound, p + 1e-9);
        EXPECT_GE(t.upper_bound, p - 1e-9);
        EXPECT_GE(p + 1e-9, kth * (1.0 - 1e-9) - 1e-9)
            << "top-k returned a tuple below the k-th probability";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKAgreement, ::testing::Range(0, 8));

class MurtyProperties : public ::testing::TestWithParam<int> {};

TEST_P(MurtyProperties, RandomGraphsYieldSortedDistinctMatchings) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  int rows = static_cast<int>(rng.Uniform(2, 6));
  int cols = static_cast<int>(rng.Uniform(2, 6));
  std::vector<mapping::WeightedEdge> edges;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (rng.Bernoulli(0.6)) {
        edges.push_back(
            mapping::WeightedEdge{r, c, 0.05 + rng.NextDouble()});
      }
    }
  }
  auto sols = mapping::KBestMatchings(rows, cols, edges, 40);
  ASSERT_TRUE(sols.ok());
  const auto& ms = sols.ValueOrDie();
  std::set<std::vector<std::pair<int, int>>> seen;
  for (size_t i = 0; i < ms.size(); ++i) {
    // Sorted by weight.
    if (i > 0) {
      EXPECT_LE(ms[i].weight, ms[i - 1].weight + 1e-9);
    }
    // Distinct.
    EXPECT_TRUE(seen.insert(ms[i].edges).second);
    // One-to-one and within bounds.
    std::set<int> used_rows, used_cols;
    double weight = 0.0;
    for (const auto& [r, c] : ms[i].edges) {
      EXPECT_TRUE(used_rows.insert(r).second);
      EXPECT_TRUE(used_cols.insert(c).second);
      bool edge_exists = false;
      for (const auto& e : edges) {
        if (e.row == r && e.col == c) {
          edge_exists = true;
          weight += e.weight;
        }
      }
      EXPECT_TRUE(edge_exists);
    }
    EXPECT_NEAR(weight, ms[i].weight, 1e-9);
  }
  // The first solution must be the maximum-weight matching: no other
  // enumerated solution outweighs it.
  if (!ms.empty()) {
    for (const auto& sol : ms) {
      EXPECT_LE(sol.weight, ms[0].weight + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MurtyProperties, ::testing::Range(0, 20));

class PartitionProperties : public ::testing::TestWithParam<int> {};

TEST_P(PartitionProperties, PartitionsAreDisjointAndComplete) {
  auto ex = testing::MakePaperExample();
  Rng rng(static_cast<uint64_t>(GetParam()) * 13 + 3);
  PlanPtr q = RandomQuery(&rng);
  auto info_or = reformulation::AnalyzeTargetQuery(q, ex.target_schema);
  ASSERT_TRUE(info_or.ok());
  const auto& info = info_or.ValueOrDie();
  auto tree = qsharing::PartitionTree::Build(info, ex.mappings);
  ASSERT_TRUE(tree.ok());

  size_t total_members = 0;
  double total_prob = 0.0;
  std::set<const mapping::Mapping*> seen;
  for (size_t i = 0; i < tree.ValueOrDie().partitions().size(); ++i) {
    const auto& p = tree.ValueOrDie().partitions()[i];
    total_members += p.members.size();
    total_prob += p.total_probability;
    std::string sig;
    for (size_t j = 0; j < p.members.size(); ++j) {
      EXPECT_TRUE(seen.insert(p.members[j]).second) << "overlap";
      std::string s = reformulation::MappingSignature(info, *p.members[j]);
      if (j == 0) {
        sig = s;
      } else {
        EXPECT_EQ(s, sig) << "mixed signatures within a partition";
      }
    }
    if (i != tree.ValueOrDie().unanswerable_index()) {
      EXPECT_NE(sig, reformulation::kUnanswerableSignature);
    }
  }
  EXPECT_EQ(total_members, ex.mappings.size());
  EXPECT_NEAR(total_prob, 1.0, 1e-9);

  // Distinct partitions have distinct signatures.
  std::set<std::string> sigs;
  for (const auto& p : tree.ValueOrDie().partitions()) {
    EXPECT_TRUE(
        sigs.insert(reformulation::MappingSignature(info, *p.members[0]))
            .second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionProperties,
                         ::testing::Range(0, 16));

class GeneratorProperties : public ::testing::TestWithParam<int> {};

TEST_P(GeneratorProperties, RandomCorrespondenceGraphs) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 97 + 11);
  std::vector<matching::Correspondence> corrs;
  int targets = static_cast<int>(rng.Uniform(2, 5));
  int sources = static_cast<int>(rng.Uniform(2, 6));
  for (int t = 0; t < targets; ++t) {
    for (int s = 0; s < sources; ++s) {
      if (rng.Bernoulli(0.5)) {
        corrs.push_back(matching::Correspondence{
            "src.a" + std::to_string(s), "T.b" + std::to_string(t),
            0.2 + 0.6 * rng.NextDouble()});
      }
    }
  }
  if (corrs.empty()) return;
  mapping::MappingGenOptions options;
  options.h = 15;
  auto mappings = mapping::GenerateMappings(corrs, options);
  ASSERT_TRUE(mappings.ok());
  const auto& ms = mappings.ValueOrDie();
  if (ms.empty()) return;
  EXPECT_NEAR(mapping::TotalProbability(ms), 1.0, 1e-9);
  for (size_t i = 0; i < ms.size(); ++i) {
    EXPECT_GT(ms[i].size(), 0u);
    EXPECT_GE(ms[i].probability(), 0.0);
    if (i > 0) {
      EXPECT_LE(ms[i].score(), ms[i - 1].score() + 1e-9);
    }
    for (size_t j = i + 1; j < ms.size(); ++j) {
      EXPECT_FALSE(ms[i].SamePairs(ms[j]));
    }
    double ratio = mapping::OverlapRatio(ms[0], ms[i]);
    EXPECT_GE(ratio, 0.0);
    EXPECT_LE(ratio, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorProperties,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace urm
