/// \file data_integration.cpp
/// The paper's motivating scenario (§I): an application issues queries
/// against a partner's purchase-order schema (the *target*) while the
/// data lives in the local warehouse (the *source*), and the schema
/// matching between the two is uncertain. The example shows:
///   * why picking only the best mapping loses answers,
///   * how the five evaluation methods compare on the same query,
///   * how answer probabilities guide a downstream decision.
///
/// Build & run:  ./build/examples/data_integration

#include <cstdio>

#include "core/engine.h"
#include "core/workload.h"

int main() {
  using namespace urm;

  core::Engine::Options options;
  options.target_mb = 1.0;
  options.num_mappings = 100;
  options.target_schema = datagen::TargetSchemaId::kParagon;
  auto engine_or = core::Engine::Create(options);
  if (!engine_or.ok()) {
    std::fprintf(stderr, "%s\n", engine_or.status().ToString().c_str());
    return 1;
  }
  core::Engine& engine = *engine_or.ValueOrDie();

  // The best mapping vs the full possible-mapping set.
  const auto& best = engine.mappings().front();
  std::printf("best mapping covers %zu attributes with probability "
              "%.3f — %.1f%% of the probability mass would be ignored "
              "by committing to it\n\n",
              best.size(), best.probability(),
              100.0 * (1.0 - best.probability()));

  auto q = core::QueryById("Q8");  // billTo/shipToAddress/shipToPhone
  std::printf("query Q8 (who is billed at the watched address/phone):\n%s\n",
              algebra::ToString(q.query).c_str());

  // Evaluate under only the top mapping: a single world.
  engine.UseTopMappings(1);
  auto single =
      engine.Run(core::Request::MethodEval(q.query, core::Method::kBasic));
  if (!single.ok()) return 1;
  const reformulation::AnswerSet& single_answers =
      single.ValueOrDie().evaluate.answers;
  std::printf("answers using ONLY the best mapping:\n%s\n",
              single_answers.ToString(5).c_str());

  // Evaluate under all 100 possible mappings.
  engine.UseTopMappings(100);
  auto full =
      engine.Run(core::Request::MethodEval(q.query, core::Method::kOSharing));
  if (!full.ok()) return 1;
  const reformulation::AnswerSet& full_answers =
      full.ValueOrDie().evaluate.answers;
  std::printf("answers under the full uncertain matching:\n%s\n",
              full_answers.ToString(5).c_str());
  std::printf("tuples missed by the single-mapping shortcut: %zu\n\n",
              full_answers.size() - single_answers.size());

  // Method comparison on this query.
  std::printf("%-12s %-10s %-12s %-12s\n", "method", "time(s)",
              "src queries", "operators");
  for (core::Method m :
       {core::Method::kBasic, core::Method::kEBasic, core::Method::kEMqo,
        core::Method::kQSharing, core::Method::kOSharing}) {
    auto response = engine.Run(core::Request::MethodEval(q.query, m));
    if (!response.ok()) return 1;
    const baselines::MethodResult& r = response.ValueOrDie().evaluate;
    std::printf("%-12s %-10.4f %-12zu %-12zu\n", core::MethodName(m),
                r.TotalSeconds(), r.source_queries,
                r.stats.operators_executed);
  }
  return 0;
}
