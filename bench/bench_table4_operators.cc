/// \file bench_table4_operators.cc
/// Table IV: evaluation time and number of source operators executed
/// for Q4 under Random / SNF / SEF, compared against e-MQO's
/// (near-)optimal global plan. Paper: Random 215s/433 ops, SNF 58s/135,
/// SEF 55s/132, e-MQO 320s/112 — SNF/SEF close to optimal operator
/// counts at a fraction of e-MQO's time.

#include "bench/bench_util.h"

int main() {
  using namespace urm;
  bench::PrintHeader("Table IV: operator selection strategies on Q4",
                     "ICDE'12 Table IV");
  bench::EngineCache engines;
  auto q = core::DefaultQuery();
  core::Engine* engine =
      engines.Get(q.schema, bench::BenchMb(), bench::BenchH());

  std::printf("\n%-10s %-12s %-18s\n", "strategy", "time(s)",
              "#source operators");
  for (auto strategy :
       {osharing::StrategyKind::kRandom, osharing::StrategyKind::kSNF,
        osharing::StrategyKind::kSEF}) {
    int runs = bench::BenchRuns();
    double total = 0.0;
    size_t ops = 0;
    for (int i = 0; i < runs; ++i) {
      auto response = engine->Run(
          core::Request::MethodEval(q.query, core::Method::kOSharing)
              .WithStrategy(strategy));
      URM_CHECK(response.ok()) << response.status().ToString();
      const baselines::MethodResult& result = response.ValueOrDie().evaluate;
      total += result.TotalSeconds();
      ops = result.stats.operators_executed;
    }
    std::printf("%-10s %-12.4f %-18zu\n", osharing::StrategyName(strategy),
                total / runs, ops);
  }
  {
    double t_emqo = 0.0;
    auto emqo = bench::TimedEvaluate(*engine, q.query, core::Method::kEMqo,
                                     &t_emqo);
    std::printf("%-10s %-12.4f %-18zu\n", "e-MQO", t_emqo,
                emqo.stats.operators_executed);
  }
  std::printf("\n# paper shape: ops(SEF) <= ops(SNF) << ops(Random); "
              "ops(e-MQO) minimal but its time largest\n");
  return 0;
}
