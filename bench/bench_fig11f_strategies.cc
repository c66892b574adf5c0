/// \file bench_fig11f_strategies.cc
/// Figure 11(f): o-sharing operator-selection strategies (Random, SNF,
/// SEF) on the Excel queries Q1-Q5. Paper shape: SNF and SEF both far
/// better than Random; SEF the fastest overall.

#include "bench/bench_util.h"

int main() {
  using namespace urm;
  bench::PrintHeader("Figure 11(f): operator selection strategies",
                     "ICDE'12 Fig. 11(f)");
  bench::EngineCache engines;
  core::Engine* engine = engines.Get(datagen::TargetSchemaId::kExcel,
                                     bench::BenchMb(), bench::BenchH());

  std::printf("\n%-5s %-12s %-10s %-10s\n", "query", "Random(s)",
              "SNF(s)", "SEF(s)");
  for (const auto& wq : core::PaperWorkload()) {
    if (wq.schema != datagen::TargetSchemaId::kExcel) continue;  // Q1-Q5
    double times[3] = {0, 0, 0};
    const osharing::StrategyKind strategies[3] = {
        osharing::StrategyKind::kRandom, osharing::StrategyKind::kSNF,
        osharing::StrategyKind::kSEF};
    for (int s = 0; s < 3; ++s) {
      int runs = bench::BenchRuns();
      double total = 0.0;
      for (int i = 0; i < runs; ++i) {
        auto response = engine->Run(
            core::Request::MethodEval(wq.query, core::Method::kOSharing)
                .WithStrategy(strategies[s]));
        URM_CHECK(response.ok()) << response.status().ToString();
        total += response.ValueOrDie().evaluate.TotalSeconds();
      }
      times[s] = total / runs;
    }
    std::printf("%-5s %-12.4f %-10.4f %-10.4f\n", wq.id.c_str(),
                times[0], times[1], times[2]);
  }
  std::printf("\n# paper shape: SEF <= SNF << Random\n");
  return 0;
}
