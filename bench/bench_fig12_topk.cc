/// \file bench_fig12_topk.cc
/// Figure 12(a-c): the top-k algorithm vs full o-sharing on Q4 (Excel),
/// Q7 (Noris) and Q10 (Paragon) for k in {1,5,10,15,20}. Paper shape:
/// top-k clearly faster for small k; the advantage vanishes when k
/// reaches the number of distinct answers (Q10 at k >= 10).

#include "bench/bench_util.h"

int main() {
  using namespace urm;
  bench::PrintHeader("Figure 12: probabilistic top-k vs o-sharing",
                     "ICDE'12 Fig. 12(a-c)");
  bench::EngineCache engines;

  for (const char* id : {"Q4", "Q7", "Q10"}) {
    auto q = core::QueryById(id);
    core::Engine* engine =
        engines.Get(q.schema, bench::BenchMb(), bench::BenchH());
    double t_full = 0.0;
    auto full = bench::TimedEvaluate(*engine, q.query,
                                     core::Method::kOSharing, &t_full);
    std::printf("\n%s (%s): %zu distinct answers, o-sharing %.4fs\n", id,
                datagen::TargetSchemaName(q.schema), full.answers.size(),
                t_full);
    std::printf("%-6s %-10s %-14s %-8s\n", "k", "top-k(s)",
                "leaves visited", "early?");
    for (size_t k : {1, 5, 10, 15, 20}) {
      int runs = bench::BenchRuns();
      double total = 0.0;
      size_t leaves = 0;
      bool early = false;
      for (int i = 0; i < runs; ++i) {
        auto response = engine->Run(core::Request::TopK(q.query, k));
        URM_CHECK(response.ok()) << response.status().ToString();
        const topk::TopKResult& result = response.ValueOrDie().top_k;
        total += result.seconds;
        leaves = result.leaves_visited;
        early = result.early_terminated;
      }
      std::printf("%-6zu %-10.4f %-14zu %-8s\n", k, total / runs, leaves,
                  early ? "yes" : "no");
    }
  }
  std::printf("\n# paper shape: top-k < o-sharing for small k; "
              "equal once k >= #distinct answers\n");
  return 0;
}
