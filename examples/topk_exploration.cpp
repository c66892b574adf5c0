/// \file topk_exploration.cpp
/// Probabilistic top-k queries (paper §VII): retrieve only the k most
/// confident answers, without computing exact probabilities. The
/// example shows the [lower, upper] probability bounds the algorithm
/// certifies and how much of the u-trace it prunes as k shrinks.
///
/// Build & run:  ./build/examples/topk_exploration

#include <cstdio>

#include "core/engine.h"
#include "core/workload.h"

int main() {
  using namespace urm;

  core::Engine::Options options;
  options.target_mb = 1.0;
  options.num_mappings = 100;
  options.target_schema = datagen::TargetSchemaId::kNoris;
  auto engine_or = core::Engine::Create(options);
  if (!engine_or.ok()) {
    std::fprintf(stderr, "%s\n", engine_or.status().ToString().c_str());
    return 1;
  }
  core::Engine& engine = *engine_or.ValueOrDie();

  auto q = core::QueryById("Q7");
  std::printf("query Q7 (item number and unit price of a watched "
              "order):\n%s\n",
              algebra::ToString(q.query).c_str());

  // Exhaustive evaluation for reference.
  auto full =
      engine.Run(core::Request::MethodEval(q.query, core::Method::kOSharing));
  if (!full.ok()) return 1;
  std::printf("exhaustive o-sharing: %zu distinct answers in %.4fs\n\n",
              full.ValueOrDie().evaluate.answers.size(),
              full.ValueOrDie().evaluate.TotalSeconds());

  for (size_t k : {1, 3, 10}) {
    auto response = engine.Run(core::Request::TopK(q.query, k));
    if (!response.ok()) {
      std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
      return 1;
    }
    const topk::TopKResult& r = response.ValueOrDie().top_k;
    std::printf("top-%zu: %.4fs, %zu u-trace leaves visited%s\n", k,
                r.seconds, r.leaves_visited,
                r.early_terminated ? " (early termination)" : "");
    for (const auto& t : r.tuples) {
      std::printf("  (");
      for (size_t i = 0; i < t.values.size(); ++i) {
        std::printf("%s%s", i ? ", " : "", t.values[i].ToString().c_str());
      }
      std::printf(")  p in [%.3f, %.3f]\n", t.lower_bound, t.upper_bound);
    }
    std::printf("\n");
  }

  // Threshold variant (library extension): everything above a
  // confidence bar, with the same bound-based pruning.
  for (double threshold : {0.5, 0.2}) {
    auto response = engine.Run(core::Request::Threshold(q.query, threshold));
    if (!response.ok()) {
      std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
      return 1;
    }
    const topk::ThresholdResult& r = response.ValueOrDie().threshold;
    std::printf("threshold %.2f: %zu qualifying tuples, %zu leaves "
                "visited%s\n",
                threshold, r.tuples.size(), r.leaves_visited,
                r.early_terminated ? " (early termination)" : "");
  }
  return 0;
}
