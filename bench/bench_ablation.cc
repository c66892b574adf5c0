/// \file bench_ablation.cc
/// Ablations for the design choices DESIGN.md calls out (not a paper
/// figure):
///   (a) partition tree (Algorithm 3) vs naive O(h²) pairwise grouping;
///   (b) top-k partition visit order: descending probability (default)
///       vs insertion order — measured in u-trace leaves visited.

#include "bench/bench_util.h"
#include "common/timer.h"
#include "qsharing/partition_tree.h"
#include "reformulation/target_query.h"
#include "topk/topk.h"

namespace {

using namespace urm;  // NOLINT

/// Naive partitioning: group mappings by pairwise signature comparison.
size_t NaivePartition(const reformulation::TargetQueryInfo& info,
                      const std::vector<mapping::Mapping>& mappings) {
  std::vector<std::vector<const mapping::Mapping*>> partitions;
  for (const auto& m : mappings) {
    std::string sig = reformulation::MappingSignature(info, m);
    bool placed = false;
    for (auto& p : partitions) {
      if (reformulation::MappingSignature(info, *p.front()) == sig) {
        p.push_back(&m);
        placed = true;
        break;
      }
    }
    if (!placed) partitions.push_back({&m});
  }
  return partitions.size();
}

}  // namespace

int main() {
  using namespace urm;
  bench::PrintHeader("Ablations: partition tree, top-k visit order",
                     "DESIGN.md §8 (not a paper figure)");
  bench::EngineCache engines;
  auto q = core::DefaultQuery();
  core::Engine* engine = engines.Get(q.schema, bench::BenchMb(), 300);
  auto info = engine->Analyze(q.query).ValueOrDie();

  // (a) Partition tree vs naive pairwise grouping.
  std::printf("\n[a] mapping partitioning (Q4)\n");
  std::printf("%-8s %-14s %-14s %-12s\n", "h", "tree(ms)", "naive(ms)",
              "partitions");
  for (size_t h : {50, 100, 200, 300}) {
    engine->UseTopMappings(h);
    Timer t;
    auto tree =
        qsharing::PartitionTree::Build(info, engine->mappings());
    double tree_ms = t.Lap() * 1e3;
    URM_CHECK(tree.ok());
    size_t naive_count = NaivePartition(info, engine->mappings());
    double naive_ms = t.Lap() * 1e3;
    URM_CHECK_EQ(naive_count, tree.ValueOrDie().partitions().size());
    std::printf("%-8zu %-14.3f %-14.3f %-12zu\n", h, tree_ms, naive_ms,
                tree.ValueOrDie().partitions().size());
  }

  // (b) top-k visit order.
  std::printf("\n[b] top-k partition visit order (Q4, leaves visited)\n");
  std::printf("%-6s %-18s %-18s\n", "k", "by-probability", "insertion");
  engine->UseTopMappings(static_cast<size_t>(bench::BenchH()));
  for (size_t k : {1, 5, 10}) {
    size_t leaves[2] = {0, 0};
    for (int variant = 0; variant < 2; ++variant) {
      topk::TopKOptions options;
      options.order_partitions_by_probability = (variant == 0);
      auto result = topk::RunTopK(info, engine->mappings(),
                                  engine->catalog(), k, options);
      URM_CHECK(result.ok()) << result.status().ToString();
      leaves[variant] = result.ValueOrDie().leaves_visited;
    }
    std::printf("%-6zu %-18zu %-18zu\n", k, leaves[0], leaves[1]);
  }
  return 0;
}
