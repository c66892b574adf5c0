/// \file quickstart.cpp
/// Minimal end-to-end use of the library:
///   1. generate a TPC-H-style source instance,
///   2. match it against the Excel purchase-order schema,
///   3. enumerate the 100 most likely mappings,
///   4. evaluate a probabilistic query with o-sharing.
///
/// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "core/engine.h"
#include "core/workload.h"

int main() {
  using namespace urm;

  core::Engine::Options options;
  options.target_mb = 1.0;  // ~8.7k tuples; the paper uses 100 MB
  options.num_mappings = 100;
  options.target_schema = datagen::TargetSchemaId::kExcel;

  auto engine = core::Engine::Create(options);
  if (!engine.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }

  std::printf("source instance: %zu tuples across %zu relations\n",
              engine.ValueOrDie()->catalog().TotalRows(),
              engine.ValueOrDie()->catalog().Names().size());
  std::printf("correspondences: %zu, possible mappings: %zu "
              "(o-ratio %.0f%%)\n\n",
              engine.ValueOrDie()->correspondences().size(),
              engine.ValueOrDie()->mappings().size(),
              100.0 * engine.ValueOrDie()->MappingOverlapRatio());

  // Q1 (paper Table III): three selections on the target PO table.
  auto q = core::QueryById("Q1");
  std::printf("target query %s:\n%s\n", q.id.c_str(),
              algebra::ToString(q.query).c_str());

  auto response = engine.ValueOrDie()->Run(
      core::Request::MethodEval(q.query, core::Method::kOSharing));
  if (!response.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }
  const baselines::MethodResult& result = response.ValueOrDie().evaluate;
  std::printf("answers (tuple, probability):\n%s\n",
              result.answers.ToString(10).c_str());
  std::printf("executed %zu source operators over %zu mapping "
              "partitions in %.3fs\n",
              result.stats.operators_executed, result.partitions,
              result.TotalSeconds());
  return 0;
}
