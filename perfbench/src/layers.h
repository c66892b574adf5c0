#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "trace.h"
#include "workload.h"

/// \file layers.h
/// Per-layer metrics from a traced replay. A span's self time is its
/// duration minus its children's; the Submit span's self time on a
/// miss additionally excludes the evaluation time the response itself
/// reports. Phase seconds and counters come from the span attributes
/// of evaluations that ran (cache misses), so a cached answer's
/// counters are not counted twice.

namespace perfbench {

struct LayerValue {
  double value = 0.0;
  std::string unit;
  /// Operations (or batches, or lookups) the value is computed from —
  /// the base of every ratio.
  double samples = 0.0;
};

using LayerMetrics = std::map<std::string, LayerValue>;

/// Service-tier counters summed over the three schemas, read before
/// and after a replay.
struct TierCounters {
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double store_hits = 0.0;
  double store_misses = 0.0;
  double store_bytes_reused = 0.0;
};

/// Every layer metric measurable from `tracer`'s spans of a replay of
/// `ops`, plus the tier-counter ratios from `before` -> `after`.
/// Metrics without samples are left out.
LayerMetrics ComputeLayers(const Tracer& tracer, const Plan& plan,
                           const std::vector<Op>& ops,
                           const TierCounters& before,
                           const TierCounters& after);

/// The exact program counters of a replay (no wall-clock input), for
/// the determinism check: source queries, partitions, tuples produced,
/// operators executed, leaves visited, fenced answers and operators.
std::map<std::string, long long> ExactCounters(const Tracer& tracer);

/// The Fig. 10(a) / Fig. 11(a) report of a paper_methods replay: per
/// query, basic's evaluation share and the o-sharing / q-sharing /
/// e-basic source-query counts, each flagged against the paper's
/// claim. One line per query.
std::vector<std::string> PaperShapeReport(const Tracer& tracer,
                                          const Plan& plan,
                                          const std::vector<Op>& ops);

}  // namespace perfbench
