/// \file bench_operator_store.cc
/// The shared operator store (paper §IX "data structures to facilitate
/// o-sharing evaluation") measured three ways:
///   * cross_query — an overlapping o-sharing workload evaluated twice
///     through one QueryService (answer cache off): the second wave
///     reuses the first wave's materialized selections/scans; the hit
///     rate and the wave2/wave1 times quantify cross-query o-sharing.
///   * single_flight — the same wave submitted concurrently: identical
///     operator needs collapse to one computation (waits counted).
///   * fanout — recursive u-trace fan-out vs root-only vs sequential on
///     a skewed partition tree; recursive load-balances heavy subtrees.
///
/// Scale knobs as the other benches: URM_BENCH_MB / URM_BENCH_H /
/// URM_BENCH_RUNS. Thread scaling needs real cores; every JSON line
/// records hw_threads so trajectories across machines stay
/// interpretable.

#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "osharing/osharing.h"
#include "service/query_service.h"

namespace {

using namespace urm;  // NOLINT

/// Overlapping o-sharing requests: selection chains share their scan
/// and selection prefixes, the workload queries share base scans.
std::vector<core::Request> OverlappingWorkload() {
  std::vector<core::Request> requests;
  for (int n = 1; n <= 5; ++n) {
    requests.push_back(core::Request::MethodEval(
        core::SelectionChainQuery(n), core::Method::kOSharing));
  }
  for (const char* id : {"Q1", "Q2", "Q3", "Q4", "Q5"}) {
    requests.push_back(core::Request::MethodEval(core::QueryById(id).query,
                                                 core::Method::kOSharing));
  }
  return requests;
}

double SubmitAllSeconds(service::QueryService* service,
                        const std::vector<core::Request>& requests) {
  Timer timer;
  for (const auto& request : requests) {
    auto response = service->Submit(request);
    URM_CHECK(response.status.ok()) << response.status.ToString();
  }
  return timer.Seconds();
}

double SubmitConcurrentSeconds(service::QueryService* service,
                               const std::vector<core::Request>& requests) {
  Timer timer;
  std::vector<std::future<service::QueryResponse>> futures;
  futures.reserve(requests.size());
  for (const auto& request : requests) {
    futures.push_back(service->SubmitAsync(request));
  }
  for (auto& future : futures) {
    auto response = future.get();
    URM_CHECK(response.status.ok()) << response.status.ToString();
  }
  return timer.Seconds();
}

/// Discards leaves; RunOSharing's accumulator does the real work.
double RunOSharingSeconds(const core::Engine& engine,
                          const algebra::PlanPtr& query,
                          const osharing::OSharingOptions& options) {
  auto info = engine.Analyze(query);
  URM_CHECK(info.ok()) << info.status().ToString();
  Timer timer;
  auto result = osharing::RunOSharing(info.ValueOrDie(), engine.mappings(),
                                      engine.catalog(), options);
  URM_CHECK(result.ok()) << result.status().ToString();
  return timer.Seconds();
}

}  // namespace

int main() {
  double mb = bench::EnvDouble("URM_BENCH_MB", 2.0);
  int h = bench::EnvInt("URM_BENCH_H", 100);
  int runs = bench::BenchRuns();
  unsigned hw = std::thread::hardware_concurrency();

  std::printf("# operator store: cross-query sharing, single-flight, "
              "recursive fan-out\n");
  std::printf("# scale: |D|=%.1f MB, h=%d, runs=%d, hw_threads=%u\n\n", mb,
              h, runs, hw);

  core::Engine::Options engine_options;
  engine_options.target_mb = mb;
  engine_options.num_mappings = h;
  auto engine = core::Engine::Create(engine_options);
  URM_CHECK(engine.ok()) << engine.status().ToString();

  std::vector<core::Request> workload = OverlappingWorkload();

  // --- cross_query: wave 2 repeats wave 1 with the answer cache off,
  // so every reuse is operator-level sharing through the store.
  // Best-of-runs per wave (fresh service each run): single runs jitter
  // by tens of percent on small machines, far above the store effect.
  {
    int wave_runs = runs < 3 ? 3 : runs;
    service::ServiceOptions options;
    options.num_threads = 2;
    options.cache_capacity = 0;

    double wave1 = 0.0, wave2 = 0.0;
    osharing::OperatorStoreStats stats;  // deterministic across runs
    for (int r = 0; r < wave_runs; ++r) {
      service::QueryService service(engine.ValueOrDie().get(), options);
      double w1 = SubmitAllSeconds(&service, workload);
      double w2 = SubmitAllSeconds(&service, workload);
      if (r == 0 || w1 < wave1) wave1 = w1;
      if (r == 0 || w2 < wave2) wave2 = w2;
      stats = service.operator_store_stats();
    }
    double lookups = static_cast<double>(stats.hits + stats.misses);
    double hit_rate = lookups > 0 ? stats.hits / lookups : 0.0;

    std::printf("cross_query: %zu requests/wave\n", workload.size());
    std::printf("  wave1 %7.1f ms, wave2 %7.1f ms "
                "(hit rate %.2f, %zu hits, %.1f KB reused)\n",
                wave1 * 1e3, wave2 * 1e3, hit_rate, stats.hits,
                stats.bytes_reused / 1024.0);
    bench::JsonLine("operator_store")
        .Field("config", "cross_query")
        .Field("mb", mb)
        .Field("h", h)
        .Field("hw_threads", static_cast<int>(hw))
        .Field("requests_per_wave", workload.size())
        .Field("wave1_ms", wave1 * 1e3)
        .Field("wave2_ms", wave2 * 1e3)
        .Field("hit_rate", hit_rate)
        .Field("hits", stats.hits)
        .Field("misses", stats.misses)
        .Field("bytes_reused", stats.bytes_reused)
        .Emit();
  }

  // --- single_flight: the whole overlapping wave in flight at once;
  // concurrent branches needing one selection compute it once.
  {
    service::ServiceOptions options;
    options.num_threads = 4;
    options.cache_capacity = 0;
    service::QueryService service(engine.ValueOrDie().get(), options);
    double best = 0.0;
    for (int r = 0; r < runs; ++r) {
      service::QueryService fresh(engine.ValueOrDie().get(), options);
      double seconds = SubmitConcurrentSeconds(&fresh, workload);
      if (r == 0 || seconds < best) best = seconds;
    }
    double seconds = SubmitConcurrentSeconds(&service, workload);
    osharing::OperatorStoreStats stats = service.operator_store_stats();
    std::printf("\nsingle_flight: %zu concurrent requests, %.1f ms "
                "(%zu single-flight waits, %zu hits / %zu misses)\n",
                workload.size(), seconds * 1e3, stats.single_flight_waits,
                stats.hits, stats.misses);
    bench::JsonLine("operator_store")
        .Field("config", "single_flight")
        .Field("mb", mb)
        .Field("h", h)
        .Field("hw_threads", static_cast<int>(hw))
        .Field("threads", 4)
        .Field("requests", workload.size())
        .Field("ms", best * 1e3)
        .Field("single_flight_waits", stats.single_flight_waits)
        .Field("hits", stats.hits)
        .Field("misses", stats.misses)
        .Emit();
  }

  // --- fanout: sequential vs root-only vs recursive parallel u-trace
  // on a skewed partition tree. Q4's operators partition the mapping
  // set unevenly (partition masses follow the skewed mapping
  // probabilities), so the root-only fan is bound by its largest
  // partition; recursive fan-out splits that subtree again.
  {
    const algebra::PlanPtr query = core::QueryById("Q4").query;
    ThreadPool pool(4);

    osharing::OSharingOptions sequential;

    osharing::OSharingOptions root_only;
    root_only.parallelism = 4;
    root_only.pool = &pool;
    root_only.max_parallel_depth = 1;  // pre-recursive behavior

    // Depth unlocked; the default grain decides which subtrees are
    // worth splitting (a tiny grain just buys clone/queue overhead).
    osharing::OSharingOptions recursive = root_only;
    recursive.max_parallel_depth = 8;

    struct Mode {
      const char* name;
      const osharing::OSharingOptions* options;
    };
    const Mode modes[] = {{"sequential", &sequential},
                          {"root_only", &root_only},
                          {"recursive", &recursive}};
    std::printf("\n%-12s %10s %10s\n", "fanout", "ms", "speedup");
    double baseline = 0.0;
    double root_only_best = 0.0;
    // Best-of at least 3: mode differences are a few percent on small
    // machines, below single-run jitter.
    int fanout_runs = runs < 3 ? 3 : runs;
    for (const Mode& mode : modes) {
      double best = 0.0;
      for (int r = 0; r < fanout_runs; ++r) {
        double seconds =
            RunOSharingSeconds(*engine.ValueOrDie(), query, *mode.options);
        if (r == 0 || seconds < best) best = seconds;
      }
      if (mode.options == &sequential) baseline = best;
      if (mode.options == &root_only) root_only_best = best;
      double speedup = best > 0 ? baseline / best : 0.0;
      std::printf("%-12s %10.1f %9.2fx\n", mode.name, best * 1e3, speedup);
      bench::JsonLine("operator_store")
          .Field("config", "fanout_skewed")
          .Field("mode", mode.name)
          .Field("mb", mb)
          .Field("h", h)
          .Field("hw_threads", static_cast<int>(hw))
          .Field("threads", 4)
          .Field("ms", best * 1e3)
          .Field("speedup_vs_sequential", speedup)
          .Field("throughput_vs_root_only",
                 mode.options == &recursive && best > 0
                     ? root_only_best / best
                     : 1.0)
          .Emit();
    }
  }
  return 0;
}
