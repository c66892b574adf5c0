/// \file bench_live_traffic.cc
/// Serving under live updates: p99 latency and answer-cache hit rate
/// of a repeating query wave while a background-style ingest trickle
/// mutates ONE source relation. Invalidation is delta-aware: a delta
/// fences only cached answers whose source footprint includes the
/// touched relation. The trickle targets `region`, which none of the
/// workload queries read, so the wave should keep serving hits at
/// every update rate — the JSONL records hit rate and latency per
/// rate. Not a paper figure: the paper's catalogs are static; this
/// measures the live-update subsystem the reproduction adds
/// (docs/LIVE.md).
///
/// Scale knobs: URM_BENCH_MB / URM_BENCH_H size the engine,
/// URM_BENCH_LIVE_WAVES sets measured query waves per point (default
/// 30). Update rates are deltas applied between consecutive waves.
/// Absolute numbers depend on the machine; every JSONL line records
/// `hw_threads`.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "live/ingest.h"
#include "relational/delta.h"
#include "service/query_service.h"

namespace {

using namespace urm;  // NOLINT

/// One wave of distinct requests spanning all four kinds.
std::vector<core::Request> QueryWave() {
  std::vector<core::Request> wave;
  for (const char* id : {"Q1", "Q2", "Q3", "Q4", "Q5"}) {
    wave.push_back(core::Request::MethodEval(core::QueryById(id).query,
                                             core::Method::kOSharing));
  }
  wave.push_back(core::Request::TopK(core::QueryById("Q1").query, 5));
  wave.push_back(core::Request::SetOp(core::QueryById("Q3").query,
                                      core::QueryById("Q4").query,
                                      core::SetOpKind::kUnion));
  wave.push_back(
      core::Request::Threshold(core::QueryById("Q2").query, 0.1));
  return wave;
}

/// One single-row insert into `region` (3 columns in the TPC-H
/// instance) — the single-relation trickle op.
relational::DeltaBatch TrickleBatch(uint64_t serial) {
  relational::DeltaBatch batch;
  relational::DeltaOp op;
  op.kind = relational::DeltaOpKind::kInsert;
  op.relation = "region";
  op.row = {"rt" + std::to_string(serial), "TRICKLE",
            "bench_live_traffic row"};
  batch.ops.push_back(std::move(op));
  return batch;
}

struct RateResult {
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double hit_rate = 0.0;
  size_t fenced_answers = 0;
};

/// Runs `waves` query waves with `rate` deltas applied between
/// consecutive waves, on a fresh service.
RateResult RunRate(core::Engine* engine, int rate, int waves,
                   const std::vector<core::Request>& wave,
                   uint64_t* serial) {
  service::ServiceOptions service_options;
  service_options.num_threads = 2;
  service_options.enable_metrics = false;
  service::QueryService service(engine, service_options);
  live::IngestOptions ingest_options;
  ingest_options.enable_metrics = false;
  live::IngestController controller(engine, &service, ingest_options);

  // Warm wave: populates the cache so wave 1 starts from the steady
  // state a long-running server would be in.
  for (const core::Request& request : wave) {
    auto response = service.Submit(request);
    URM_CHECK(response.status.ok()) << response.status.ToString();
  }
  const service::CacheStats before = service.cache_stats();

  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(waves) * wave.size());
  double total_ms = 0.0;
  for (int w = 0; w < waves; ++w) {
    for (int d = 0; d < rate; ++d) {
      auto report = controller.Apply(TrickleBatch((*serial)++));
      URM_CHECK(report.ok()) << report.status().ToString();
    }
    for (const core::Request& request : wave) {
      Timer timer;
      auto response = service.Submit(request);
      double ms = timer.Seconds() * 1e3;
      URM_CHECK(response.status.ok()) << response.status.ToString();
      samples.push_back(ms);
      total_ms += ms;
    }
  }

  std::sort(samples.begin(), samples.end());
  const service::CacheStats after = service.cache_stats();
  RateResult result;
  result.p99_ms = samples[samples.size() * 99 / 100 == samples.size()
                              ? samples.size() - 1
                              : samples.size() * 99 / 100];
  result.mean_ms = total_ms / static_cast<double>(samples.size());
  const size_t hits = after.hits - before.hits;
  const size_t lookups =
      (after.hits + after.misses) - (before.hits + before.misses);
  result.hit_rate =
      lookups > 0 ? static_cast<double>(hits) / lookups : 0.0;
  result.fenced_answers = controller.stats().fenced_answers;
  return result;
}

}  // namespace

int main() {
  const double mb = bench::EnvDouble("URM_BENCH_MB", 0.5);
  const int h = bench::EnvInt("URM_BENCH_H", 50);
  const int waves = bench::EnvInt("URM_BENCH_LIVE_WAVES", 30);
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf("# live traffic: query wave p99 / hit rate vs update "
              "rate under delta-aware invalidation\n");
  std::printf("# scale: |D|=%.1f MB, h=%d, waves=%d, hw_threads=%u\n",
              mb, h, waves, hw);

  core::Engine::Options options;
  options.target_mb = mb;
  options.num_mappings = h;
  auto engine = core::Engine::Create(options);
  URM_CHECK(engine.ok()) << engine.status().ToString();
  const std::vector<core::Request> wave = QueryWave();
  std::printf("# wave: %zu requests; trickle: single-row inserts into "
              "'region' (read by no wave query)\n\n",
              wave.size());

  std::printf("%8s %10s %10s %10s %10s\n", "rate", "p99_ms", "mean_ms",
              "hit_rate", "fenced");
  uint64_t serial = 0;
  for (const int rate : {0, 1, 4, 16}) {
    RateResult result =
        RunRate(engine.ValueOrDie().get(), rate, waves, wave, &serial);
    std::printf("%8d %10.3f %10.3f %9.1f%% %10zu\n", rate, result.p99_ms,
                result.mean_ms, result.hit_rate * 100.0,
                result.fenced_answers);
    bench::JsonLine("live_traffic")
        .Field("update_rate", rate)
        .Field("waves", waves)
        .Field("wave_size", wave.size())
        .Field("p99_ms", result.p99_ms)
        .Field("mean_ms", result.mean_ms)
        .Field("hit_rate", result.hit_rate)
        .Field("fenced_answers", result.fenced_answers)
        .Field("mb", mb)
        .Field("h", h)
        .Field("hw_threads", static_cast<int>(hw))
        .Emit();
  }
  return 0;
}
