/// \file bench_service_throughput.cc
/// QueryService batch throughput: QPS and scaling vs. pool size, plus
/// the answer-cache hit speedup. Not a paper figure — this measures the
/// serving tier the reproduction adds on top of the paper's methods.
///
/// Defaults follow the paper-style configuration of the service PR
/// (|D| = 5 MB, h = 100); override with URM_BENCH_MB / URM_BENCH_H /
/// URM_BENCH_RUNS. Scaling beyond 1x requires real cores: the JSON
/// lines record `hw_threads` so trajectories across machines stay
/// interpretable.

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "service/query_service.h"

namespace {

using namespace urm;  // NOLINT

/// A batch of distinct (plan, method) work items over the Excel schema:
/// Q1-Q5 plus the parametric families, crossed with the shareable
/// methods.
std::vector<core::Request> DistinctWorkload() {
  std::vector<algebra::PlanPtr> plans;
  for (const char* id : {"Q1", "Q2", "Q3", "Q4", "Q5"}) {
    plans.push_back(core::QueryById(id).query);
  }
  for (int n = 1; n <= 5; ++n) {
    plans.push_back(core::SelectionChainQuery(n));
  }
  plans.push_back(core::SelfJoinQuery(1));
  plans.push_back(core::SelfJoinQuery(2));

  std::vector<core::Request> requests;
  for (const auto& plan : plans) {
    for (core::Method method :
         {core::Method::kEBasic, core::Method::kQSharing,
          core::Method::kOSharing}) {
      requests.push_back(core::Request::MethodEval(plan, method));
    }
  }
  return requests;
}

double MeasureBatchSeconds(service::QueryService* service,
                           const std::vector<core::Request>& batch) {
  Timer timer;
  auto responses = service->Submit(batch);
  double seconds = timer.Seconds();
  for (const auto& r : responses) {
    URM_CHECK(r.status.ok()) << r.status.ToString();
  }
  return seconds;
}

/// Records when the first streamed leaf answer lands.
class FirstAnswerSink : public core::AnswerSink {
 public:
  bool OnAnswer(const std::vector<relational::Row>&, double) override {
    if (answers_++ == 0) first_seconds_ = timer_.Seconds();
    return true;
  }

  size_t answers() const { return answers_; }
  double first_seconds() const { return first_seconds_; }

 private:
  Timer timer_;
  size_t answers_ = 0;
  double first_seconds_ = 0.0;
};

/// Streams `request` once and reports (time-to-first-answer,
/// time-to-complete, leaves).
struct StreamTiming {
  double first_ms = 0.0;
  double total_ms = 0.0;
  size_t leaves = 0;
};

StreamTiming MeasureStream(service::QueryService* service,
                           const core::Request& request) {
  FirstAnswerSink sink;
  Timer timer;
  auto response = service->Submit(request, &sink);
  URM_CHECK(response.status.ok()) << response.status.ToString();
  StreamTiming timing;
  timing.total_ms = timer.Seconds() * 1e3;
  timing.first_ms = sink.first_seconds() * 1e3;
  timing.leaves = sink.answers();
  return timing;
}

}  // namespace

int main() {
  double mb = bench::EnvDouble("URM_BENCH_MB", 5.0);
  int h = bench::EnvInt("URM_BENCH_H", 100);
  int runs = bench::BenchRuns();
  unsigned hw = std::thread::hardware_concurrency();

  std::printf("# service throughput: batch QPS vs. pool size\n");
  std::printf("# scale: |D|=%.1f MB, h=%d, runs=%d, hw_threads=%u\n", mb, h,
              runs, hw);

  core::Engine::Options options;
  options.target_mb = mb;
  options.num_mappings = h;
  auto engine = core::Engine::Create(options);
  URM_CHECK(engine.ok()) << engine.status().ToString();

  std::vector<core::Request> batch = DistinctWorkload();
  std::printf("# batch: %zu requests (all distinct plans/methods)\n\n",
              batch.size());

  // --- scaling: cache off, so every run evaluates the full batch.
  std::printf("%-10s %10s %10s %10s\n", "threads", "ms", "QPS", "speedup");
  double baseline_seconds = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    service::ServiceOptions service_options;
    service_options.num_threads = threads;
    service_options.cache_capacity = 0;
    service::QueryService service(engine.ValueOrDie().get(),
                                  service_options);
    double best = 0.0;
    for (int r = 0; r < runs; ++r) {
      double seconds = MeasureBatchSeconds(&service, batch);
      if (r == 0 || seconds < best) best = seconds;
    }
    if (threads == 1) baseline_seconds = best;
    double qps = static_cast<double>(batch.size()) / best;
    double speedup = baseline_seconds / best;
    std::printf("%-10d %10.1f %10.1f %9.2fx\n", threads, best * 1e3, qps,
                speedup);
    bench::JsonLine("service_throughput")
        .Field("config", "scaling")
        .Field("threads", threads)
        .Field("hw_threads", static_cast<int>(hw))
        .Field("mb", mb)
        .Field("h", h)
        .Field("batch", batch.size())
        .Field("ms", best * 1e3)
        .Field("qps", qps)
        .Field("speedup", speedup)
        .Emit();
  }

  // --- answer cache: warm once, then serve the same batch from cache.
  service::ServiceOptions cached_options;
  cached_options.num_threads = 4;
  service::QueryService cached(engine.ValueOrDie().get(), cached_options);
  double cold = MeasureBatchSeconds(&cached, batch);
  double warm = 0.0;
  for (int r = 0; r < runs; ++r) {
    double seconds = MeasureBatchSeconds(&cached, batch);
    if (r == 0 || seconds < warm) warm = seconds;
  }
  service::CacheStats stats = cached.cache_stats();
  std::printf("\ncache: cold %.1f ms, warm %.1f ms (%.0fx), "
              "%zu hits / %zu misses\n",
              cold * 1e3, warm * 1e3, cold / warm, stats.hits,
              stats.misses);
  bench::JsonLine("service_throughput")
      .Field("config", "cache")
      .Field("mb", mb)
      .Field("h", h)
      .Field("batch", batch.size())
      .Field("cold_ms", cold * 1e3)
      .Field("warm_ms", warm * 1e3)
      .Field("hit_speedup", cold / warm)
      .Field("hits", stats.hits)
      .Field("misses", stats.misses)
      .Emit();

  // --- metrics overhead: the same repeat-wave batch (cache warmed, so
  // every request is a hit and the serving tier's fixed costs dominate)
  // with the metrics registry off vs on. The per-request metric work is
  // a handful of relaxed striped-atomic increments plus one clock read,
  // so the overhead budget is <= 2% even on this worst case; real
  // evaluating workloads amortize it to noise.
  obs::Registry overhead_registries[2];
  std::unique_ptr<service::QueryService> overhead_services[2];
  for (int enabled = 0; enabled <= 1; ++enabled) {
    service::ServiceOptions metric_options;
    metric_options.num_threads = 4;
    metric_options.enable_metrics = enabled != 0;
    metric_options.metrics_registry = &overhead_registries[enabled];
    overhead_services[enabled] = std::make_unique<service::QueryService>(
        engine.ValueOrDie().get(), metric_options);
    MeasureBatchSeconds(overhead_services[enabled].get(), batch);  // warm
  }
  // Calibrate the wave count so each measured window is ~50 ms: a
  // sub-millisecond window drowns a few-percent delta in scheduler
  // jitter on small URM_BENCH_MB. Calibration takes the fastest of a
  // few warm waves for the same reason.
  double wave_seconds = 1e9;
  for (int w = 0; w < 5; ++w) {
    wave_seconds = std::min(
        wave_seconds, MeasureBatchSeconds(overhead_services[0].get(), batch));
  }
  const int waves =
      std::max(20, static_cast<int>(0.05 / std::max(wave_seconds, 1e-6)));
  // Off/on windows interleave so slow machine drift hits both sides
  // equally; best-of over the pairs discards jitter spikes.
  double wave_ms[2] = {0.0, 0.0};
  for (int r = 0; r < std::max(runs, 5); ++r) {
    for (int enabled = 0; enabled <= 1; ++enabled) {
      Timer timer;
      for (int w = 0; w < waves; ++w) {
        MeasureBatchSeconds(overhead_services[enabled].get(), batch);
      }
      double ms = timer.Seconds() * 1e3;
      if (r == 0 || ms < wave_ms[enabled]) wave_ms[enabled] = ms;
    }
  }
  double overhead_pct = (wave_ms[1] / wave_ms[0] - 1.0) * 100.0;
  std::printf("\nmetrics: %d repeat waves off %.2f ms, on %.2f ms "
              "(overhead %.2f%%)\n",
              waves, wave_ms[0], wave_ms[1], overhead_pct);
  bench::JsonLine("service_throughput")
      .Field("config", "metrics_overhead")
      .Field("hw_threads", static_cast<int>(hw))
      .Field("mb", mb)
      .Field("h", h)
      .Field("batch", batch.size())
      .Field("waves", waves)
      .Field("metrics_off_ms", wave_ms[0])
      .Field("metrics_on_ms", wave_ms[1])
      .Field("overhead_pct", overhead_pct)
      .Emit();

  // --- streaming: time-to-first-answer vs. time-to-complete. The
  // AnswerSink taps the u-trace leaf stream, so a consumer sees the
  // first partition's answers while the remaining partitions are
  // still evaluating (cache bypassed: streaming always evaluates).
  std::printf("\n%-24s %12s %12s %8s\n", "stream", "first_ms",
              "complete_ms", "leaves");
  service::ServiceOptions stream_options;
  stream_options.num_threads = 1;
  stream_options.cache_capacity = 0;
  service::QueryService streaming(engine.ValueOrDie().get(),
                                  stream_options);
  struct StreamCase {
    const char* label;
    core::Request request;
  };
  const StreamCase cases[] = {
      {"Q4:osharing", core::Request::MethodEval(core::QueryById("Q4").query,
                                                core::Method::kOSharing)},
      {"Q4:topk:5", core::Request::TopK(core::QueryById("Q4").query, 5)},
      {"Q2:osharing", core::Request::MethodEval(core::QueryById("Q2").query,
                                                core::Method::kOSharing)},
  };
  for (const auto& c : cases) {
    StreamTiming best;
    for (int r = 0; r < runs; ++r) {
      StreamTiming timing = MeasureStream(&streaming, c.request);
      if (r == 0 || timing.total_ms < best.total_ms) best = timing;
    }
    std::printf("%-24s %12.2f %12.2f %8zu\n", c.label, best.first_ms,
                best.total_ms, best.leaves);
    bench::JsonLine("service_throughput")
        .Field("config", "streaming")
        .Field("case", c.label)
        .Field("mb", mb)
        .Field("h", h)
        .Field("first_answer_ms", best.first_ms)
        .Field("complete_ms", best.total_ms)
        .Field("leaves", best.leaves)
        .Emit();
  }
  return 0;
}
