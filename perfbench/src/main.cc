/// \file main.cc
/// urm_perfbench: the fixed-work end-to-end benchmark. It builds the
/// full serving stack in its own process (three engines, one
/// QueryService and IngestController per schema, the HTTP server with
/// the /v1 routes), drives it over loopback HTTP with a seeded
/// sequence of operations, checks every answer, and prints every
/// metric by name and unit; the last stdout line is one JSON object.
///
///   urm_perfbench --workload <paper_methods|ranked_mix|hot_ingest>
///                 --seed <n> --seconds <s> --trace <0|1>
///                 [--trace-out <path>] [--git-sha <sha>]
///                 [--print-sequence]
///
/// --trace 0 measures the end-to-end metrics over HTTP. --trace 1
/// replays the same sequence in-process through each layer's public
/// entry points with spans on, and reports the per-layer metrics.
/// --print-sequence prints the sequence and its digest and exits.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "common/timer.h"
#include "datagen/target_schemas.h"
#include "datagen/tpch.h"
#include "http_client.h"
#include "layers.h"
#include "mapping/generator.h"
#include "matching/matcher.h"
#include "runner.h"
#include "stack.h"
#include "util.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetupRepetitions = 3;
constexpr int kLoopRounds = 400;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string trace_out;
  std::string git_sha = "unknown";
  bool print_sequence = false;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-sequence") {
      args->print_sequence = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (args->workload.empty() || !have_seed || args->seconds < 1 ||
      (!args->print_sequence && args->trace != 0 && args->trace != 1)) {
    *error = "need --workload, --seed, --seconds >= 1 and --trace 0|1";
    return false;
  }
  return true;
}

std::string Fmt(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

using NamedMetrics = std::vector<std::pair<std::string, LayerValue>>;

/// The result line: one JSON object with exactly the keys correct,
/// attempted, failed and metrics.
void PrintResult(bool correct, size_t attempted, size_t failed,
                 const NamedMetrics& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].first + "\": {\"value\": " +
            Fmt(metrics[i].second.value) + ", \"unit\": \"" +
            metrics[i].second.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void PrintProvenance(const Args& args, const Plan& plan) {
  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d\n",
              plan.config.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  std::printf(
      "provenance: |D|=%.1f MB h=%d connections=%d hw_threads=%u "
      "pool_workers_per_schema=1 answer_cache=%zu git_sha=%s "
      "build_type=%s\n",
      kDataMb, kMappings, plan.config.connections,
      std::thread::hardware_concurrency(), plan.config.cache_capacity,
      args.git_sha.c_str(), PERFBENCH_BUILD_TYPE);
  const urm::net::DosGuardOptions dosguard;
  std::printf(
      "dosguard: in the request path with default caps "
      "(max_connections=%zu per_client=%zu max_inflight=%zu "
      "per_client=%zu); per-client token bucket off "
      "(requests_per_second=0) because all traffic comes from one "
      "loopback address\n",
      dosguard.max_connections, dosguard.max_connections_per_client,
      dosguard.max_inflight_requests, dosguard.max_inflight_per_client);
  std::printf("sequence: digest=%s warmup_ops=%zu timed_ops=%zu %s\n",
              Hex64(plan.Digest()).c_str(), plan.warmup.size(),
              plan.timed.size(), plan.CountsByKind().c_str());
}

StackOptions OptionsFor(const Plan& plan) {
  StackOptions options;
  options.cache_capacity = plan.config.cache_capacity;
  return options;
}

/// Computes the reference of every query the plan sends, before any
/// ingest touches the catalogs.
bool ComputeReferences(const Plan& plan, References* references,
                       std::string* error) {
  for (const QuerySpec& spec : plan.queries) {
    if (references->For(spec, error) == nullptr) return false;
  }
  return true;
}

std::vector<Op> FinalCheckOps(const Plan& plan) {
  std::vector<Op> ops;
  for (size_t index : plan.final_checks) {
    ops.push_back(Op{plan.queries[index].kind, index});
  }
  return ops;
}

bool HasIngest(const std::vector<Op>& ops) {
  for (const Op& op : ops) {
    if (op.kind == OpKind::kIngest) return true;
  }
  return false;
}

void ClearCaches(Stack* stack) {
  stack->VisitServices(
      [](urm::datagen::TargetSchemaId, urm::service::QueryService* service) {
        service->ClearCache();
      });
}

TierCounters ReadCounters(Stack* stack) {
  TierCounters out;
  stack->VisitServices([&out](urm::datagen::TargetSchemaId,
                              urm::service::QueryService* service) {
    const urm::service::CacheStats cache = service->cache_stats();
    const urm::osharing::OperatorStoreStats store =
        service->operator_store_stats();
    out.cache_hits += static_cast<double>(cache.hits);
    out.cache_misses += static_cast<double>(cache.misses);
    out.store_hits += static_cast<double>(store.hits);
    out.store_misses += static_cast<double>(store.misses);
    out.store_bytes_reused += static_cast<double>(store.bytes_reused);
  });
  return out;
}

/// Runs a phase's checks and accumulates the failure accounting.
struct Accounting {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;

  void Check(const RunContext& context, References* references,
             const std::vector<Op>& ops, const PhaseResult& phase,
             bool strict) {
    attempted += ops.size();
    failed += Verify(context, references, ops, phase, strict, &errors);
  }
  void Report() const {
    std::printf("checks: attempted=%zu failed=%zu\n", attempted, failed);
    for (const std::string& error : errors) {
      std::printf("check failed: %s\n", error.c_str());
    }
  }
};

void PrintLatency(const char* name, const std::vector<double>& ms) {
  std::printf("latency %s: n=%zu p50=%.4f p90=%.4f p99=%.4f p99.9=%.4f "
              "max=%.4f ms\n",
              name, ms.size(), Percentile(ms, 0.5), Percentile(ms, 0.9),
              Percentile(ms, 0.99), Percentile(ms, 0.999),
              Percentile(ms, 1.0));
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

// ------------------------------------------------------- measured run
/// setup_s is the median over kSetupRepetitions in-process stack
/// builds, each timed from its own start until the server answers its
/// first request. Exec and dynamic loading before main() are left out,
/// so that every sample measures the same thing.
int RunMeasured(const Plan& plan) {
  std::vector<double> setup_seconds;
  std::unique_ptr<Stack> stack;
  std::string error;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    stack.reset();
    const int64_t start = NowNs();
    stack = Stack::Build(OptionsFor(plan), &error);
    if (stack == nullptr) {
      std::fprintf(stderr, "stack build failed: %s\n", error.c_str());
      return 1;
    }
    HttpClient probe(stack->port());
    std::string body;
    if (probe.Send(HttpClient::Get("/v1/stats"), &body) != 200) {
      std::fprintf(stderr, "server did not answer GET /v1/stats\n");
      return 1;
    }
    setup_seconds.push_back((NowNs() - start) * 1e-9);
  }
  std::printf("setup: repetitions=%d seconds=", kSetupRepetitions);
  for (double s : setup_seconds) std::printf("%.4f ", s);
  std::printf("\n");

  RunContext context;
  References references(stack.get());
  if (!PrepareContext(stack.get(), &plan, &context, &error) ||
      !ComputeReferences(plan, &references, &error)) {
    std::fprintf(stderr, "preparation failed: %s\n", error.c_str());
    return 1;
  }
  Accounting accounting;
  const int connections = plan.config.connections;
  PhaseResult warmup = RunHttp(context, plan.warmup, connections);
  accounting.Check(context, &references, plan.warmup, warmup, true);
  if (plan.config.clear_cache_after_warmup) ClearCaches(stack.get());

  const TierCounters before = ReadCounters(stack.get());
  PhaseResult timed = RunHttp(context, plan.timed, connections);
  const TierCounters after = ReadCounters(stack.get());
  accounting.Check(context, &references, plan.timed, timed,
                   !HasIngest(plan.timed));
  const std::vector<Op> final_ops = FinalCheckOps(plan);
  if (!final_ops.empty()) {
    PhaseResult final_phase = RunHttp(context, final_ops, 1);
    accounting.Check(context, &references, final_ops, final_phase, true);
  }

  const double ops = static_cast<double>(plan.timed.size());
  PrintLatency("query", timed.query_ms);
  if (!timed.ingest_ms.empty()) PrintLatency("ingest", timed.ingest_ms);
  const double hits = after.cache_hits - before.cache_hits;
  const double misses = after.cache_misses - before.cache_misses;
  std::printf("answer cache in the timed phase: hits=%.0f misses=%.0f "
              "(misses are %.3f%% of %zu query operations)\n",
              hits, misses,
              timed.query_ms.empty() ? 0.0
                                     : 100.0 * misses / timed.query_ms.size(),
              timed.query_ms.size());
  if (!timed.ingest_ms.empty()) {
    // Workload-specific percentiles: reported, not part of the gated
    // end-to-end set (see README.md, "Metrics").
    std::printf("hot_ingest percentiles: query_p50_ms=%.4f query_p99_ms=%.4f "
                "query_p999_ms=%.4f ingest_p50_ms=%.4f\n",
                Percentile(timed.query_ms, 0.5),
                Percentile(timed.query_ms, 0.99),
                Percentile(timed.query_ms, 0.999),
                Percentile(timed.ingest_ms, 0.5));
  }
  std::printf("timed phase: %zu operations in %.3f s\n", plan.timed.size(),
              timed.wall_seconds);
  accounting.Report();
  NamedMetrics metrics = {
      {"setup_s", {Median(setup_seconds), "s", 0}},
      {"ops_per_s", {ops / timed.wall_seconds, "ops/s", 0}},
      {"query_p90_ms", {Percentile(timed.query_ms, 0.9), "ms", 0}},
      {"cpu_ms_per_op", {timed.cpu_seconds * 1e3 / ops, "ms", 0}},
      {"peak_rss_mb", {PeakRssMb(), "MB", 0}},
  };
  for (const auto& [name, value] : metrics) {
    std::printf("metric %s = %.6g %s\n", name.c_str(), value.value,
                value.unit.c_str());
  }
  const bool correct = accounting.failed == 0;
  stack.reset();
  PrintResult(correct, accounting.attempted, accounting.failed, metrics);
  return correct ? 0 : 1;
}

// --------------------------------------------------------- traced run
/// Engine::Create's three set-up steps, timed separately and summed
/// over the three schemas.
LayerMetrics TimeSetupSteps() {
  double generate = 0.0, match = 0.0, mappings = 0.0;
  for (urm::datagen::TargetSchemaId schema :
       urm::datagen::AllTargetSchemas()) {
    urm::Timer timer;
    urm::datagen::TpchOptions tpch;
    tpch.target_mb = kDataMb;
    auto catalog = urm::datagen::GenerateTpch(tpch);
    generate += timer.Lap();
    const urm::matching::SchemaDef source = urm::datagen::TpchSchema();
    urm::datagen::TargetSchemaBundle bundle =
        urm::datagen::GetTargetSchema(schema);
    urm::matching::NameMatcher matcher;
    auto correspondences = matcher.Match(source, bundle.schema, bundle.seeds);
    match += timer.Lap();
    urm::mapping::MappingGenOptions gen;
    gen.h = kMappings;
    auto generated = urm::mapping::GenerateMappings(correspondences, gen);
    mappings += timer.Lap();
  }
  return {{"datagen.generate_s", {generate, "s", 3}},
          {"matching.match_s", {match, "s", 3}},
          {"mapping.generate_s", {mappings, "s", 3}}};
}

/// A fixed probe for layers the workload's own sequence does not reach
/// (paper_methods has no cache hits, top-k or ingest; ranked_mix no
/// e-MQO, basic or ingest; ...): one request of each kind and one
/// reverted ingest batch, replayed with spans on against a fresh
/// stack. Its values are used only for metrics the workload left
/// without samples, and the report names them.
LayerMetrics ProbeLayers(std::string* error) {
  Plan probe;
  probe.config.name = "probe";
  for (QuerySpec spec :
       {MakeEvaluate("Q1", "o-sharing"), MakeEvaluate("Q1", "o-sharing"),
        MakeEvaluate("Q1", "e-MQO"), MakeEvaluate("Q1", "basic"),
        MakeTopK("Q1", 5), MakeThreshold("Q1", 0.25),
        MakeEvaluate("Q10", "o-sharing")}) {
    probe.timed.push_back(Op{spec.kind, probe.queries.size()});
    probe.queries.push_back(std::move(spec));
  }
  const size_t loop_index = probe.queries.size() - 1;
  probe.batches = {IngestSpec{"Excel", "nation", 0, false},
                   IngestSpec{"Excel", "nation", 0, true}};
  probe.timed.push_back(Op{OpKind::kIngest, 0});
  probe.timed.push_back(Op{OpKind::kIngest, 1});
  // A stack of its own with the default answer cache, whatever the
  // workload configured, so that the second request is a hit.
  std::unique_ptr<Stack> stack = Stack::Build(StackOptions(), error);
  RunContext context;
  if (stack == nullptr ||
      !PrepareContext(stack.get(), &probe, &context, error)) {
    return {};
  }
  Tracer tracer;
  const TierCounters before = ReadCounters(stack.get());
  RunInProcess(context, probe.timed, 1, &tracer);
  const TierCounters after = ReadCounters(stack.get());
  LayerMetrics layers =
      ComputeLayers(tracer, probe, probe.timed, before, after);
  // Q10 o-sharing is cached by now: what HTTP adds to a hit.
  layers["net.loop_us"] = LayerValue{
      MeasureLoopMicros(context, loop_index, kLoopRounds), "us", kLoopRounds};
  return layers;
}

/// Mean cost of opening and closing one span with one attribute.
double SpanCostNanos() {
  constexpr int kSpans = 200000;
  ThreadTrace trace;
  trace.spans.reserve(kSpans);
  const int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span(&trace, kSpanSubmit, static_cast<uint32_t>(i));
    span.Set(kAttrCacheHit, 1.0);
  }
  return static_cast<double>(NowNs() - start) / kSpans;
}

int RunTraced(const Args& args, const Plan& plan) {
  LayerMetrics layers = TimeSetupSteps();
  std::string error;
  std::unique_ptr<Stack> stack = Stack::Build(OptionsFor(plan), &error);
  if (stack == nullptr) {
    std::fprintf(stderr, "stack build failed: %s\n", error.c_str());
    return 1;
  }
  RunContext context;
  References references(stack.get());
  if (!PrepareContext(stack.get(), &plan, &context, &error) ||
      !ComputeReferences(plan, &references, &error)) {
    std::fprintf(stderr, "preparation failed: %s\n", error.c_str());
    return 1;
  }
  Accounting accounting;
  const int connections = plan.config.connections;
  const bool strict = !HasIngest(plan.timed);
  PhaseResult warmup = RunInProcess(context, plan.warmup, connections, nullptr);
  accounting.Check(context, &references, plan.warmup, warmup, true);

  // The same replay with spans off, on, and off again: the traced wall
  // time over the mean untraced one is the tracing overhead.
  if (plan.config.clear_cache_after_warmup) ClearCaches(stack.get());
  PhaseResult untraced =
      RunInProcess(context, plan.timed, connections, nullptr);
  accounting.Check(context, &references, plan.timed, untraced, strict);
  if (plan.config.clear_cache_after_warmup) ClearCaches(stack.get());
  Tracer tracer;
  const TierCounters before = ReadCounters(stack.get());
  PhaseResult traced = RunInProcess(context, plan.timed, connections, &tracer);
  const TierCounters after = ReadCounters(stack.get());
  accounting.Check(context, &references, plan.timed, traced, strict);
  if (plan.config.clear_cache_after_warmup) ClearCaches(stack.get());
  PhaseResult untraced_again =
      RunInProcess(context, plan.timed, connections, nullptr);
  accounting.Check(context, &references, plan.timed, untraced_again, strict);
  const std::vector<Op> final_ops = FinalCheckOps(plan);
  if (!final_ops.empty()) {
    PhaseResult final_phase = RunInProcess(context, final_ops, 1, nullptr);
    accounting.Check(context, &references, final_ops, final_phase, true);
  }

  for (auto& [name, value] :
       ComputeLayers(tracer, plan, plan.timed, before, after)) {
    layers[name] = value;
  }
  const double untraced_seconds =
      0.5 * (untraced.wall_seconds + untraced_again.wall_seconds);
  layers["trace.overhead_pct"] = LayerValue{
      100.0 * (traced.wall_seconds - untraced_seconds) / untraced_seconds,
      "%", static_cast<double>(plan.timed.size())};

  std::vector<std::string> probed;
  LayerMetrics probe = ProbeLayers(&error);
  if (probe.empty()) {
    std::fprintf(stderr, "layer probe failed: %s\n", error.c_str());
    return 1;
  }
  for (auto& [name, value] : probe) {
    if (layers.count(name) == 0) {
      layers[name] = value;
      if (name != "net.loop_us") probed.push_back(name);
    }
  }

  std::printf("replay: untraced_s=%.4f traced_s=%.4f untraced_again_s=%.4f "
              "ops=%zu\n",
              untraced.wall_seconds, traced.wall_seconds,
              untraced_again.wall_seconds, plan.timed.size());
  // The wall-time difference above is within host noise on a busy
  // machine; the cost of the spans themselves puts it in scale.
  size_t spans = 0;
  for (const auto& thread : tracer.threads()) spans += thread->spans.size();
  const double span_ns = SpanCostNanos();
  std::printf("span cost: %zu spans x %.0f ns = %.3f%% of the untraced "
              "replay\n",
              spans, span_ns,
              100.0 * spans * span_ns * 1e-9 / untraced_seconds);
  std::string counters;
  for (const auto& [name, value] : ExactCounters(tracer)) {
    counters += (counters.empty() ? "" : " ") + name + "=" +
                std::to_string(value);
  }
  std::printf("counters: %s\n", counters.c_str());
  if (plan.config.name == "paper_methods") {
    for (const std::string& line :
         PaperShapeReport(tracer, plan, plan.timed)) {
      std::printf("%s\n", line.c_str());
    }
  }
  std::string probed_list;
  for (const std::string& name : probed) probed_list += " " + name;
  std::printf("probed (not reached by this workload's sequence):%s\n",
              probed_list.empty() ? " none" : probed_list.c_str());
  for (const auto& [name, value] : layers) {
    std::printf("layer %s = %.6g %s (base %.0f)\n", name.c_str(), value.value,
                value.unit.c_str(), value.samples);
  }
  if (!args.trace_out.empty()) {
    if (tracer.WriteJsonl(args.trace_out)) {
      std::printf("spans written to %s\n", args.trace_out.c_str());
    } else {
      std::printf("could not write spans to %s\n", args.trace_out.c_str());
    }
  }
  accounting.Report();
  NamedMetrics metrics(layers.begin(), layers.end());
  const bool correct = accounting.failed == 0;
  stack.reset();
  PrintResult(correct, accounting.attempted, accounting.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "urm_perfbench: %s\n", error.c_str());
    return 2;
  }
  Plan plan;
  if (!BuildPlan(args.workload, args.seed, args.seconds, &plan)) {
    std::fprintf(stderr, "urm_perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.print_sequence) {
    for (const Op& op : plan.warmup) {
      std::printf("warmup %s\n", plan.Describe(op).c_str());
    }
    for (const Op& op : plan.timed) {
      std::printf("timed %s\n", plan.Describe(op).c_str());
    }
    std::printf("digest %s\n", Hex64(plan.Digest()).c_str());
    return 0;
  }
  PrintProvenance(args, plan);
  return args.trace == 1 ? RunTraced(args, plan)
                         : RunMeasured(plan);
}
