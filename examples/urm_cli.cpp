/// \file urm_cli.cpp
/// Command-line driver: run any Table III query (or a top-k /
/// threshold variant) against a generated instance with any method.
///
///   urm_cli [--query Q4] [--method osharing] [--mb 1.0] [--h 100]
///           [--topk K] [--threshold P] [--strategy sef|snf|random]
///           [--seed N]
///
/// Examples:
///   ./build/examples/urm_cli --query Q1 --method basic
///   ./build/examples/urm_cli --query Q7 --topk 5 --mb 2
///   ./build/examples/urm_cli --query Q8 --threshold 0.3

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/string_util.h"
#include "core/engine.h"
#include "core/workload.h"

namespace {

using namespace urm;  // NOLINT

struct CliArgs {
  std::string query = "Q4";
  std::string method = "osharing";
  std::string strategy = "sef";
  double mb = 1.0;
  int h = 100;
  int topk = 0;          // 0 = disabled
  double threshold = 0;  // 0 = disabled
  uint64_t seed = 42;
};

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--query") == 0) {
      const char* v = next("--query");
      if (v == nullptr) return false;
      args->query = v;
    } else if (std::strcmp(argv[i], "--method") == 0) {
      const char* v = next("--method");
      if (v == nullptr) return false;
      args->method = v;
    } else if (std::strcmp(argv[i], "--strategy") == 0) {
      const char* v = next("--strategy");
      if (v == nullptr) return false;
      args->strategy = v;
    } else if (std::strcmp(argv[i], "--mb") == 0) {
      const char* v = next("--mb");
      if (v == nullptr) return false;
      args->mb = std::atof(v);
    } else if (std::strcmp(argv[i], "--h") == 0) {
      const char* v = next("--h");
      if (v == nullptr) return false;
      args->h = std::atoi(v);
    } else if (std::strcmp(argv[i], "--topk") == 0) {
      const char* v = next("--topk");
      if (v == nullptr) return false;
      args->topk = std::atoi(v);
    } else if (std::strcmp(argv[i], "--threshold") == 0) {
      const char* v = next("--threshold");
      if (v == nullptr) return false;
      args->threshold = std::atof(v);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      const char* v = next("--seed");
      if (v == nullptr) return false;
      args->seed = static_cast<uint64_t>(std::atoll(v));
    } else if (std::strcmp(argv[i], "--help") == 0) {
      return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

bool ParseStrategy(const std::string& name, osharing::StrategyKind* out) {
  for (auto kind : {osharing::StrategyKind::kSEF, osharing::StrategyKind::kSNF,
                    osharing::StrategyKind::kRandom}) {
    if (MatchesName(name, osharing::StrategyName(kind))) {
      *out = kind;
      return true;
    }
  }
  return false;
}

/// Prints `problem` (if any) and the usage line; returns exit code 2.
int Usage(const std::string& problem = "") {
  if (!problem.empty()) std::fprintf(stderr, "%s\n", problem.c_str());
  std::fprintf(
      stderr,
      "usage: urm_cli [--query Q1..Q10] [--method "
      "basic|ebasic|emqo|qsharing|osharing]\n"
      "               [--mb MB] [--h N] [--topk K] [--threshold P]\n"
      "               [--strategy sef|snf|random] [--seed N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  // Every input is checked before the multi-second Engine::Create.
  const core::WorkloadQuery* wq = core::FindQuery(args.query);
  if (wq == nullptr) return Usage("unknown query: " + args.query);
  core::Method method;
  if (!core::ParseMethod(args.method, &method)) {
    return Usage("unknown method: " + args.method);
  }
  core::Engine::Options options;
  if (!ParseStrategy(args.strategy, &options.strategy)) {
    return Usage("unknown strategy: " + args.strategy);
  }
  const core::Request request =
      args.topk > 0
          ? core::Request::TopK(wq->query, static_cast<size_t>(args.topk))
          : (args.threshold > 0
                 ? core::Request::Threshold(wq->query, args.threshold)
                 : core::Request::MethodEval(wq->query, method));
  if (Status valid = core::ValidateRequest(request); !valid.ok()) {
    return Usage(valid.message());
  }
  options.target_mb = args.mb;
  options.num_mappings = args.h;
  options.target_schema = wq->schema;
  options.seed = args.seed;

  auto created = core::Engine::Create(options);
  if (!created.ok()) {
    std::fprintf(stderr, "setup: %s\n", created.status().ToString().c_str());
    return 1;
  }
  const core::Engine& engine = *created.ValueOrDie();
  std::printf("instance: %zu tuples; mappings: %zu; query %s (%s)\n",
              engine.catalog().TotalRows(), engine.mappings().size(),
              wq->id.c_str(), datagen::TargetSchemaName(wq->schema));

  auto run = engine.Run(request);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }
  const core::Response& response = run.ValueOrDie();

  if (request.kind == core::RequestKind::kTopK) {
    const topk::TopKResult& result = response.top_k;
    std::printf("top-%d in %.4fs (%zu leaves%s):\n", args.topk,
                result.seconds, result.leaves_visited,
                result.early_terminated ? ", early" : "");
    for (const auto& t : result.tuples) {
      std::printf("  (");
      for (size_t i = 0; i < t.values.size(); ++i) {
        std::printf("%s%s", i ? ", " : "",
                    t.values[i].ToString().c_str());
      }
      std::printf(")  p in [%.4f, %.4f]\n", t.lower_bound, t.upper_bound);
    }
    return 0;
  }

  if (request.kind == core::RequestKind::kThreshold) {
    const topk::ThresholdResult& result = response.threshold;
    std::printf("threshold %.2f: %zu tuples in %.4fs (%zu leaves%s)\n",
                args.threshold, result.tuples.size(), result.seconds,
                result.leaves_visited,
                result.early_terminated ? ", early" : "");
    return 0;
  }

  const baselines::MethodResult& r = response.evaluate;
  std::printf("%s: %.4fs (rewrite %.4f, plan %.4f, eval %.4f, "
              "aggregate %.4f)\n",
              core::MethodName(method), r.TotalSeconds(),
              r.rewrite_seconds, r.plan_seconds, r.eval_seconds,
              r.aggregate_seconds);
  std::printf("%zu source queries, %zu operators, %zu partitions\n",
              r.source_queries, r.stats.operators_executed, r.partitions);
  std::printf("%s", r.answers.ToString(15).c_str());
  return 0;
}
