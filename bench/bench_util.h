#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/engine.h"
#include "core/workload.h"

/// \file bench_util.h
/// Shared scaffolding for the experiment harness. Each bench binary
/// regenerates one of the paper's tables or figures; absolute scale is
/// controlled by environment variables so the full suite runs in
/// minutes on a laptop while preserving the paper's *shapes*:
///
///   URM_BENCH_MB    source instance size in MB   (default 0.3;
///                   the paper uses 100 MB)
///   URM_BENCH_H     number of possible mappings  (default 100)
///   URM_BENCH_RUNS  timing repetitions           (default 2;
///                   the paper averages 50 runs)

namespace urm {
namespace bench {

inline double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : fallback;
}

inline int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

inline double BenchMb() { return EnvDouble("URM_BENCH_MB", 0.3); }
inline int BenchH() { return EnvInt("URM_BENCH_H", 100); }
inline int BenchRuns() { return EnvInt("URM_BENCH_RUNS", 2); }

/// Engine cache keyed by (schema, MB, h-capacity): experiment sweeps
/// reuse prepared instances and mapping sets.
class EngineCache {
 public:
  core::Engine* Get(datagen::TargetSchemaId schema, double mb,
                    int max_h) {
    auto key = std::make_tuple(schema, mb, max_h);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      core::Engine::Options options;
      options.target_mb = mb;
      options.num_mappings = max_h;
      options.target_schema = schema;
      auto engine = core::Engine::Create(options);
      URM_CHECK(engine.ok()) << engine.status().ToString();
      it = cache_.emplace(key, std::move(engine).ValueOrDie()).first;
    }
    return it->second.get();
  }

 private:
  std::map<std::tuple<datagen::TargetSchemaId, double, int>,
           std::unique_ptr<core::Engine>>
      cache_;
};

/// Evaluates with the given method, repeated BenchRuns() times,
/// returning the mean total seconds and the last run's MethodResult.
inline baselines::MethodResult TimedEvaluate(const core::Engine& engine,
                                             const algebra::PlanPtr& query,
                                             core::Method method,
                                             double* mean_seconds) {
  int runs = BenchRuns();
  double total = 0.0;
  baselines::MethodResult last;
  for (int i = 0; i < runs; ++i) {
    auto response = engine.Run(core::Request::MethodEval(query, method));
    URM_CHECK(response.ok()) << core::MethodName(method) << ": "
                             << response.status().ToString();
    last = std::move(response.ValueOrDie().evaluate);
    total += last.TotalSeconds();
  }
  *mean_seconds = total / runs;
  return last;
}

/// \brief Machine-readable perf record: one JSON object per line.
///
/// Benches print human-readable tables for eyeballing figures plus one
/// JSON line per measurement (prefixed "JSONL ") so CI / future PRs can
/// track the perf trajectory with `grep '^JSONL ' | cut -c7-`:
///
///   JsonLine("fig10a").Field("query", "Q4").Field("ms", 12.8).Emit();
///   // -> JSONL {"bench":"fig10a","query":"Q4","ms":12.8}
class JsonLine {
 public:
  explicit JsonLine(const std::string& bench) {
    line_ = "{\"bench\":\"" + Escape(bench) + "\"";
  }

  JsonLine& Field(const char* key, const std::string& value) {
    line_ += ",\"" + std::string(key) + "\":\"" + Escape(value) + "\"";
    return *this;
  }
  JsonLine& Field(const char* key, const char* value) {
    return Field(key, std::string(value));
  }
  JsonLine& Field(const char* key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.6g", value);
    } else {
      // JSON has no inf/nan literal (e.g. a zero-time warm-cache run
      // makes a speedup ratio infinite).
      std::snprintf(buf, sizeof(buf), "null");
    }
    line_ += ",\"" + std::string(key) + "\":" + buf;
    return *this;
  }
  JsonLine& Field(const char* key, int value) {
    line_ += ",\"" + std::string(key) + "\":" + std::to_string(value);
    return *this;
  }
  JsonLine& Field(const char* key, size_t value) {
    line_ += ",\"" + std::string(key) + "\":" + std::to_string(value);
    return *this;
  }

  void Emit() { std::printf("JSONL %s}\n", line_.c_str()); }

 private:
  static std::string Escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      unsigned char u = static_cast<unsigned char>(c);
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (c == '\n') {
        out += "\\n";
      } else if (c == '\t') {
        out += "\\t";
      } else if (u < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", u);
        out += buf;
      } else {
        out += c;
      }
    }
    return out;
  }

  std::string line_;
};

/// Prints the standard bench header.
inline void PrintHeader(const char* experiment, const char* paper_ref) {
  std::printf("# %s\n", experiment);
  std::printf("# reproduces: %s\n", paper_ref);
  std::printf("# scale: |D|=%.1f MB, h=%d, runs=%d (paper: 100 MB, "
              "h=100, 50 runs)\n",
              BenchMb(), BenchH(), BenchRuns());
}

}  // namespace bench
}  // namespace urm
