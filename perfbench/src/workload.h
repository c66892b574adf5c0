#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

/// \file workload.h
/// The benchmark's workloads as fixed, seeded operation sequences.
/// A Plan is a pure function of (workload, seed, seconds): the same
/// arguments give a byte-identical sequence on every run and machine,
/// so every run of a workload executes the same amount of work.

namespace perfbench {

enum class OpKind { kEvaluate, kTopK, kThreshold, kSetOp, kIngest };

const char* OpKindName(OpKind kind);

/// One distinct POST /v1/query request.
struct QuerySpec {
  OpKind kind = OpKind::kEvaluate;
  std::string query;         ///< "Q1".."Q10" (left operand of a set-op)
  std::string method;        ///< evaluate: API method name
  size_t k = 0;              ///< top-k
  double threshold = 0.0;    ///< threshold, in (0, 1]
  std::string right;         ///< set-op right operand
  std::string set_op;        ///< set-op: UNION / INTERSECT / EXCEPT
  std::string body;          ///< the JSON request body
};

/// One POST /v1/ingest batch: a single-row update on one source
/// relation of one schema's catalog. The row is chosen by index from
/// the catalog when the stack is built (see IngestBatch in stack.h);
/// `revert` batches undo the batch before them on the same pair.
struct IngestSpec {
  std::string schema;    ///< target schema name, e.g. "Excel"
  std::string relation;  ///< source relation, e.g. "nation"
  uint64_t row_pick = 0; ///< seeded row choice (index modulo cardinality)
  bool revert = false;
};

struct Op {
  OpKind kind = OpKind::kEvaluate;
  /// Index into Plan::queries, or into Plan::batches for kIngest.
  size_t index = 0;
};

/// How a workload configures the stack and drives it.
struct WorkloadConfig {
  std::string name;
  int connections = 1;
  /// Answer-cache capacity of every schema's QueryService
  /// (0 disables caching, the `urm_server --cache 0` setting).
  size_t cache_capacity = 256;
  /// Clear the answer cache after the warm-up, so that the timed phase
  /// starts with warm engines and OperatorStores but no cached answers.
  bool clear_cache_after_warmup = false;
};

struct Plan {
  WorkloadConfig config;
  uint64_t seed = 0;
  std::vector<QuerySpec> queries;  ///< distinct query requests
  std::vector<IngestSpec> batches;
  std::vector<Op> warmup;
  std::vector<Op> timed;
  /// Query indices re-checked against their setup reference after the
  /// timed phase (hot_ingest: after the last reverting batch).
  std::vector<size_t> final_checks;

  /// One line per timed operation: the query body, or the ingest
  /// batch descriptor.
  std::string Describe(const Op& op) const;
  /// FNV-1a over the described warm-up and timed sequences.
  uint64_t Digest() const;
  /// Timed-phase operation counts by kind, e.g. "evaluate=100 topk=0".
  std::string CountsByKind() const;
};

/// Request constructors: the spec with its JSON body.
QuerySpec MakeEvaluate(const std::string& query, const std::string& method);
QuerySpec MakeTopK(const std::string& query, size_t k);
QuerySpec MakeThreshold(const std::string& query, double threshold);
QuerySpec MakeSetOp(const std::string& left, const std::string& right,
                    const std::string& op);

/// Builds the plan; returns false on an unknown workload name.
bool BuildPlan(const std::string& workload, uint64_t seed, int seconds,
               Plan* plan);

}  // namespace perfbench
