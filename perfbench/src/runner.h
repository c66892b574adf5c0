#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check.h"
#include "stack.h"
#include "trace.h"
#include "workload.h"

/// \file runner.h
/// Executes an operation sequence against the stack, either over real
/// loopback HTTP connections (the measured run) or in-process through
/// each layer's public entry points (the traced replay), with the same
/// closed-loop client discipline: every connection takes the next
/// operation of the shared sequence once its previous one completed.
/// Ingest batches are applied in sequence order.

namespace perfbench {

struct RunContext {
  Stack* stack = nullptr;
  const Plan* plan = nullptr;
  std::vector<ResolvedBatch> batches;     ///< parallel to plan->batches
  std::vector<std::string> query_wire;    ///< request bytes per query
  std::vector<std::string> batch_wire;    ///< request bytes per batch
};

/// Resolves the ingest batches and pre-renders every request's bytes.
bool PrepareContext(Stack* stack, const Plan* plan, RunContext* context,
                    std::string* error);

/// One completed operation.
struct Outcome {
  size_t pos = 0;          ///< position in the sequence
  int status = 0;          ///< HTTP status; 0 = transport failure
  uint64_t body_hash = 0;
  /// The body, kept only for the first (request, body) pair a thread
  /// sees — repeated identical bodies (cache hits) are checked once.
  std::string body;
  bool has_body = false;
  long long rows_updated = -1;  ///< ingest receipts
};

struct PhaseResult {
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;    ///< process user + sys during the phase
  std::vector<double> query_ms;
  std::vector<double> ingest_ms;
  std::vector<Outcome> outcomes;
};

/// Runs `ops` over `connections` keep-alive HTTP connections.
PhaseResult RunHttp(const RunContext& context, const std::vector<Op>& ops,
                    int connections);

/// Replays `ops` in-process on `connections` threads; records spans
/// into `tracer` when it is not null.
PhaseResult RunInProcess(const RunContext& context,
                         const std::vector<Op>& ops, int connections,
                         Tracer* tracer);

/// Checks every outcome of a phase: 200 status, ingest receipts with
/// the expected updated-row count, and query bodies against their
/// references (`strict`) or for shape only (while ingests have changed
/// the data). Returns the number of failed operations; the first few
/// failure messages go to `errors`.
size_t Verify(const RunContext& context, References* references,
              const std::vector<Op>& ops, const PhaseResult& phase,
              bool strict, std::vector<std::string>* errors);

/// Median latency of `rounds` HTTP round trips of the query `index`,
/// minus the median in-process cost of the same request (parse,
/// submit, serialize): what the poll loop, sockets and admission add.
double MeasureLoopMicros(const RunContext& context, size_t index,
                         int rounds);

}  // namespace perfbench
