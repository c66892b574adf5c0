#include "runner.h"

#include <sys/resource.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "common/json.h"
#include "core/request.h"
#include "http_client.h"
#include "net/http.h"
#include "util.h"

namespace perfbench {

namespace {

double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Makes ingest batches apply in sequence order even when two
/// connections pick up consecutive batches.
class BatchGate {
 public:
  explicit BatchGate(size_t first) : next_(first) {}

  void Wait(size_t batch) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return next_ == batch; });
  }
  void Done() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++next_;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t next_;  ///< guarded by mu_
};

size_t FirstBatch(const std::vector<Op>& ops) {
  for (const Op& op : ops) {
    if (op.kind == OpKind::kIngest) return op.index;
  }
  return 0;
}

/// Per-thread results, merged after the threads join.
struct Lane {
  size_t id = 0;  ///< connection / thread number
  std::vector<double> query_ms;
  std::vector<double> ingest_ms;
  std::vector<Outcome> outcomes;
  std::set<std::pair<size_t, uint64_t>> seen;  ///< (query index, body hash)
};

void Record(const Op& op, size_t pos, int status, std::string body,
            long long rows_updated, Lane* lane) {
  Outcome outcome;
  outcome.pos = pos;
  outcome.status = status;
  // std::hash, not the portable FNV: it runs inside the timed phase on
  // bodies of up to ~60 KB, and only needs to be stable within a run.
  outcome.body_hash = std::hash<std::string>()(body);
  outcome.rows_updated = rows_updated;
  if (op.kind == OpKind::kIngest ||
      lane->seen.emplace(op.index, outcome.body_hash).second) {
    outcome.body = std::move(body);
    outcome.has_body = true;
  }
  lane->outcomes.push_back(std::move(outcome));
}

/// Runs `step(pos, lane)` for every position on `connections` threads
/// pulling from a shared cursor, then merges the lanes.
PhaseResult RunLanes(const std::vector<Op>& ops, int connections,
                     const std::function<void(size_t, Lane*)>& step) {
  std::vector<Lane> lanes(static_cast<size_t>(connections));
  for (size_t i = 0; i < lanes.size(); ++i) lanes[i].id = i;
  std::atomic<size_t> cursor{0};
  const double cpu0 = ProcessCpuSeconds();
  const int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (Lane& lane : lanes) {
    threads.emplace_back([&, lane_ptr = &lane] {
      for (size_t pos = cursor.fetch_add(1); pos < ops.size();
           pos = cursor.fetch_add(1)) {
        step(pos, lane_ptr);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseResult result;
  result.wall_seconds = (NowNs() - start) * 1e-9;
  result.cpu_seconds = ProcessCpuSeconds() - cpu0;
  for (Lane& lane : lanes) {
    result.query_ms.insert(result.query_ms.end(), lane.query_ms.begin(),
                           lane.query_ms.end());
    result.ingest_ms.insert(result.ingest_ms.end(), lane.ingest_ms.begin(),
                            lane.ingest_ms.end());
    for (Outcome& outcome : lane.outcomes) {
      result.outcomes.push_back(std::move(outcome));
    }
  }
  return result;
}

/// The in-process equivalent of one POST /v1/query: parse, submit,
/// serialize. With `layer_calls`, fingerprinting and analysis — which
/// Submit does internally — are also called once on their own, so the
/// trace can time those layers. Returns the HTTP status and fills
/// `body` with the response JSON.
int InProcessQuery(Stack* stack, const std::string& wire, uint32_t pos,
                   ThreadTrace* trace, bool layer_calls, std::string* body) {
  urm::net::api::ParsedQuery parsed;
  urm::net::api::ApiError api_error;
  bool ok;
  {
    ScopedSpan span(trace, kSpanParse, pos);
    urm::net::http::RequestParser parser;
    parser.Feed(wire);
    ok = parser.complete() &&
         urm::net::api::ParseQueryBody(parser.request().body, &parsed,
                                       &api_error);
  }
  if (!ok) return 400;
  urm::service::QueryService* service = stack->ForSchema(parsed.schema);
  const urm::core::Engine* engine = stack->engine(parsed.schema);
  if (layer_calls) {
    ScopedSpan span(trace, kSpanFingerprint, pos);
    urm::core::FingerprintRequest(parsed.request, engine->mapping_set_hash());
  }
  if (layer_calls) {
    ScopedSpan span(trace, kSpanAnalyze, pos);
    bool analyzed = engine->Analyze(parsed.request.query).ok();
    if (parsed.request.right != nullptr) {
      analyzed = engine->Analyze(parsed.request.right).ok() && analyzed;
    }
    if (!analyzed) return 400;
  }
  urm::service::QueryResponse response;
  {
    ScopedSpan span(trace, kSpanSubmit, pos);
    response = service->Submit(parsed.request);
    span.End();  // the attributes below are not part of Submit's time
    if (response.status.ok() && trace != nullptr) {
      const urm::core::Response& r = *response.response;
      span.Set(kAttrCacheHit, response.cache_hit);
      span.Set(kAttrShared, response.shared_in_batch);
      const urm::algebra::EvalStats* stats = nullptr;
      switch (r.kind) {
        case urm::core::RequestKind::kEvaluate:
        case urm::core::RequestKind::kSetOp:
          span.Set(kAttrKind, r.kind == urm::core::RequestKind::kEvaluate
                                  ? static_cast<double>(OpKind::kEvaluate)
                                  : static_cast<double>(OpKind::kSetOp));
          span.Set(kAttrRewriteS, r.evaluate.rewrite_seconds);
          span.Set(kAttrPlanS, r.evaluate.plan_seconds);
          span.Set(kAttrEvalS, r.evaluate.eval_seconds);
          span.Set(kAttrAggregateS, r.evaluate.aggregate_seconds);
          span.Set(kAttrReportedS, r.evaluate.TotalSeconds());
          span.Set(kAttrSourceQueries,
                   static_cast<double>(r.evaluate.source_queries));
          span.Set(kAttrPartitions,
                   static_cast<double>(r.evaluate.partitions));
          stats = &r.evaluate.stats;
          break;
        case urm::core::RequestKind::kTopK:
          span.Set(kAttrKind, static_cast<double>(OpKind::kTopK));
          span.Set(kAttrReportedS, r.top_k.seconds);
          span.Set(kAttrLeavesVisited,
                   static_cast<double>(r.top_k.leaves_visited));
          span.Set(kAttrEarlyTerminated, r.top_k.early_terminated);
          stats = &r.top_k.stats;
          break;
        case urm::core::RequestKind::kThreshold:
          span.Set(kAttrKind, static_cast<double>(OpKind::kThreshold));
          span.Set(kAttrReportedS, r.threshold.seconds);
          span.Set(kAttrLeavesVisited,
                   static_cast<double>(r.threshold.leaves_visited));
          span.Set(kAttrEarlyTerminated, r.threshold.early_terminated);
          stats = &r.threshold.stats;
          break;
      }
      span.Set(kAttrTuplesProduced,
               static_cast<double>(stats->tuples_produced));
      span.Set(kAttrOperatorsExecuted,
               static_cast<double>(stats->operators_executed));
      span.Set(kAttrBytesScanned, static_cast<double>(stats->bytes_scanned));
      span.Set(kAttrLogicalBytesScanned,
               static_cast<double>(stats->logical_bytes_scanned));
      span.Set(kAttrColumnarScans,
               static_cast<double>(stats->columnar_scans));
      span.Set(kAttrRowScans, static_cast<double>(stats->row_scans));
    }
  }
  if (!response.status.ok()) return 500;
  {
    ScopedSpan span(trace, kSpanSerialize, pos);
    urm::json::Value root = urm::json::Value::Object();
    root.Set("query", urm::json::Value::Str(parsed.query_id));
    urm::net::api::AppendResponseJson(response, &root);
    *body = root.Serialize();
    std::string framed = urm::net::http::SerializeResponse(
        urm::net::http::Response::Json(200, *body), true);
    span.End();
    span.Set(kAttrResponseBytes, static_cast<double>(framed.size()));
  }
  return 200;
}

/// The in-process equivalent of one POST /v1/ingest.
int InProcessIngest(Stack* stack, const std::string& wire, uint32_t pos,
                    ThreadTrace* trace, long long* rows_updated) {
  urm::net::api::ParsedIngest parsed;
  urm::net::api::ApiError api_error;
  bool ok;
  {
    ScopedSpan span(trace, kSpanParse, pos);
    urm::net::http::RequestParser parser;
    parser.Feed(wire);
    ok = parser.complete() &&
         urm::net::api::ParseIngestBody(parser.request().body, 4096, &parsed,
                                        &api_error);
  }
  if (!ok) return 400;
  ScopedSpan span(trace, kSpanApply, pos);
  auto report = stack->IngestFor(parsed.schema)->Apply(parsed.batch);
  span.End();
  if (!report.ok()) return 500;
  const urm::live::IngestReport& r = report.ValueOrDie();
  span.Set(kAttrKind, static_cast<double>(OpKind::kIngest));
  span.Set(kAttrEncodeS, r.encode_seconds);
  span.Set(kAttrFencedAnswers, static_cast<double>(r.fenced_answers));
  span.Set(kAttrFencedOperators, static_cast<double>(r.fenced_operators));
  span.Set(kAttrRowsUpdated, static_cast<double>(r.rows_updated));
  *rows_updated = static_cast<long long>(r.rows_updated);
  return 200;
}

}  // namespace

bool PrepareContext(Stack* stack, const Plan* plan, RunContext* context,
                    std::string* error) {
  context->stack = stack;
  context->plan = plan;
  context->batches.clear();
  for (const IngestSpec& spec : plan->batches) {
    ResolvedBatch resolved;
    if (!ResolveBatch(stack, spec, &resolved, error)) return false;
    context->batches.push_back(std::move(resolved));
  }
  context->query_wire.clear();
  for (const QuerySpec& spec : plan->queries) {
    context->query_wire.push_back(HttpClient::Post("/v1/query", spec.body));
  }
  context->batch_wire.clear();
  for (const ResolvedBatch& batch : context->batches) {
    context->batch_wire.push_back(HttpClient::Post("/v1/ingest", batch.body));
  }
  return true;
}

PhaseResult RunHttp(const RunContext& context, const std::vector<Op>& ops,
                    int connections) {
  BatchGate gate(FirstBatch(ops));
  std::vector<std::unique_ptr<HttpClient>> clients;
  for (int i = 0; i < connections; ++i) {
    clients.push_back(std::make_unique<HttpClient>(context.stack->port()));
  }
  return RunLanes(
      ops, connections,
      [&](size_t pos, Lane* lane) {
        const Op& op = ops[pos];
        const bool ingest = op.kind == OpKind::kIngest;
        if (ingest) gate.Wait(op.index);
        const std::string& wire = ingest ? context.batch_wire[op.index]
                                         : context.query_wire[op.index];
        std::string body;
        const int64_t start = NowNs();
        const int status = clients[lane->id]->Send(wire, &body);
        const double ms = (NowNs() - start) * 1e-6;
        if (ingest) gate.Done();
        (ingest ? lane->ingest_ms : lane->query_ms).push_back(ms);
        const long long updated =
            ingest && status == 200 ? ReceiptUpdatedRows(body) : -1;
        Record(op, pos, status, std::move(body), updated, lane);
      });
}

PhaseResult RunInProcess(const RunContext& context,
                         const std::vector<Op>& ops, int connections,
                         Tracer* tracer) {
  BatchGate gate(FirstBatch(ops));
  std::vector<ThreadTrace*> traces;
  for (int i = 0; i < connections; ++i) {
    traces.push_back(tracer != nullptr ? tracer->NewThread() : nullptr);
  }
  return RunLanes(
      ops, connections,
      [&](size_t pos, Lane* lane) {
        const Op& op = ops[pos];
        const uint32_t id = static_cast<uint32_t>(pos);
        ThreadTrace* trace = traces[lane->id];
        std::string body;
        long long updated = -1;
        int status;
        const int64_t start = NowNs();
        if (op.kind == OpKind::kIngest) {
          gate.Wait(op.index);
          {
            ScopedSpan root(trace, kSpanOp, id);
            status = InProcessIngest(context.stack,
                                     context.batch_wire[op.index], id, trace,
                                     &updated);
          }
          gate.Done();
          lane->ingest_ms.push_back((NowNs() - start) * 1e-6);
        } else {
          {
            ScopedSpan root(trace, kSpanOp, id);
            status = InProcessQuery(context.stack,
                                    context.query_wire[op.index], id, trace,
                                    true, &body);
          }
          lane->query_ms.push_back((NowNs() - start) * 1e-6);
        }
        Record(op, pos, status, std::move(body), updated, lane);
      });
}

size_t Verify(const RunContext& context, References* references,
              const std::vector<Op>& ops, const PhaseResult& phase,
              bool strict, std::vector<std::string>* errors) {
  // (query index, body hash) -> check verdict, so that every distinct
  // body is checked once and every operation that returned it shares
  // the verdict.
  std::map<std::pair<size_t, uint64_t>, std::string> verdicts;
  for (const Outcome& outcome : phase.outcomes) {
    const Op& op = ops[outcome.pos];
    if (op.kind == OpKind::kIngest || !outcome.has_body ||
        outcome.status != 200) {
      continue;
    }
    auto key = std::make_pair(op.index, outcome.body_hash);
    if (verdicts.count(key) != 0) continue;
    const QuerySpec& spec = context.plan->queries[op.index];
    std::string verdict;
    if (strict) {
      std::string error;
      const Reference* reference = references->For(spec, &error);
      verdict = reference == nullptr
                    ? error
                    : CheckQueryResponse(spec, outcome.body, *reference);
    } else {
      verdict = CheckQueryShape(spec, outcome.body);
    }
    verdicts.emplace(key, std::move(verdict));
  }
  size_t failed = 0;
  auto fail = [&](const Op& op, const std::string& why) {
    ++failed;
    if (errors->size() < 8) {
      errors->push_back(context.plan->Describe(op) + ": " + why);
    }
  };
  for (const Outcome& outcome : phase.outcomes) {
    const Op& op = ops[outcome.pos];
    if (outcome.status != 200) {
      fail(op, "HTTP status " + std::to_string(outcome.status));
      continue;
    }
    if (op.kind == OpKind::kIngest) {
      const size_t expected = context.batches[op.index].expected_updated;
      if (outcome.rows_updated != static_cast<long long>(expected)) {
        fail(op, "updated " + std::to_string(outcome.rows_updated) +
                     " rows, expected " + std::to_string(expected));
      }
      continue;
    }
    const std::string& verdict =
        verdicts[std::make_pair(op.index, outcome.body_hash)];
    if (!verdict.empty()) fail(op, verdict);
  }
  return failed;
}

double MeasureLoopMicros(const RunContext& context, size_t index,
                         int rounds) {
  const std::string& wire = context.query_wire[index];
  std::vector<double> http_us;
  {
    HttpClient client(context.stack->port());
    std::string body;
    client.Send(wire, &body);  // fills the cache where there is one
    for (int i = 0; i < rounds; ++i) {
      const int64_t start = NowNs();
      client.Send(wire, &body);
      http_us.push_back((NowNs() - start) * 1e-3);
    }
  }
  std::vector<double> local_us;
  for (int i = 0; i < rounds; ++i) {
    std::string body;
    const int64_t start = NowNs();
    InProcessQuery(context.stack, wire, 0, nullptr, false, &body);
    local_us.push_back((NowNs() - start) * 1e-3);
  }
  std::printf("loop probe: http_median_us=%.2f in_process_median_us=%.2f\n",
              Median(http_us), Median(local_us));
  return Median(http_us) - Median(local_us);
}

}  // namespace perfbench
