/// \file urm_server.cpp
/// REPL-style serving driver for the QueryService built on the unified
/// request API: every query kind (method evaluation, top-k, set-op,
/// threshold) enters as a core::Request, batches are deduplicated and
/// evaluated concurrently, and results can be delivered synchronously,
/// asynchronously (futures + completion callbacks), or streamed leaf
/// by leaf through a core::AnswerSink.
///
///   urm_server [--mb 1.0] [--h 100] [--threads 4] [--cache 256]
///              [--parallelism 1] [--shards 1] [--store-mb 256] [--ttl 0]
///              [--http <port>] [--http-drain <s>]
///              [--metrics-file <path>] [--metrics-interval <s>]
///              [--log-level debug|info|warn|error|off]
///
/// --shards S > 1 evaluates every request over the mapping set split
/// into S contiguous probability-renormalized shards, concurrently on
/// the pool, with a deterministic per-shard answer merge (the h ≫ 10³
/// scaling path; see docs/TUNING.md).
///
/// --http P serves the versioned JSON API (docs/API.md) on
/// 127.0.0.1:P alongside the REPL — POST /v1/query, GET /v1/stats,
/// GET /metrics, and the /v1/stream WebSocket (P = 0 binds an
/// ephemeral port, printed at startup). SIGINT/SIGTERM (and REPL
/// `quit`) drain gracefully: the listener closes, in-flight requests
/// and streams finish, and the metrics dumper writes its final dump —
/// --http-drain bounds the wait (default 10 s).
///
/// --metrics-file dumps the Prometheus text exposition (the same
/// payload the `metrics` command prints) to <path> — atomically via a
/// temp file + rename, so a scraper's textfile collector never reads a
/// torn dump. With --metrics-interval S > 0 a background thread
/// refreshes the file every S seconds; otherwise it is written once at
/// exit. See docs/OBSERVABILITY.md for the metric glossary.
///
/// Commands (one per line):
///   run Q4 [method]            evaluate one query (default osharing)
///   topk Q4 5                  top-k: 5 best tuples with bounds
///   threshold Q4 0.25          all tuples with Pr >= 0.25
///   setop Q1 union Q2          set operation (union|intersect|except;
///                              operands must share a schema + arity)
///   batch Q1:osharing Q2:topk:5 Q4:threshold:0.2 ...
///                              submit a mixed-kind batch; duplicates
///                              share work
///   async Q1 Q2:qsharing ...   submit via SubmitAsync; completions
///                              print as their callbacks fire
///   stream Q4 [method]         stream u-trace leaf answers as they
///                              are produced (time-to-first-answer)
///   stream Q4 topk 5           ... same for the top-k scan
///   stats                      answer-cache / operator-store / pool
///                              counters per schema
///   metrics                    Prometheus text exposition of every
///                              registered series
///   clear                      drop all cached answers
///   help                       this text
///   quit                       exit (EOF works too)
///
/// Engines are built lazily per target schema (Q1-Q5 Excel, Q6-Q7
/// Noris, Q8-Q10 Paragon), each fronted by its own QueryService
/// sharing the configured pool/cache sizes.

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "core/workload.h"
#include "live/ingest.h"
#include "net/api.h"
#include "net/server.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "service/query_service.h"

namespace {

using namespace urm;  // NOLINT

struct ServerArgs {
  double mb = 1.0;
  int h = 100;
  int threads = 4;
  size_t cache = 256;
  int parallelism = 1;
  int shards = 1;           ///< mapping shards per evaluation (1 = off)
  double store_mb = 256.0;  ///< operator-store byte budget (MB, >= 0)
  double ttl = 0.0;         ///< answer-cache TTL seconds (0 = none)
  std::string metrics_file;      ///< exposition dump path ("" = off)
  double metrics_interval = 0.0; ///< dump period seconds (<= 0: at exit)
  int http_port = -1;            ///< -1 = no HTTP tier; 0 = ephemeral
  double http_drain = 10.0;      ///< graceful-drain deadline seconds
};

/// Async-signal-safe shutdown notification: the handler stores which
/// signal arrived and writes one byte into a self-pipe the REPL's
/// poll loop watches (write(2) is on the async-signal-safe list;
/// printf/locks are not).
std::atomic<int> g_signal{0};
int g_signal_pipe[2] = {-1, -1};

void HandleSignal(int sig) {
  g_signal.store(sig, std::memory_order_release);
  char byte = 's';
  [[maybe_unused]] ssize_t ignored = ::write(g_signal_pipe[1], &byte, 1);
}

void InstallSignalHandlers() {
  if (::pipe(g_signal_pipe) != 0) {
    g_signal_pipe[0] = g_signal_pipe[1] = -1;
    return;
  }
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleSignal;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

/// Reads REPL lines off stdin with poll(), watching the signal pipe at
/// the same time — a pending SIGINT/SIGTERM interrupts the wait
/// instead of leaving the process stuck in a blocking getline.
class LineReader {
 public:
  enum class Event { kLine, kEof, kSignal };

  Event Next(std::string* line) {
    while (true) {
      size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        *line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return Event::kLine;
      }
      if (eof_) {
        if (!buffer_.empty()) {
          *line = std::move(buffer_);
          buffer_.clear();
          return Event::kLine;
        }
        return Event::kEof;
      }
      if (g_signal.load(std::memory_order_acquire) != 0) {
        return Event::kSignal;
      }
      pollfd fds[2] = {{STDIN_FILENO, POLLIN, 0},
                       {g_signal_pipe[0], POLLIN, 0}};
      nfds_t count = g_signal_pipe[0] >= 0 ? 2 : 1;
      ::poll(fds, count, -1);
      if (g_signal.load(std::memory_order_acquire) != 0 ||
          (count == 2 && fds[1].revents != 0)) {
        return Event::kSignal;
      }
      if ((fds[0].revents & (POLLIN | POLLHUP)) != 0) {
        char chunk[4096];
        ssize_t n = ::read(STDIN_FILENO, chunk, sizeof(chunk));
        if (n > 0) {
          buffer_.append(chunk, static_cast<size_t>(n));
        } else if (n == 0 || (errno != EINTR && errno != EAGAIN)) {
          eof_ = true;
        }
      }
    }
  }

 private:
  std::string buffer_;
  bool eof_ = false;
};

/// Blocks until SIGINT/SIGTERM arrives (the --http idle wait once
/// stdin reaches EOF — e.g. `urm_server --http 0 < /dev/null`).
void WaitForSignal() {
  while (g_signal.load(std::memory_order_acquire) == 0) {
    pollfd fd = {g_signal_pipe[0], POLLIN, 0};
    ::poll(&fd, g_signal_pipe[0] >= 0 ? 1 : 0, 500);
  }
}

/// One engine + service per target schema, built on first use. Doubles
/// as the HTTP tier's ServiceHub: with --http the server loop thread
/// resolves schemas concurrently with the REPL thread, so every access
/// to the map goes through mu_.
class ServiceDirectory : public net::api::ServiceHub {
 public:
  explicit ServiceDirectory(const ServerArgs& args) : args_(args) {}

  service::QueryService* ForSchema(datagen::TargetSchemaId schema) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = services_.find(schema);
    if (it != services_.end()) return it->second.service.get();
    std::printf("building %s engine (|D|=%.1f MB, h=%d)...\n",
                datagen::TargetSchemaName(schema), args_.mb, args_.h);
    core::Engine::Options options;
    options.target_mb = args_.mb;
    options.num_mappings = args_.h;
    options.target_schema = schema;
    auto engine = core::Engine::Create(options);
    if (!engine.ok()) {
      std::printf("error: %s\n", engine.status().ToString().c_str());
      return nullptr;
    }
    Entry entry;
    entry.engine = std::move(engine).ValueOrDie();
    service::ServiceOptions service_options;
    service_options.num_threads = args_.threads;
    service_options.cache_capacity = args_.cache;
    service_options.cache_ttl_seconds = args_.ttl;
    service_options.intra_query_parallelism = args_.parallelism;
    service_options.mapping_shards = args_.shards;
    service_options.operator_store_bytes =
        static_cast<size_t>(args_.store_mb * 1024 * 1024);
    // Each schema's service shares the process DefaultRegistry; the
    // schema label keeps their series apart in one exposition.
    service_options.metric_labels = {
        {"schema", datagen::TargetSchemaName(schema)}};
    entry.service = std::make_unique<service::QueryService>(
        entry.engine.get(), service_options);
    live::IngestOptions ingest_options;
    ingest_options.metric_labels = service_options.metric_labels;
    entry.ingest = std::make_unique<live::IngestController>(
        entry.engine.get(), entry.service.get(), ingest_options);
    auto* result = entry.service.get();
    services_.emplace(schema, std::move(entry));
    return result;
  }

  void VisitServices(
      const std::function<void(datagen::TargetSchemaId,
                               service::QueryService*)>& fn) override {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [schema, entry] : services_) fn(schema, entry.service.get());
  }

  live::IngestController* IngestFor(datagen::TargetSchemaId schema) override {
    // Instantiate the whole stack on first use, exactly like ForSchema
    // (an ingest against a cold schema builds its engine + service).
    if (ForSchema(schema) == nullptr) return nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = services_.find(schema);
    return it != services_.end() ? it->second.ingest.get() : nullptr;
  }

  void PrintStats() const {
    std::lock_guard<std::mutex> lock(mu_);
    if (services_.empty()) {
      std::printf("no engines built yet\n");
      return;
    }
    // Every counter is printed under its CacheStats / OperatorStoreStats
    // field name; the glossary for all of them is in docs/TUNING.md.
    for (const auto& [schema, entry] : services_) {
      service::CacheStats stats = entry.service->cache_stats();
      std::printf("%-8s answers:   entries=%zu bytes=%.1fKB hits=%zu "
                  "misses=%zu evictions=%zu expirations=%zu\n",
                  datagen::TargetSchemaName(schema), stats.entries,
                  stats.bytes / 1024.0, stats.hits, stats.misses,
                  stats.evictions, stats.expirations);
      osharing::OperatorStoreStats store =
          entry.service->operator_store_stats();
      std::printf("%-8s operators: entries=%zu bytes=%.1fKB hits=%zu "
                  "single_flight_waits=%zu misses=%zu evictions=%zu "
                  "bytes_reused=%.1fKB\n",
                  "", store.entries, store.bytes / 1024.0, store.hits,
                  store.single_flight_waits, store.misses,
                  store.evictions, store.bytes_reused / 1024.0);
      PoolStats pool = entry.service->pool_stats();
      std::printf("%-8s pool:      threads=%zu queue_depth=%zu "
                  "running_tasks=%zu tasks_executed=%llu\n",
                  "", pool.threads, pool.queue_depth, pool.running_tasks,
                  static_cast<unsigned long long>(pool.tasks_executed));
      // Compressed catalog footprint + scan-byte accounting (the
      // columnar storage layer; field glossary in docs/TUNING.md).
      relational::Catalog::StorageStats storage =
          entry.service->engine().catalog().Storage();
      service::QueryService::StorageScanStats scans =
          entry.service->storage_scan_stats();
      std::printf("%-8s storage:   encoded_bytes=%.1fKB logical_bytes="
                  "%.1fKB compression_ratio=%.2f bytes_scanned=%.1fKB "
                  "columnar_scans=%llu row_scans=%llu\n",
                  "", storage.encoded_bytes / 1024.0,
                  storage.logical_bytes / 1024.0,
                  storage.encoded_bytes > 0
                      ? static_cast<double>(storage.logical_bytes) /
                            static_cast<double>(storage.encoded_bytes)
                      : 1.0,
                  scans.bytes_scanned / 1024.0,
                  static_cast<unsigned long long>(scans.columnar_scans),
                  static_cast<unsigned long long>(scans.row_scans));
    }
  }

  void ClearCaches() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [schema, entry] : services_) entry.service->ClearCache();
    std::printf("caches cleared\n");
  }

 private:
  struct Entry {
    std::unique_ptr<core::Engine> engine;
    std::unique_ptr<service::QueryService> service;
    /// Live-update controller over the two above (delta ingest +
    /// mapping hot-reconfiguration; serves POST /v1/ingest).
    std::unique_ptr<live::IngestController> ingest;
  };
  ServerArgs args_;
  mutable std::mutex mu_;
  std::map<datagen::TargetSchemaId, Entry> services_;
};

void PrintResponse(const std::string& label,
                   const service::QueryResponse& response) {
  if (!response.status.ok()) {
    std::printf("%-18s error: %s\n", label.c_str(),
                response.status.ToString().c_str());
    return;
  }
  const char* source = response.cache_hit ? "cache"
                       : response.shared_in_batch ? "shared"
                                                  : "evaluated";
  const core::Response& r = *response.response;
  switch (r.kind) {
    case core::RequestKind::kEvaluate:
    case core::RequestKind::kSetOp:
      std::printf("%-18s %-9s %zu answers (P(θ)=%.3f) %zu partitions "
                  "%.1f ms",
                  label.c_str(), source, r.evaluate.answers.size(),
                  r.evaluate.answers.null_probability(),
                  r.evaluate.partitions, r.evaluate.TotalSeconds() * 1e3);
      if (r.evaluate.stats.cache_hits + r.evaluate.stats.cache_misses > 0) {
        // Operator-store observability: how much materialization this
        // evaluation reused vs computed. Every field is labelled with
        // its EvalStats name; the field glossary lives in
        // docs/TUNING.md.
        std::printf("  [ops: cache_hits=%zu cache_misses=%zu "
                    "cache_bytes_saved=%.1fKB "
                    "bytes_scanned=%.1fKB columnar_scans=%zu]",
                    r.evaluate.stats.cache_hits,
                    r.evaluate.stats.cache_misses,
                    r.evaluate.stats.cache_bytes_saved / 1024.0,
                    r.evaluate.stats.bytes_scanned / 1024.0,
                    r.evaluate.stats.columnar_scans);
      }
      std::printf("\n");
      break;
    case core::RequestKind::kTopK:
      std::printf("%-18s %-9s top-%zu (%s after %zu leaves) %.1f ms\n",
                  label.c_str(), source, r.top_k.tuples.size(),
                  r.top_k.early_terminated ? "pruned" : "exhausted",
                  r.top_k.leaves_visited, r.top_k.seconds * 1e3);
      for (const auto& t : r.top_k.tuples) {
        std::printf("    Pr in [%.4f, %.4f]\n", t.lower_bound,
                    t.upper_bound);
      }
      break;
    case core::RequestKind::kThreshold:
      std::printf("%-18s %-9s %zu tuples over threshold (%s after %zu "
                  "leaves) %.1f ms\n",
                  label.c_str(), source, r.threshold.tuples.size(),
                  r.threshold.early_terminated ? "pruned" : "exhausted",
                  r.threshold.leaves_visited, r.threshold.seconds * 1e3);
      break;
  }
}

/// core::FindQuery, reporting unknown ids.
const core::WorkloadQuery* FindQueryOrReport(const std::string& id) {
  const core::WorkloadQuery* wq = core::FindQuery(id);
  if (wq == nullptr) {
    std::printf("unknown query '%s' (expected Q1..Q10)\n", id.c_str());
  }
  return wq;
}

/// Parses "Q4", "Q4:osharing", "Q4:topk:5" or "Q4:threshold:0.2" into
/// a Request over the query's schema.
bool ParseRequestToken(const std::string& token, core::Request* request,
                       datagen::TargetSchemaId* schema) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream stream(token);
  while (std::getline(stream, part, ':')) parts.push_back(part);
  if (parts.empty()) return false;
  const core::WorkloadQuery* wq = FindQueryOrReport(parts[0]);
  if (wq == nullptr) return false;
  *schema = wq->schema;
  if (parts.size() == 1) {
    *request = core::Request::MethodEval(wq->query, core::Method::kOSharing);
    return true;
  }
  core::Method method;
  if (core::ParseMethod(parts[1], &method)) {
    *request = core::Request::MethodEval(wq->query, method);
    return true;
  }
  if (parts[1] == "topk" && parts.size() == 3) {
    long long k = std::atoll(parts[2].c_str());
    if (k <= 0) {
      std::printf("k must be a positive integer, got '%s'\n",
                  parts[2].c_str());
      return false;
    }
    *request = core::Request::TopK(wq->query, static_cast<size_t>(k));
    return true;
  }
  if (parts[1] == "threshold" && parts.size() == 3) {
    *request = core::Request::Threshold(wq->query,
                                        std::atof(parts[2].c_str()));
    return true;
  }
  std::printf("cannot parse '%s' (try Qid, Qid:method, Qid:topk:k, "
              "Qid:threshold:p)\n",
              token.c_str());
  return false;
}

void RunBatch(ServiceDirectory* directory,
              const std::vector<std::string>& tokens) {
  // Group requests per schema (each schema has its own service); keep
  // the submission batched so dedup/cache behavior is visible.
  std::map<datagen::TargetSchemaId,
           std::pair<std::vector<std::string>, std::vector<core::Request>>>
      by_schema;
  for (const auto& token : tokens) {
    core::Request request;
    datagen::TargetSchemaId schema;
    if (!ParseRequestToken(token, &request, &schema)) return;
    auto& [labels, requests] = by_schema[schema];
    labels.push_back(token);
    requests.push_back(std::move(request));
  }
  for (auto& [schema, group] : by_schema) {
    service::QueryService* service = directory->ForSchema(schema);
    if (service == nullptr) return;
    auto responses = service->Submit(group.second);
    for (size_t i = 0; i < responses.size(); ++i) {
      PrintResponse(group.first[i], responses[i]);
    }
  }
}

/// Submits every request through SubmitAsync; completion callbacks
/// print from the worker threads as evaluations finish (out of
/// submission order when pool size allows).
void RunAsync(ServiceDirectory* directory,
              const std::vector<std::string>& tokens) {
  // Parse and resolve every token before submitting anything: once a
  // request is in flight its callback references the locals below, so
  // no early return may happen past the first SubmitAsync.
  struct Parsed {
    std::string label;
    core::Request request;
    service::QueryService* service = nullptr;
  };
  std::vector<Parsed> parsed;
  for (const auto& token : tokens) {
    Parsed p;
    p.label = token;
    datagen::TargetSchemaId schema;
    if (!ParseRequestToken(token, &p.request, &schema)) return;
    p.service = directory->ForSchema(schema);
    if (p.service == nullptr) return;
    parsed.push_back(std::move(p));
  }

  std::mutex stdout_mu;
  Timer timer;
  std::vector<std::future<service::QueryResponse>> futures;
  for (const auto& p : parsed) {
    std::string label = p.label;
    futures.push_back(p.service->SubmitAsync(
        p.request, nullptr,
        [&stdout_mu, &timer, label](const service::QueryResponse& response) {
          std::lock_guard<std::mutex> lock(stdout_mu);
          std::printf("  [%.1f ms] ", timer.Seconds() * 1e3);
          PrintResponse(label, response);
        }));
  }
  std::printf("%zu requests in flight\n", futures.size());
  for (auto& future : futures) future.wait();
}

/// Streams one request's u-trace leaves as they are produced.
class PrintingSink : public core::AnswerSink {
 public:
  bool OnAnswer(const std::vector<relational::Row>& rows,
                double probability) override {
    if (answers_++ == 0) first_ms_ = timer_.Seconds() * 1e3;
    std::printf("  leaf %3zu: %4zu rows, partition mass %.4f "
                "(t=%.1f ms)\n",
                answers_, rows.size(), probability,
                timer_.Seconds() * 1e3);
    return true;
  }

  void OnComplete(const Status& status) override {
    std::printf("  stream complete (%s): %zu leaves, first after "
                "%.1f ms, done after %.1f ms\n",
                status.ok() ? "ok" : status.ToString().c_str(), answers_,
                first_ms_, timer_.Seconds() * 1e3);
  }

 private:
  Timer timer_;
  size_t answers_ = 0;
  double first_ms_ = 0.0;
};

void RunStream(ServiceDirectory* directory,
               const std::vector<std::string>& tokens) {
  if (tokens.empty()) return;
  core::Request request;
  datagen::TargetSchemaId schema;
  if (tokens.size() >= 2 && tokens[1] == "topk") {
    std::string token = tokens[0] + ":topk:" +
                        (tokens.size() > 2 ? tokens[2] : "5");
    if (!ParseRequestToken(token, &request, &schema)) return;
  } else if (tokens.size() >= 2 && tokens[1] == "threshold") {
    std::string token = tokens[0] + ":threshold:" +
                        (tokens.size() > 2 ? tokens[2] : "0.2");
    if (!ParseRequestToken(token, &request, &schema)) return;
  } else {
    std::string token =
        tokens.size() > 1 ? tokens[0] + ":" + tokens[1] : tokens[0];
    if (!ParseRequestToken(token, &request, &schema)) return;
  }
  service::QueryService* service = directory->ForSchema(schema);
  if (service == nullptr) return;
  PrintingSink sink;
  auto response = service->Submit(request, &sink);
  PrintResponse(tokens[0], response);
}

void RunSetOp(ServiceDirectory* directory, const std::string& left_id,
              const std::string& op_name, const std::string& right_id) {
  core::SetOpKind kind;
  if (!core::ParseSetOp(op_name, &kind)) {
    std::printf("unknown set op '%s' (union|intersect|except)\n",
                op_name.c_str());
    return;
  }
  const core::WorkloadQuery* left = FindQueryOrReport(left_id);
  const core::WorkloadQuery* right =
      left != nullptr ? FindQueryOrReport(right_id) : nullptr;
  if (right == nullptr) return;
  if (left->schema != right->schema) {
    std::printf("set-op operands must share a target schema\n");
    return;
  }
  service::QueryService* service = directory->ForSchema(left->schema);
  if (service == nullptr) return;
  auto response =
      service->Submit(core::Request::SetOp(left->query, right->query, kind));
  PrintResponse(left_id + " " + op_name + " " + right_id, response);
}

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  run <Q1..Q10> [basic|ebasic|emqo|qsharing|osharing]\n"
      "  topk <Qid> <k>\n"
      "  threshold <Qid> <p>\n"
      "  setop <Qid> <union|intersect|except> <Qid>\n"
      "  batch <Qid>[:<method>|:topk:<k>|:threshold:<p>] ...\n"
      "  async <Qid>[:<method>|:topk:<k>|:threshold:<p>] ...\n"
      "  stream <Qid> [<method>|topk <k>|threshold <p>]\n"
      "  stats | metrics | clear | help | quit\n");
}

/// Writes the exposition to `path` atomically (temp file + rename), so
/// a textfile-collector scrape never reads a torn dump.
bool DumpMetrics(const std::string& path) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    URM_LOG(Error, "server") << "cannot open metrics file " << tmp;
    return false;
  }
  const std::string text = obs::DefaultRegistry().ExposeText();
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    URM_LOG(Error, "server") << "metrics dump to " << path << " failed";
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

/// Periodic --metrics-file refresher: a background thread dumps every
/// `interval` seconds; the destructor stops it and writes one final
/// dump (also the whole behavior when interval <= 0).
class MetricsDumper {
 public:
  MetricsDumper(std::string path, double interval)
      : path_(std::move(path)) {
    if (path_.empty()) return;
    if (interval > 0.0) {
      thread_ = std::thread([this, interval] {
        std::unique_lock<std::mutex> lock(mu_);
        while (!stop_) {
          cv_.wait_for(lock, std::chrono::duration<double>(interval),
                       [this] { return stop_; });
          if (stop_) break;
          lock.unlock();
          DumpMetrics(path_);
          lock.lock();
        }
      });
    }
  }

  ~MetricsDumper() {
    if (path_.empty()) return;
    if (thread_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
      }
      cv_.notify_all();
      thread_.join();
    }
    DumpMetrics(path_);  // final dump reflects the full session
  }

 private:
  std::string path_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

constexpr const char kUsage[] =
    "usage: urm_server [--mb 1.0] [--h 100] [--threads 4] [--cache 256]\n"
    "                  [--parallelism 1] [--shards 1] [--store-mb 256]\n"
    "                  [--ttl 0] [--http <port>] [--http-drain <s>]\n"
    "                  [--metrics-file <path>] [--metrics-interval <s>]\n"
    "                  [--log-level debug|info|warn|error|off]\n";

/// Parses --store-mb: a finite, non-negative number of megabytes whose
/// byte count fits a size_t. Anything else (negative, non-numeric,
/// trailing junk, NaN/inf, overflow) is rejected.
bool ParseStoreMb(const char* text, double* mb) {
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value) || value < 0.0 ||
      value * 1024 * 1024 >=
          static_cast<double>(std::numeric_limits<size_t>::max())) {
    return false;
  }
  *mb = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ServerArgs args;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--mb") == 0) args.mb = std::atof(next("--mb"));
    else if (std::strcmp(argv[i], "--h") == 0) args.h = std::atoi(next("--h"));
    else if (std::strcmp(argv[i], "--threads") == 0)
      args.threads = std::atoi(next("--threads"));
    else if (std::strcmp(argv[i], "--cache") == 0)
      args.cache = static_cast<size_t>(std::atoll(next("--cache")));
    else if (std::strcmp(argv[i], "--parallelism") == 0)
      args.parallelism = std::atoi(next("--parallelism"));
    else if (std::strcmp(argv[i], "--shards") == 0)
      args.shards = std::atoi(next("--shards"));
    else if (std::strcmp(argv[i], "--store-mb") == 0) {
      const char* text = next("--store-mb");
      if (!ParseStoreMb(text, &args.store_mb)) {
        std::fprintf(stderr,
                     "invalid --store-mb '%s': expected the operator-store "
                     "budget in MB, a non-negative number\n%s",
                     text, kUsage);
        return 1;
      }
    }
    else if (std::strcmp(argv[i], "--ttl") == 0)
      args.ttl = std::atof(next("--ttl"));
    else if (std::strcmp(argv[i], "--http") == 0)
      args.http_port = std::atoi(next("--http"));
    else if (std::strcmp(argv[i], "--http-drain") == 0)
      args.http_drain = std::atof(next("--http-drain"));
    else if (std::strcmp(argv[i], "--metrics-file") == 0)
      args.metrics_file = next("--metrics-file");
    else if (std::strcmp(argv[i], "--metrics-interval") == 0)
      args.metrics_interval = std::atof(next("--metrics-interval"));
    else if (std::strcmp(argv[i], "--log-level") == 0) {
      obs::LogLevel level;
      const char* name = next("--log-level");
      if (!obs::ParseLogLevel(name, &level)) {
        std::fprintf(stderr,
                     "unknown log level '%s' "
                     "(debug|info|warn|error|off)\n",
                     name);
        return 1;
      }
      obs::set_log_threshold(level);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 1;
    }
  }

  if (args.http_port >= 0 && args.threads <= 0) {
    // SubmitAsync needs pool workers to make progress for HTTP
    // callers; the REPL's synchronous helping wait can't help them.
    std::printf("note: --http requires pool workers; using --threads 1\n");
    args.threads = 1;
  }

  InstallSignalHandlers();

  std::printf("urm query service (threads=%d, cache=%zu, parallelism=%d, "
              "shards=%d); 'help' lists commands\n",
              args.threads, args.cache, args.parallelism, args.shards);
  ServiceDirectory directory(args);
  MetricsDumper dumper(args.metrics_file, args.metrics_interval);

  // Declared after directory/dumper so teardown drains the HTTP tier
  // first, while the services (and the registry the final metrics dump
  // reads) are still alive.
  std::unique_ptr<net::HttpServer> http;
  if (args.http_port >= 0) {
    net::ServerOptions options;
    options.listener.port = static_cast<uint16_t>(args.http_port);
    options.drain_deadline_seconds =
        args.http_drain > 0.0 ? args.http_drain : 10.0;
    http = std::make_unique<net::HttpServer>(options);
    net::api::RegisterRoutes(http.get(), &directory);
    Status status = http->Start();
    if (!status.ok()) {
      std::fprintf(stderr, "http: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("http listening on 127.0.0.1:%u\n", http->port());
  }

  LineReader reader;
  std::string line;
  while (true) {
    std::printf("urm> ");
    std::fflush(stdout);
    LineReader::Event event = reader.Next(&line);
    if (event == LineReader::Event::kSignal) {
      std::printf("\nsignal received, shutting down\n");
      break;
    }
    if (event == LineReader::Event::kEof) {
      if (http != nullptr) {
        // Headless --http mode (stdin redirected from /dev/null):
        // keep serving until SIGINT/SIGTERM.
        std::printf("\nstdin closed; serving until SIGINT/SIGTERM\n");
        std::fflush(stdout);
        WaitForSignal();
        std::printf("signal received, shutting down\n");
      }
      break;
    }
    std::istringstream stream(line);
    std::string command;
    if (!(stream >> command)) continue;
    if (command == "quit" || command == "exit") break;
    std::vector<std::string> tokens;
    std::string token;
    while (stream >> token) tokens.push_back(token);
    if (command == "help") {
      PrintHelp();
    } else if (command == "stats") {
      directory.PrintStats();
    } else if (command == "metrics") {
      std::fputs(obs::DefaultRegistry().ExposeText().c_str(), stdout);
    } else if (command == "clear") {
      directory.ClearCaches();
    } else if (command == "run") {
      if (tokens.empty()) {
        PrintHelp();
        continue;
      }
      RunBatch(&directory, {tokens.size() > 1
                                ? tokens[0] + ":" + tokens[1]
                                : tokens[0]});
    } else if (command == "topk" && tokens.size() == 2) {
      RunBatch(&directory, {tokens[0] + ":topk:" + tokens[1]});
    } else if (command == "threshold" && tokens.size() == 2) {
      RunBatch(&directory, {tokens[0] + ":threshold:" + tokens[1]});
    } else if (command == "setop" && tokens.size() == 3) {
      RunSetOp(&directory, tokens[0], tokens[1], tokens[2]);
    } else if (command == "batch" && !tokens.empty()) {
      RunBatch(&directory, tokens);
    } else if (command == "async" && !tokens.empty()) {
      if (args.threads == 0) {
        // No workers to run detached futures; Submit's helping wait is
        // the only way to make progress.
        std::printf("note: --threads 0, falling back to sync batch\n");
        RunBatch(&directory, tokens);
      } else {
        RunAsync(&directory, tokens);
      }
    } else if (command == "stream" && !tokens.empty()) {
      RunStream(&directory, tokens);
    } else {
      PrintHelp();
    }
  }
  if (http != nullptr) {
    std::printf("draining http server...\n");
    http->Shutdown();
    std::printf("http server stopped\n");
  }
  return 0;
}
