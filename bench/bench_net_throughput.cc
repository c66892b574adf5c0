/// \file bench_net_throughput.cc
/// Loopback throughput and latency of the network tier: req/s and
/// p50/p99 against concurrent keep-alive connections hammering
/// POST /v1/query. The query body repeats, so after the first miss
/// every request is an answer-cache hit — the numbers isolate the
/// HTTP + JSON + poll-loop overhead the net tier adds on top of the
/// service, not the engine (bench_service_throughput covers that).
///
/// Scale knobs: URM_BENCH_MB / URM_BENCH_H size the engine,
/// URM_BENCH_NET_REQUESTS sets requests per connection (default 200),
/// URM_BENCH_NET_MAX_CONNS caps the sweep (default 8). JSON lines
/// record `hw_threads` — loopback client threads and the server share
/// the same cores, so cross-machine trajectories need it.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "net/api.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "service/query_service.h"

namespace {

using namespace urm;  // NOLINT

/// ServiceHub over the bench engine cache (Excel only).
class BenchHub : public net::api::ServiceHub {
 public:
  BenchHub(core::Engine* engine, obs::Registry* registry) {
    service::ServiceOptions options;
    options.num_threads = 2;
    options.metrics_registry = registry;
    service_ =
        std::make_unique<service::QueryService>(engine, options);
  }

  service::QueryService* ForSchema(datagen::TargetSchemaId) override {
    return service_.get();
  }
  void VisitServices(
      const std::function<void(datagen::TargetSchemaId,
                               service::QueryService*)>& fn) override {
    fn(datagen::TargetSchemaId::kExcel, service_.get());
  }

 private:
  std::unique_ptr<service::QueryService> service_;
};

/// Minimal blocking keep-alive HTTP client for one loopback connection.
class BenchClient {
 public:
  explicit BenchClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ok_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) == 0;
  }
  ~BenchClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return ok_; }

  /// One POST /v1/query round trip; returns the HTTP status (0 on a
  /// transport failure).
  int Post(const std::string& request_bytes) {
    size_t sent = 0;
    while (sent < request_bytes.size()) {
      ssize_t n = ::send(fd_, request_bytes.data() + sent,
                         request_bytes.size() - sent, 0);
      if (n <= 0) return 0;
      sent += static_cast<size_t>(n);
    }
    // Read one full response (headers + Content-Length body).
    while (true) {
      size_t head_end = buffer_.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        head_end += 4;
        size_t body_len = 0;
        size_t cl = buffer_.find("Content-Length:");
        if (cl != std::string::npos && cl < head_end) {
          body_len = static_cast<size_t>(
              std::atoll(buffer_.c_str() + cl + 15));
        }
        if (buffer_.size() >= head_end + body_len) {
          int code = std::atoi(buffer_.c_str() + 9);
          buffer_.erase(0, head_end + body_len);
          return code;
        }
      }
      char chunk[8192];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return 0;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool ok_ = false;
  std::string buffer_;
};

std::string PostQueryBytes() {
  std::string body =
      "{\"version\":1,\"query\":\"Q1\",\"method\":\"o-sharing\"}";
  return "POST /v1/query HTTP/1.1\r\nHost: bench\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

double Percentile(std::vector<double>* sorted_ms, double p) {
  if (sorted_ms->empty()) return 0.0;
  size_t index = static_cast<size_t>(p * (sorted_ms->size() - 1));
  return (*sorted_ms)[index];
}

}  // namespace

int main() {
  double mb = bench::BenchMb();
  int h = bench::BenchH();
  int per_conn = bench::EnvInt("URM_BENCH_NET_REQUESTS", 200);
  int max_conns = bench::EnvInt("URM_BENCH_NET_MAX_CONNS", 8);
  unsigned hw = std::thread::hardware_concurrency();
  std::printf("# net throughput: |D|=%.1f MB, h=%d, %d req/conn, "
              "hw_threads=%u\n",
              mb, h, per_conn, hw);

  bench::EngineCache engines;
  core::Engine* engine =
      engines.Get(datagen::TargetSchemaId::kExcel, mb, h);
  obs::Registry registry;
  BenchHub hub(engine, &registry);

  net::ServerOptions options;
  options.dosguard.requests_per_second = 0.0;  // measure, don't police
  options.dosguard.max_inflight_requests = 0;
  options.dosguard.max_inflight_per_client = 0;
  options.metrics_registry = &registry;
  net::HttpServer server(options);
  net::api::ApiOptions api_options;
  api_options.metrics_registry = &registry;
  net::api::RegisterRoutes(&server, &hub, api_options);
  Status status = server.Start();
  URM_CHECK(status.ok()) << status.ToString();
  uint16_t port = server.port();
  const std::string request_bytes = PostQueryBytes();

  // Warm: first request evaluates and fills the answer cache.
  {
    BenchClient warm(port);
    URM_CHECK(warm.ok());
    URM_CHECK(warm.Post(request_bytes) == 200);
  }

  for (int conns = 1; conns <= max_conns; conns *= 2) {
    std::vector<std::vector<double>> latencies_ms(conns);
    std::atomic<int> failures{0};
    Timer timer;
    std::vector<std::thread> clients;
    for (int i = 0; i < conns; ++i) {
      clients.emplace_back([&, i] {
        BenchClient client(port);
        if (!client.ok()) {
          failures.fetch_add(per_conn);
          return;
        }
        latencies_ms[i].reserve(per_conn);
        for (int r = 0; r < per_conn; ++r) {
          Timer rt;
          if (client.Post(request_bytes) != 200) {
            failures.fetch_add(1);
            continue;
          }
          latencies_ms[i].push_back(rt.Seconds() * 1e3);
        }
      });
    }
    for (auto& t : clients) t.join();
    double seconds = timer.Seconds();

    std::vector<double> all_ms;
    for (auto& per_client : latencies_ms) {
      all_ms.insert(all_ms.end(), per_client.begin(), per_client.end());
    }
    std::sort(all_ms.begin(), all_ms.end());
    URM_CHECK(failures.load() == 0) << failures.load() << " failures";
    double rps = seconds > 0 ? all_ms.size() / seconds : 0.0;
    std::printf("conns=%d  requests=%zu  %.0f req/s  p50=%.3f ms  "
                "p99=%.3f ms\n",
                conns, all_ms.size(), rps, Percentile(&all_ms, 0.50),
                Percentile(&all_ms, 0.99));
    bench::JsonLine("net_throughput")
        .Field("connections", conns)
        .Field("requests", all_ms.size())
        .Field("seconds", seconds)
        .Field("rps", rps)
        .Field("p50_ms", Percentile(&all_ms, 0.50))
        .Field("p99_ms", Percentile(&all_ms, 0.99))
        .Field("hw_threads", static_cast<int>(hw))
        .Emit();
  }
  server.Shutdown();
  return 0;
}
