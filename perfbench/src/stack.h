#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/engine.h"
#include "live/ingest.h"
#include "net/api.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "relational/delta.h"
#include "service/query_service.h"
#include "workload.h"

/// \file stack.h
/// The serving stack the benchmark drives: three engines (Excel,
/// Noris, Paragon) built eagerly, one QueryService and one
/// IngestController per schema behind a ServiceHub, and an HttpServer
/// with the /v1 routes on an ephemeral loopback port.

namespace perfbench {

constexpr double kDataMb = 0.1;  ///< |D| per schema
constexpr int kMappings = 100;   ///< h, possible mappings per schema

struct StackOptions {
  size_t cache_capacity = 256;
};

class Stack : public urm::net::api::ServiceHub {
 public:
  static constexpr int kSchemas = 3;

  /// Builds every engine, service and controller and starts the
  /// server. Returns null with `error` set on failure.
  static std::unique_ptr<Stack> Build(const StackOptions& options,
                                      std::string* error);
  ~Stack() override;

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  urm::service::QueryService* ForSchema(
      urm::datagen::TargetSchemaId schema) override;
  void VisitServices(
      const std::function<void(urm::datagen::TargetSchemaId,
                               urm::service::QueryService*)>& fn) override;
  urm::live::IngestController* IngestFor(
      urm::datagen::TargetSchemaId schema) override;

  urm::core::Engine* engine(urm::datagen::TargetSchemaId schema) {
    return engines_[Slot(schema)].get();
  }
  uint16_t port() const { return server_->port(); }

 private:
  Stack() = default;
  static size_t Slot(urm::datagen::TargetSchemaId schema) {
    return static_cast<size_t>(schema);
  }

  /// Declared first so it outlives every service and the server that
  /// report into it.
  urm::obs::Registry registry_;
  std::array<std::unique_ptr<urm::core::Engine>, kSchemas> engines_;
  std::array<std::unique_ptr<urm::service::QueryService>, kSchemas> services_;
  std::array<std::unique_ptr<urm::live::IngestController>, kSchemas> ingest_;
  /// Last, so it drains and stops before the services it calls into.
  std::unique_ptr<urm::net::HttpServer> server_;
};

/// An ingest batch resolved against the catalog: the delta, its JSON
/// body, and the number of rows it must update.
struct ResolvedBatch {
  urm::datagen::TargetSchemaId schema = urm::datagen::TargetSchemaId::kExcel;
  urm::relational::DeltaBatch batch;
  std::string body;
  size_t expected_updated = 0;
};

/// Resolves `spec` against the stack's current catalogs: picks the
/// row `row_pick` (modulo cardinality, skipping rows whose JSON form
/// does not round-trip), and renames its first string cell. A revert
/// spec swaps row and new row of the same pick. Returns false with
/// `error` set when no row qualifies.
bool ResolveBatch(Stack* stack, const IngestSpec& spec, ResolvedBatch* out,
                  std::string* error);

}  // namespace perfbench
