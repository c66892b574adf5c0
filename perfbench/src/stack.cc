#include "stack.h"

#include <utility>

#include "common/json.h"
#include "relational/relation.h"

namespace perfbench {

using urm::datagen::TargetSchemaId;

std::unique_ptr<Stack> Stack::Build(const StackOptions& options,
                                    std::string* error) {
  std::unique_ptr<Stack> stack(new Stack());
  for (TargetSchemaId schema : urm::datagen::AllTargetSchemas()) {
    urm::core::Engine::Options engine_options;
    engine_options.target_mb = kDataMb;
    engine_options.num_mappings = kMappings;
    engine_options.target_schema = schema;
    auto engine = urm::core::Engine::Create(engine_options);
    if (!engine.ok()) {
      *error = engine.status().ToString();
      return nullptr;
    }
    const size_t slot = Slot(schema);
    stack->engines_[slot] = std::move(engine).ValueOrDie();

    urm::service::ServiceOptions service_options;
    service_options.num_threads = 1;
    service_options.cache_capacity = options.cache_capacity;
    service_options.metrics_registry = &stack->registry_;
    service_options.metric_labels = {
        {"schema", urm::datagen::TargetSchemaName(schema)}};
    stack->services_[slot] = std::make_unique<urm::service::QueryService>(
        stack->engines_[slot].get(), service_options);

    urm::live::IngestOptions ingest_options;
    ingest_options.metrics_registry = &stack->registry_;
    ingest_options.metric_labels = service_options.metric_labels;
    stack->ingest_[slot] = std::make_unique<urm::live::IngestController>(
        stack->engines_[slot].get(), stack->services_[slot].get(),
        ingest_options);
  }

  // DosGuard keeps its default connection and in-flight caps; only the
  // per-client token bucket is off, since every request comes from one
  // loopback address.
  urm::net::ServerOptions server_options;
  server_options.dosguard.requests_per_second = 0.0;
  server_options.metrics_registry = &stack->registry_;
  stack->server_ = std::make_unique<urm::net::HttpServer>(server_options);
  urm::net::api::ApiOptions api_options;
  api_options.metrics_registry = &stack->registry_;
  urm::net::api::RegisterRoutes(stack->server_.get(), stack.get(),
                                api_options);
  urm::Status status = stack->server_->Start();
  if (!status.ok()) {
    *error = status.ToString();
    return nullptr;
  }
  return stack;
}

Stack::~Stack() {
  if (server_ != nullptr) server_->Shutdown();
}

urm::service::QueryService* Stack::ForSchema(TargetSchemaId schema) {
  return services_[Slot(schema)].get();
}

void Stack::VisitServices(
    const std::function<void(TargetSchemaId, urm::service::QueryService*)>&
        fn) {
  for (TargetSchemaId schema : urm::datagen::AllTargetSchemas()) {
    fn(schema, services_[Slot(schema)].get());
  }
}

urm::live::IngestController* Stack::IngestFor(TargetSchemaId schema) {
  return ingest_[Slot(schema)].get();
}

namespace {

bool SchemaByName(const std::string& name, TargetSchemaId* out) {
  for (TargetSchemaId schema : urm::datagen::AllTargetSchemas()) {
    if (name == urm::datagen::TargetSchemaName(schema)) {
      *out = schema;
      return true;
    }
  }
  return false;
}

std::string RowJson(const urm::relational::Row& row) {
  return urm::net::api::RowToJson(row).Serialize();
}

size_t CountEqual(const std::vector<urm::relational::Row>& rows,
                  const urm::relational::Row& row) {
  size_t count = 0;
  for (const auto& r : rows) count += urm::relational::RowsEqual(r, row);
  return count;
}

}  // namespace

bool ResolveBatch(Stack* stack, const IngestSpec& spec, ResolvedBatch* out,
                  std::string* error) {
  if (!SchemaByName(spec.schema, &out->schema)) {
    *error = "unknown schema " + spec.schema;
    return false;
  }
  auto relation = stack->engine(out->schema)->catalog().Get(spec.relation);
  if (!relation.ok()) {
    *error = relation.status().ToString();
    return false;
  }
  const std::vector<urm::relational::Row>& rows =
      relation.ValueOrDie()->rows();
  for (size_t step = 0; step < rows.size(); ++step) {
    const urm::relational::Row& row =
        rows[(spec.row_pick + step) % rows.size()];
    urm::relational::Row renamed = row;
    bool has_string = false;
    for (urm::relational::Value& cell : renamed) {
      if (cell.type() == urm::relational::ValueType::kString) {
        cell = urm::relational::Value(cell.AsString() + "~perfbench");
        has_string = true;
        break;
      }
    }
    if (!has_string || CountEqual(rows, renamed) != 0) continue;
    const urm::relational::Row& from = spec.revert ? renamed : row;
    const urm::relational::Row& to = spec.revert ? row : renamed;
    const std::string body =
        "{\"version\":1,\"schema\":\"" + spec.schema +
        "\",\"ops\":[{\"op\":\"update\",\"relation\":\"" + spec.relation +
        "\",\"row\":" + RowJson(from) + ",\"new_row\":" + RowJson(to) +
        "}]}";
    urm::net::api::ParsedIngest parsed;
    urm::net::api::ApiError api_error;
    if (!urm::net::api::ParseIngestBody(body, 0, &parsed, &api_error)) {
      *error = api_error.message;
      return false;
    }
    // Cells that do not survive the JSON round trip (an integral double
    // turns into an int64) would match no row; take the next row.
    const urm::relational::DeltaOp& op = parsed.batch.ops.front();
    if (!urm::relational::RowsEqual(op.row, from) ||
        !urm::relational::RowsEqual(op.new_row, to)) {
      continue;
    }
    out->batch = std::move(parsed.batch);
    out->body = body;
    out->expected_updated = CountEqual(rows, row);
    return true;
  }
  *error = "no updatable row in " + spec.schema + "." + spec.relation;
  return false;
}

}  // namespace perfbench
