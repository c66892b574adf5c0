#include "check.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>

#include "common/json.h"
#include "core/request.h"

namespace perfbench {

namespace {

constexpr double kEpsilon = 1e-9;

std::string Num(double value) { return std::to_string(value); }

const char* WireKind(OpKind kind) {
  switch (kind) {
    case OpKind::kEvaluate:
      return "evaluate";
    case OpKind::kTopK:
      return "top-k";
    case OpKind::kThreshold:
      return "threshold";
    case OpKind::kSetOp:
      return "set-op";
    case OpKind::kIngest:
      break;
  }
  return "";
}

/// Parses a response and returns its "result" object, or null with
/// `error` set.
const urm::json::Value* ResultOf(const QuerySpec& spec,
                                 const std::string& body,
                                 urm::json::Value* root, std::string* error) {
  auto parsed = urm::json::Parse(body);
  if (!parsed.ok()) {
    *error = "unparseable response: " + parsed.status().ToString();
    return nullptr;
  }
  *root = std::move(parsed).ValueOrDie();
  const urm::json::Value* kind = root->Find("kind");
  const urm::json::Value* result = root->Find("result");
  if (kind == nullptr || !kind->is_string() ||
      kind->AsString() != WireKind(spec.kind) || result == nullptr ||
      !result->is_object()) {
    *error = "response is not a " + std::string(WireKind(spec.kind)) +
             " result";
    return nullptr;
  }
  const urm::json::Value* tuples = result->Find("tuples");
  const urm::json::Value* rows = result->Find("row_count");
  if (tuples == nullptr || !tuples->is_array() || rows == nullptr ||
      !rows->is_number()) {
    *error = "result lacks tuples / row_count";
    return nullptr;
  }
  // The server emits min(row_count, max_rows) tuples and flags the
  // rest as truncated; a short or overlong list is a failure.
  const size_t max_rows = urm::net::api::ApiOptions().max_rows;
  const size_t row_count = static_cast<size_t>(rows->AsInt64());
  const urm::json::Value* truncated = result->Find("truncated");
  const bool flagged =
      truncated != nullptr && truncated->is_bool() && truncated->AsBool();
  if (tuples->AsArray().size() != std::min(row_count, max_rows)) {
    *error = "result emits " + std::to_string(tuples->AsArray().size()) +
             " tuples for row_count " + std::to_string(row_count);
    return nullptr;
  }
  if (flagged != (row_count > max_rows)) {
    *error = "truncated flag disagrees with row_count " +
             std::to_string(row_count);
    return nullptr;
  }
  return result;
}

double NumberField(const urm::json::Value& object, const char* key) {
  const urm::json::Value* v = object.Find(key);
  return v != nullptr && v->is_number() ? v->AsDouble() : std::nan("");
}

/// The exact probability of the tuple `entry` in the reference, or -1
/// when it is not an answer (or repeats an earlier one).
double Lookup(const urm::json::Value& entry, const Reference& reference,
              std::set<std::string>* seen) {
  const urm::json::Value* values = entry.Find("values");
  if (values == nullptr || !values->is_array()) return -1.0;
  std::string key = values->Serialize();
  auto it = reference.probability.find(key);
  if (it == reference.probability.end()) return -1.0;
  if (!seen->insert(std::move(key)).second) return -1.0;
  return it->second;
}

std::string CheckExact(const urm::json::Value& result,
                       const Reference& reference) {
  const auto& tuples = result.Find("tuples")->AsArray();
  if (static_cast<size_t>(result.Find("row_count")->AsInt64()) !=
      reference.probability.size()) {
    return "row_count " + Num(result.Find("row_count")->AsDouble()) +
           " != reference " + std::to_string(reference.probability.size());
  }
  if (std::fabs(NumberField(result, "null_probability") -
                reference.null_probability) > kEpsilon) {
    return "null_probability differs from the reference";
  }
  std::set<std::string> seen;
  for (const urm::json::Value& entry : tuples) {
    double exact = Lookup(entry, reference, &seen);
    if (exact < 0.0) return "tuple absent from the reference or repeated";
    if (std::fabs(NumberField(entry, "probability") - exact) > kEpsilon) {
      return "probability differs from the reference";
    }
  }
  return "";
}

/// Bounds of every emitted tuple must bracket its exact probability and
/// satisfy `admit(exact)`.
std::string CheckBounded(const urm::json::Value& result,
                         const Reference& reference,
                         const std::function<bool(double)>& admit) {
  std::set<std::string> seen;
  for (const urm::json::Value& entry : result.Find("tuples")->AsArray()) {
    double exact = Lookup(entry, reference, &seen);
    if (exact < 0.0) return "tuple absent from the reference or repeated";
    if (!(NumberField(entry, "lower_bound") <= exact + kEpsilon &&
          exact <= NumberField(entry, "upper_bound") + kEpsilon)) {
      return "bounds do not bracket the exact probability";
    }
    if (!admit(exact)) return "tuple should not be in the answer";
  }
  return "";
}

}  // namespace

const Reference* References::For(const QuerySpec& spec, std::string* error) {
  // Evaluate, top-k and threshold all check against the query's
  // o-sharing answers; a set-op against itself.
  const std::string key =
      spec.kind == OpKind::kSetOp ? spec.body : "o-sharing " + spec.query;
  auto it = memo_.find(key);
  if (it != memo_.end()) return it->second.get();

  urm::net::api::ParsedQuery parsed;
  urm::net::api::ApiError api_error;
  if (!urm::net::api::ParseQueryBody(spec.body, &parsed, &api_error)) {
    *error = "bad request body: " + api_error.message;
    return nullptr;
  }
  urm::core::Request request =
      spec.kind == OpKind::kSetOp
          ? parsed.request
          : urm::core::Request::MethodEval(parsed.request.query,
                                           urm::core::Method::kOSharing);
  auto response = stack_->engine(parsed.schema)->Run(request);
  if (!response.ok()) {
    *error = "reference evaluation failed: " + response.status().ToString();
    return nullptr;
  }
  const auto& answers = response.ValueOrDie().evaluate.answers;
  auto reference = std::make_unique<Reference>();
  for (const auto& tuple : answers.tuples()) {
    reference->probability[urm::net::api::RowToJson(tuple.values)
                               .Serialize()] += tuple.probability;
  }
  for (const auto& entry : reference->probability) {
    reference->descending.push_back(entry.second);
  }
  std::sort(reference->descending.begin(), reference->descending.end(),
            std::greater<double>());
  reference->null_probability = answers.null_probability();
  const Reference* out = reference.get();
  memo_.emplace(key, std::move(reference));
  return out;
}

std::string CheckQueryResponse(const QuerySpec& spec, const std::string& body,
                               const Reference& reference) {
  urm::json::Value root;
  std::string error;
  const urm::json::Value* result = ResultOf(spec, body, &root, &error);
  if (result == nullptr) return error;
  const size_t rows = static_cast<size_t>(result->Find("row_count")->AsInt64());
  const auto& ref = reference.descending;
  switch (spec.kind) {
    case OpKind::kEvaluate:
    case OpKind::kSetOp:
      return CheckExact(*result, reference);
    case OpKind::kTopK: {
      if (rows != std::min(spec.k, ref.size())) {
        return "top-k returned " + std::to_string(rows) + " tuples, expected " +
               std::to_string(std::min(spec.k, ref.size()));
      }
      const double kth = rows == 0 ? 0.0 : ref[rows - 1];
      return CheckBounded(*result, reference, [kth](double exact) {
        return exact >= kth - kEpsilon;
      });
    }
    case OpKind::kThreshold: {
      const double tau = spec.threshold;
      size_t surely = 0, maybe = 0;
      for (double p : ref) {
        surely += p >= tau + kEpsilon;
        maybe += p >= tau - kEpsilon;
      }
      if (rows < surely || rows > maybe) {
        return "threshold returned " + std::to_string(rows) +
               " tuples, expected " + std::to_string(surely) + ".." +
               std::to_string(maybe);
      }
      return CheckBounded(*result, reference, [tau](double exact) {
        return exact >= tau - kEpsilon;
      });
    }
    case OpKind::kIngest:
      break;
  }
  return "not a query";
}

std::string CheckQueryShape(const QuerySpec& spec, const std::string& body) {
  urm::json::Value root;
  std::string error;
  return ResultOf(spec, body, &root, &error) == nullptr ? error : "";
}

long long ReceiptUpdatedRows(const std::string& body) {
  auto parsed = urm::json::Parse(body);
  if (!parsed.ok()) return -1;
  const urm::json::Value* rows = parsed.ValueOrDie().Find("rows");
  const urm::json::Value* updated =
      rows != nullptr ? rows->Find("updated") : nullptr;
  return updated != nullptr && updated->is_number() ? updated->AsInt64() : -1;
}

}  // namespace perfbench
