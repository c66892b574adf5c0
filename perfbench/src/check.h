#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "stack.h"
#include "workload.h"

/// \file check.h
/// Answer checks. Every query response is compared with a reference
/// computed in-process through core::Engine::Run before timing starts:
///   * evaluate (any method): the o-sharing answers of the query —
///     same tuples, probabilities and null probability within 1e-9,
///     which makes all five methods agree with each other;
///   * top-k / threshold: the same o-sharing answers, checked
///     semantically (bounds bracket the exact probability; a top-k
///     tuple is at least as probable as the k-th answer; a threshold
///     answer set is exactly the tuples at or above tau);
///   * set-op: the set-op evaluated directly.
/// Responses carry at most 1000 tuples; the checks cover every emitted
/// tuple plus the reported row count.

namespace perfbench {

/// Exact answer distribution of one request, keyed by the tuple's
/// values in API JSON form.
struct Reference {
  std::unordered_map<std::string, double> probability;
  std::vector<double> descending;  ///< all probabilities, sorted
  double null_probability = 0.0;
};

class References {
 public:
  explicit References(Stack* stack) : stack_(stack) {}

  /// The reference for `spec`, computed on first use. Null with
  /// `error` set when the reference evaluation fails.
  const Reference* For(const QuerySpec& spec, std::string* error);

 private:
  Stack* stack_;
  std::map<std::string, std::unique_ptr<Reference>> memo_;
};

/// Checks one /v1/query response body against `reference`; returns an
/// empty string when it agrees, else what differs.
std::string CheckQueryResponse(const QuerySpec& spec, const std::string& body,
                               const Reference& reference);

/// Checks only that a /v1/query body is a well-formed response of the
/// requested kind (used while an ingest batch has changed the data).
std::string CheckQueryShape(const QuerySpec& spec, const std::string& body);

/// Reads rows.updated from a /v1/ingest receipt; -1 when malformed.
long long ReceiptUpdatedRows(const std::string& body);

}  // namespace perfbench
