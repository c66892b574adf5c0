#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "algebra/fingerprint.h"
#include "algebra/plan.h"
#include "baselines/method_result.h"
#include "common/status.h"
#include "core/setops.h"
#include "topk/threshold.h"
#include "topk/topk.h"

/// \file request.h
/// The unified request/response envelope of the serving API. The engine
/// answers four kinds of probabilistic queries — evaluate-with-method
/// (the paper's five methods of §VIII), top-k (§VII), set operations
/// and probability thresholds (the §IX extensions) — and every kind
/// flows through one tagged `Request` dispatched by
/// `Engine::Run(const Request&, const EvalOptions&)`. The service tier
/// (QueryService) fingerprints, deduplicates, caches and schedules
/// Requests uniformly; callers receive a `Response` whose active member
/// is selected by `kind`.
///
/// Build requests with the factories:
/// \code
///   auto r1 = core::Request::MethodEval(q, core::Method::kOSharing);
///   auto r2 = core::Request::TopK(q, 5);
///   auto r3 = core::Request::SetOp(qa, qb, core::SetOpKind::kUnion);
///   auto r4 = core::Request::Threshold(q, 0.25);
/// \endcode

namespace urm {
namespace core {

/// Evaluation methods compared in the paper.
enum class Method {
  kBasic,
  kEBasic,
  kEMqo,
  kQSharing,
  kOSharing,
};

const char* MethodName(Method method);

/// Parses a method name: its MethodName spelling in any case, or the
/// same without dashes ("osharing", "emqo"). False on unknown names.
bool ParseMethod(std::string_view name, Method* out);

/// Discriminates the four query kinds of the unified API.
enum class RequestKind {
  kEvaluate,   ///< full probabilistic answers with a chosen Method
  kTopK,       ///< k highest-probability tuples with bounds (§VII)
  kSetOp,      ///< query OP right under possible-world semantics
  kThreshold,  ///< all tuples with Pr >= threshold
};

const char* RequestKindName(RequestKind kind);

/// \brief One query request of any kind — the single envelope accepted
/// by Engine::Run and QueryService.
///
/// `kind` selects which of the kind-specific fields are meaningful;
/// the factories below set exactly the relevant ones. A Request is
/// cheap to copy (plans are shared_ptr).
struct Request {
  RequestKind kind = RequestKind::kEvaluate;
  /// The target query plan (the left operand for kSetOp).
  algebra::PlanPtr query;

  /// kEvaluate: the evaluation method.
  Method method = Method::kOSharing;
  /// kEvaluate (o-sharing) / kTopK / kThreshold: operator-selection
  /// strategy override; the engine default applies when unset.
  std::optional<osharing::StrategyKind> strategy;
  /// kTopK: number of tuples to return (must be > 0).
  size_t k = 0;
  /// kSetOp: the right operand.
  algebra::PlanPtr right;
  /// kSetOp: which set operation.
  SetOpKind set_op = SetOpKind::kUnion;
  /// kThreshold: minimum probability, in (0, 1].
  double threshold = 0.0;

  static Request MethodEval(algebra::PlanPtr query, Method method);
  static Request TopK(algebra::PlanPtr query, size_t k);
  static Request SetOp(algebra::PlanPtr left, algebra::PlanPtr right,
                       SetOpKind op);
  static Request Threshold(algebra::PlanPtr query, double threshold);

  /// Sets the o-sharing strategy override (kEvaluate with kOSharing,
  /// kTopK, kThreshold); returns *this for chaining.
  Request& WithStrategy(osharing::StrategyKind s) {
    strategy = s;
    return *this;
  }
};

/// Shape errors caught before dispatch: null plans, k == 0, a
/// threshold outside (0, 1].
Status ValidateRequest(const Request& request);

/// One recorded u-trace leaf: the distinct answer rows and the mapping
/// partition's probability mass, in emission order. A streaming
/// evaluation records its leaf sequence so a later sink-bearing cache
/// hit can replay the stream without re-evaluating.
struct RecordedLeaf {
  std::vector<relational::Row> rows;
  double probability = 0.0;
};

/// \brief The result of one Request; the member matching `kind` is
/// populated (kEvaluate and kSetOp both produce a MethodResult).
///
/// Plain movable value type so the engine can hand it out without
/// copies and the service can share one immutable instance (via
/// shared_ptr) between the cache and any number of waiters.
struct Response {
  RequestKind kind = RequestKind::kEvaluate;
  baselines::MethodResult evaluate;  ///< kEvaluate / kSetOp
  topk::TopKResult top_k;            ///< kTopK
  topk::ThresholdResult threshold;   ///< kThreshold
  /// The complete leaf sequence of the streaming evaluation that
  /// produced this response (null when it was evaluated without a sink
  /// or the trace was cut short) — the service replays it on
  /// sink-bearing cache hits.
  std::shared_ptr<const std::vector<RecordedLeaf>> leaves;
};

/// \brief Streaming consumer of answers as the evaluation produces
/// them, ahead of the final aggregated Response.
///
/// The o-sharing u-trace emits one leaf at a time (a set of answer
/// rows and the probability mass of the mapping partition that
/// produced them) and the top-k / threshold scans consume those leaves
/// incrementally; an AnswerSink taps that flow. Wire one through
/// Engine::EvalOptions::sink or QueryService::SubmitAsync.
///
/// Streaming applies to the u-trace kinds — kEvaluate with kOSharing,
/// kTopK, kThreshold; for the other kinds only OnComplete fires.
/// Callbacks run on the evaluating thread, strictly before the
/// Response is returned (or the future becomes ready).
class AnswerSink {
 public:
  virtual ~AnswerSink() = default;

  /// One u-trace leaf: `rows` are the distinct answer rows (layout =
  /// the query's output refs; empty = the θ "no answer" outcome) and
  /// `probability` the leaf's mapping-partition mass. Return false to
  /// unsubscribe — evaluation continues to the full Response, but this
  /// sink sees no further leaves.
  virtual bool OnAnswer(const std::vector<relational::Row>& rows,
                        double probability) = 0;

  /// Fires exactly once when the evaluation finishes, after the last
  /// OnAnswer, with the evaluation's final status.
  virtual void OnComplete(const Status& status) { (void)status; }
};

/// Fingerprints the full request — the structural plan hash (both
/// plans for kSetOp) plus every kind-specific parameter — with the
/// caller's evaluation-context hash (the service folds in the active
/// mapping-set hash). Two Requests fingerprint equal iff they are the
/// same query of the same kind with the same parameters, which is what
/// makes top-k / set-op / threshold results cacheable and
/// batch-dedupable alongside method evaluations.
algebra::PlanFingerprint FingerprintRequest(const Request& request,
                                            uint64_t context_hash = 0);

}  // namespace core
}  // namespace urm
