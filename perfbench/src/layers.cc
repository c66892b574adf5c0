#include "layers.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

/// A running sum with its sample count.
struct Sum {
  double total = 0.0;
  double count = 0.0;
  void Add(double value) {
    total += value;
    count += 1.0;
  }
  double Mean() const { return count > 0.0 ? total / count : 0.0; }
};

/// Calls `fn(span, attrs_or_null, duration_ns, self_ns)` for every span.
template <typename Fn>
void ForEachSpan(const Tracer& tracer, Fn fn) {
  for (const auto& thread : tracer.threads()) {
    const std::vector<Span>& spans = thread->spans;
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[span.parent] += span.end_ns - span.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const AttrValues* attrs =
          span.attrs >= 0 ? &thread->attrs[span.attrs] : nullptr;
      const int64_t duration = span.end_ns - span.start_ns;
      fn(span, attrs, duration, duration - child_ns[i]);
    }
  }
}

/// Whether a Submit span ran an evaluation of its own (not a cache hit,
/// not a join onto an identical in-flight evaluation).
bool Evaluated(const AttrValues& a) {
  return a[kAttrCacheHit] == 0.0 && a[kAttrShared] == 0.0;
}

OpKind KindOf(const AttrValues& a) {
  return static_cast<OpKind>(static_cast<int>(a[kAttrKind]));
}

}  // namespace

LayerMetrics ComputeLayers(const Tracer& tracer, const Plan& plan,
                           const std::vector<Op>& ops,
                           const TierCounters& before,
                           const TierCounters& after) {
  Sum parse, serialize, response_bytes, fingerprint, analyze, hit, self;
  Sum rewrite, aggregate, eval, plan_s, source_queries, partitions;
  Sum basic_eval, basic_total, topk_s, leaves, early;
  Sum tuples, operators, bytes_scanned, logical_bytes, columnar, scans;
  Sum apply, encode, fenced_answers, fenced_operators;
  ForEachSpan(tracer, [&](const Span& span, const AttrValues* a,
                          int64_t duration_ns, int64_t self_ns) {
    const double us = self_ns * 1e-3;
    switch (span.name) {
      case kSpanParse:
        parse.Add(us);
        break;
      case kSpanSerialize:
        serialize.Add(us);
        if (a != nullptr) response_bytes.Add((*a)[kAttrResponseBytes]);
        break;
      case kSpanFingerprint:
        fingerprint.Add(us);
        break;
      case kSpanAnalyze:
        analyze.Add(us);
        break;
      case kSpanApply:
        apply.Add(duration_ns * 1e-6);
        if (a != nullptr) {
          encode.Add((*a)[kAttrEncodeS] * 1e3);
          fenced_answers.Add((*a)[kAttrFencedAnswers]);
          fenced_operators.Add((*a)[kAttrFencedOperators]);
        }
        break;
      case kSpanSubmit: {
        if (a == nullptr) break;
        if ((*a)[kAttrCacheHit] != 0.0) hit.Add(us);
        if (!Evaluated(*a)) break;
        self.Add((self_ns * 1e-9 - (*a)[kAttrReportedS]) * 1e3);
        const OpKind kind = KindOf(*a);
        if (kind == OpKind::kEvaluate || kind == OpKind::kSetOp) {
          rewrite.Add((*a)[kAttrRewriteS] * 1e3);
          aggregate.Add((*a)[kAttrAggregateS] * 1e3);
          eval.Add((*a)[kAttrEvalS] * 1e3);
          source_queries.Add((*a)[kAttrSourceQueries]);
          partitions.Add((*a)[kAttrPartitions]);
          const QuerySpec& spec = plan.queries[ops[span.op].index];
          if (spec.method == "basic") {
            basic_eval.Add((*a)[kAttrEvalS]);
            basic_total.Add((*a)[kAttrEvalS] + (*a)[kAttrAggregateS]);
          } else if (spec.method == "e-MQO") {
            plan_s.Add((*a)[kAttrPlanS] * 1e3);
          }
        } else {
          topk_s.Add((*a)[kAttrReportedS] * 1e3);
          leaves.Add((*a)[kAttrLeavesVisited]);
          early.Add((*a)[kAttrEarlyTerminated]);
        }
        tuples.Add((*a)[kAttrTuplesProduced]);
        operators.Add((*a)[kAttrOperatorsExecuted]);
        bytes_scanned.Add((*a)[kAttrBytesScanned]);
        logical_bytes.Add((*a)[kAttrLogicalBytesScanned]);
        columnar.Add((*a)[kAttrColumnarScans]);
        scans.Add((*a)[kAttrColumnarScans] + (*a)[kAttrRowScans]);
        break;
      }
      default:
        break;
    }
  });

  LayerMetrics out;
  auto put = [&out](const char* name, double value, const char* unit,
                    double samples) {
    if (samples > 0.0) out[name] = LayerValue{value, unit, samples};
  };
  put("net.parse_us", parse.Mean(), "us", parse.count);
  put("net.serialize_us", serialize.Mean(), "us", serialize.count);
  put("net.response_kb", response_bytes.Mean() / 1024.0, "KB",
      response_bytes.count);
  put("service.fingerprint_us", fingerprint.Mean(), "us", fingerprint.count);
  put("service.hit_us", hit.Mean(), "us", hit.count);
  put("service.self_ms", self.Mean(), "ms", self.count);
  const double hits = after.cache_hits - before.cache_hits;
  const double lookups = hits + after.cache_misses - before.cache_misses;
  put("service.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio",
      lookups);
  put("reformulation.analyze_us", analyze.Mean(), "us", analyze.count);
  put("reformulation.rewrite_ms", rewrite.Mean(), "ms", rewrite.count);
  put("reformulation.aggregate_ms", aggregate.Mean(), "ms", aggregate.count);
  put("reformulation.basic_eval_share",
      basic_total.total > 0 ? basic_eval.total / basic_total.total : 0.0,
      "ratio", basic_eval.count);
  put("baselines.plan_ms", plan_s.Mean(), "ms", plan_s.count);
  put("qsharing.source_queries", source_queries.total, "count",
      source_queries.count);
  put("qsharing.partitions", partitions.total, "count", partitions.count);
  put("algebra.eval_ms", eval.Mean(), "ms", eval.count);
  put("algebra.tuples_produced", tuples.total, "count", tuples.count);
  put("algebra.operators_executed", operators.total, "count",
      operators.count);
  put("columnar.bytes_scanned_mb", bytes_scanned.total / 1e6, "MB",
      bytes_scanned.count);
  put("columnar.scan_compression",
      logical_bytes.total > 0 ? bytes_scanned.total / logical_bytes.total
                              : 0.0,
      "ratio", logical_bytes.total > 0 ? logical_bytes.count : 0.0);
  put("columnar.columnar_scan_share",
      scans.total > 0 ? columnar.total / scans.total : 0.0, "ratio",
      scans.total);
  const double store_hits = after.store_hits - before.store_hits;
  const double store_lookups =
      store_hits + after.store_misses - before.store_misses;
  put("osharing.store_hit_ratio",
      store_lookups > 0 ? store_hits / store_lookups : 0.0, "ratio",
      store_lookups);
  put("osharing.bytes_reused_mb",
      (after.store_bytes_reused - before.store_bytes_reused) / 1e6, "MB",
      store_lookups);
  put("topk.ms", topk_s.Mean(), "ms", topk_s.count);
  put("topk.leaves_visited", leaves.total, "count", leaves.count);
  put("topk.early_terminated_share", early.Mean(), "ratio", early.count);
  put("live.apply_ms", apply.Mean(), "ms", apply.count);
  put("live.encode_ms", encode.Mean(), "ms", encode.count);
  put("live.fenced_answers_per_batch", fenced_answers.Mean(), "count",
      fenced_answers.count);
  put("live.fenced_operators_per_batch", fenced_operators.Mean(), "count",
      fenced_operators.count);
  return out;
}

std::map<std::string, long long> ExactCounters(const Tracer& tracer) {
  std::map<std::string, long long> out = {
      {"source_queries", 0},   {"partitions", 0},
      {"tuples_produced", 0},  {"operators_executed", 0},
      {"leaves_visited", 0},   {"fenced_answers", 0},
      {"fenced_operators", 0}};
  ForEachSpan(tracer, [&out](const Span& span, const AttrValues* a, int64_t,
                             int64_t) {
    if (a == nullptr) return;
    auto add = [&](const char* name, Attr attr) {
      out[name] += static_cast<long long>((*a)[attr]);
    };
    if (span.name == kSpanApply) {
      add("fenced_answers", kAttrFencedAnswers);
      add("fenced_operators", kAttrFencedOperators);
    } else if (span.name == kSpanSubmit && Evaluated(*a)) {
      add("source_queries", kAttrSourceQueries);
      add("partitions", kAttrPartitions);
      add("tuples_produced", kAttrTuplesProduced);
      add("operators_executed", kAttrOperatorsExecuted);
      add("leaves_visited", kAttrLeavesVisited);
    }
  });
  return out;
}

std::vector<std::string> PaperShapeReport(const Tracer& tracer,
                                          const Plan& plan,
                                          const std::vector<Op>& ops) {
  struct PerQuery {
    Sum basic_eval, basic_total;
    std::map<std::string, double> source_queries;  ///< by method
  };
  std::map<std::string, PerQuery> by_query;
  std::vector<std::string> order;
  ForEachSpan(tracer, [&](const Span& span, const AttrValues* a, int64_t,
                          int64_t) {
    if (span.name != kSpanSubmit || a == nullptr || !Evaluated(*a)) return;
    const QuerySpec& spec = plan.queries[ops[span.op].index];
    if (spec.kind != OpKind::kEvaluate) return;
    if (by_query.count(spec.query) == 0) order.push_back(spec.query);
    PerQuery& q = by_query[spec.query];
    if (spec.method == "basic") {
      q.basic_eval.Add((*a)[kAttrEvalS]);
      q.basic_total.Add((*a)[kAttrEvalS] + (*a)[kAttrAggregateS]);
    }
    q.source_queries[spec.method] = (*a)[kAttrSourceQueries];
  });
  std::sort(order.begin(), order.end(), [](const std::string& a,
                                           const std::string& b) {
    return std::stoi(a.substr(1)) < std::stoi(b.substr(1));
  });
  std::vector<std::string> lines;
  for (const std::string& query : order) {
    PerQuery& q = by_query[query];
    const double share = q.basic_total.total > 0
                             ? q.basic_eval.total / q.basic_total.total
                             : 0.0;
    const double o = q.source_queries["o-sharing"];
    const double qs = q.source_queries["q-sharing"];
    const double e = q.source_queries["e-basic"];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "paper_shape %-3s basic_eval_share=%.3f (Fig. 10(a) "
                  "claims > 0.80: %s)  source_queries o-sharing=%.0f "
                  "q-sharing=%.0f e-basic=%.0f (Fig. 11(a) claims o <= q "
                  "<= e: %s)",
                  query.c_str(), share, share > 0.8 ? "holds" : "FAILS", o,
                  qs, e, (o <= qs && qs <= e) ? "holds" : "FAILS");
    lines.push_back(line);
  }
  return lines;
}

}  // namespace perfbench
