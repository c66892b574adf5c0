#include "trace.h"

#include <cstdio>

#include "util.h"

namespace perfbench {

const char* SpanNameString(SpanName name) {
  static const char* const kNames[kNumSpanNames] = {
      "op",        "net.parse",      "service.fingerprint",
      "reformulation.analyze", "service.submit", "net.serialize",
      "live.apply"};
  return name < kNumSpanNames ? kNames[name] : "unknown";
}

const char* AttrString(Attr attr) {
  static const char* const kNames[kNumAttrs] = {
      "cache_hit",        "shared",          "kind",
      "rewrite_s",        "plan_s",          "eval_s",
      "aggregate_s",      "reported_s",      "source_queries",
      "partitions",       "tuples_produced", "operators_executed",
      "bytes_scanned",    "logical_bytes_scanned", "columnar_scans",
      "row_scans",        "leaves_visited",  "early_terminated",
      "response_bytes",   "encode_s",        "fenced_answers",
      "fenced_operators", "rows_updated"};
  return attr < kNumAttrs ? kNames[attr] : "unknown";
}

ThreadTrace* Tracer::NewThread() {
  threads_.push_back(std::make_unique<ThreadTrace>());
  return threads_.back().get();
}

bool Tracer::WriteJsonl(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t t = 0; t < threads_.size(); ++t) {
    const ThreadTrace& trace = *threads_[t];
    for (size_t i = 0; i < trace.spans.size(); ++i) {
      const Span& span = trace.spans[i];
      std::fprintf(out,
                   "{\"thread\":%zu,\"id\":%zu,\"parent\":%d,\"op\":%u,"
                   "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld",
                   t, i, span.parent, span.op, SpanNameString(span.name),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
      if (span.attrs >= 0) {
        const AttrValues& values = trace.attrs[span.attrs];
        // Zero attributes are left out to keep the file small.
        bool any = false;
        for (int a = 0; a < kNumAttrs; ++a) {
          if (values[a] == 0.0) continue;
          std::fputs(any ? "," : ",\"attrs\":{", out);
          std::fprintf(out, "\"%s\":%.17g", AttrString(static_cast<Attr>(a)),
                       values[a]);
          any = true;
        }
        if (any) std::fputc('}', out);
      }
      std::fputs("}\n", out);
    }
  }
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(ThreadTrace* trace, SpanName name, uint32_t op)
    : trace_(trace) {
  if (trace_ == nullptr) return;
  Span span;
  span.name = name;
  span.parent = trace_->open;
  span.op = op;
  index_ = static_cast<int32_t>(trace_->spans.size());
  saved_open_ = trace_->open;
  trace_->open = index_;
  span.start_ns = NowNs();
  trace_->spans.push_back(span);
}

ScopedSpan::~ScopedSpan() { End(); }

void ScopedSpan::End() {
  if (trace_ == nullptr || ended_) return;
  trace_->spans[index_].end_ns = NowNs();
  trace_->open = saved_open_;
  ended_ = true;
}

void ScopedSpan::Set(Attr attr, double value) {
  if (trace_ == nullptr) return;
  Span& span = trace_->spans[index_];
  if (span.attrs < 0) {
    span.attrs = static_cast<int32_t>(trace_->attrs.size());
    trace_->attrs.emplace_back();
    trace_->attrs.back().fill(0.0);
  }
  trace_->attrs[span.attrs][attr] = value;
}

}  // namespace perfbench
