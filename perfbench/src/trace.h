#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

/// \file trace.h
/// In-memory spans for the traced replay. Each client thread records
/// into its own ThreadTrace (no locking on the hot path); spans carry
/// a name, start, end, parent span and operation id, and the program's
/// own counters and phase seconds as attributes on the span of the
/// call that returned them. Spans are written out when the run ends.

namespace perfbench {

enum SpanName : uint8_t {
  kSpanOp,           ///< one replayed operation (root)
  kSpanParse,        ///< http::RequestParser::Feed + api::Parse*Body
  kSpanFingerprint,  ///< core::FingerprintRequest
  kSpanAnalyze,      ///< core::Engine::Analyze
  kSpanSubmit,       ///< service::QueryService::Submit
  kSpanSerialize,    ///< api::AppendResponseJson + Serialize + framing
  kSpanApply,        ///< live::IngestController::Apply
  kNumSpanNames,
};

const char* SpanNameString(SpanName name);

enum Attr : uint8_t {
  kAttrCacheHit,
  kAttrShared,
  kAttrKind,  ///< OpKind of the operation
  kAttrRewriteS,
  kAttrPlanS,
  kAttrEvalS,
  kAttrAggregateS,
  kAttrReportedS,  ///< the response's own evaluation time
  kAttrSourceQueries,
  kAttrPartitions,
  kAttrTuplesProduced,
  kAttrOperatorsExecuted,
  kAttrBytesScanned,
  kAttrLogicalBytesScanned,
  kAttrColumnarScans,
  kAttrRowScans,
  kAttrLeavesVisited,
  kAttrEarlyTerminated,
  kAttrResponseBytes,
  kAttrEncodeS,
  kAttrFencedAnswers,
  kAttrFencedOperators,
  kAttrRowsUpdated,
  kNumAttrs,
};

const char* AttrString(Attr attr);

using AttrValues = std::array<double, kNumAttrs>;

struct Span {
  SpanName name = kSpanOp;
  int32_t parent = -1;  ///< index in the same ThreadTrace, -1 for roots
  uint32_t op = 0;      ///< position of the operation in its sequence
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t attrs = -1;   ///< index into ThreadTrace::attrs, -1 for none
};

/// One thread's spans. Not thread-safe; one per client thread.
struct ThreadTrace {
  std::vector<Span> spans;
  std::vector<AttrValues> attrs;
  int32_t open = -1;  ///< innermost open span
};

/// Owns every thread's trace for one replay.
class Tracer {
 public:
  /// A trace for one more recording thread; call before the recording
  /// threads start.
  ThreadTrace* NewThread();
  /// All threads' traces (call after the recording threads joined).
  const std::vector<std::unique_ptr<ThreadTrace>>& threads() const {
    return threads_;
  }
  /// Writes every span as one JSON line; returns false on I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

/// RAII span; a no-op when `trace` is null (spans off).
class ScopedSpan {
 public:
  ScopedSpan(ThreadTrace* trace, SpanName name, uint32_t op);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span now (the destructor then does nothing more);
  /// attributes may still be set afterwards.
  void End();
  void Set(Attr attr, double value);

 private:
  ThreadTrace* trace_;
  int32_t index_ = -1;
  int32_t saved_open_ = -1;
  bool ended_ = false;
};

}  // namespace perfbench
