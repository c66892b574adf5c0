#include "core/setops.h"

#include <map>
#include <unordered_set>

#include "algebra/evaluate.h"
#include "algebra/optimize.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace urm {
namespace core {

using reformulation::SourceQuery;
using reformulation::TargetQueryInfo;
using relational::HashRow;
using relational::Row;
using relational::RowsEqual;

const char* SetOpName(SetOpKind kind) {
  switch (kind) {
    case SetOpKind::kUnion:
      return "UNION";
    case SetOpKind::kIntersect:
      return "INTERSECT";
    case SetOpKind::kExcept:
      return "EXCEPT";
  }
  return "?";
}

bool ParseSetOp(std::string_view name, SetOpKind* out) {
  for (SetOpKind kind :
       {SetOpKind::kUnion, SetOpKind::kIntersect, SetOpKind::kExcept}) {
    if (MatchesName(name, SetOpName(kind))) {
      *out = kind;
      return true;
    }
  }
  return false;
}

namespace {

/// Rows of one side under one representative mapping (empty when the
/// mapping cannot answer the side).
Result<std::vector<Row>> SideRows(
    const TargetQueryInfo& info, const mapping::Mapping& rep,
    const relational::Catalog& catalog,
    const reformulation::Reformulator& reformulator,
    algebra::EvalStats* stats) {
  auto reformed = reformulator.Reformulate(info, rep);
  if (!reformed.ok()) return reformed.status();
  const SourceQuery& sq = reformed.ValueOrDie();
  if (!sq.answerable) return std::vector<Row>{};
  auto optimized = algebra::PushDownSelections(sq.plan, catalog);
  if (!optimized.ok()) return optimized.status();
  algebra::EvalContext ctx;
  ctx.catalog = &catalog;
  ctx.stats = stats;
  auto rel = algebra::Evaluate(optimized.ValueOrDie(), ctx);
  if (!rel.ok()) return rel.status();
  return reformulation::AssembleRows(*rel.ValueOrDie(), sq.layout);
}

/// Applies the set operation (both sides are already duplicate-free).
std::vector<Row> Apply(SetOpKind kind, const std::vector<Row>& a,
                       const std::vector<Row>& b) {
  auto contains = [](const std::vector<Row>& rows, const Row& r) {
    for (const auto& row : rows) {
      if (RowsEqual(row, r)) return true;
    }
    return false;
  };
  std::vector<Row> out;
  switch (kind) {
    case SetOpKind::kUnion:
      out = a;
      for (const auto& r : b) {
        if (!contains(a, r)) out.push_back(r);
      }
      return out;
    case SetOpKind::kIntersect:
      for (const auto& r : a) {
        if (contains(b, r)) out.push_back(r);
      }
      return out;
    case SetOpKind::kExcept:
      for (const auto& r : a) {
        if (!contains(b, r)) out.push_back(r);
      }
      return out;
  }
  return out;
}

}  // namespace

Result<baselines::MethodResult> EvaluateSetOp(
    const TargetQueryInfo& left, const TargetQueryInfo& right,
    SetOpKind kind, const std::vector<mapping::Mapping>& mappings,
    const relational::Catalog& catalog,
    const reformulation::Reformulator& reformulator) {
  if (left.output_refs.size() != right.output_refs.size()) {
    return Status::InvalidArgument(
        "set operation over queries with different output arity: " +
        std::to_string(left.output_refs.size()) + " vs " +
        std::to_string(right.output_refs.size()));
  }

  baselines::MethodResult result;
  result.answers = reformulation::AnswerSet(left.output_refs);
  Timer timer;

  // Partition by the combined signature: mappings agreeing on both
  // queries' slots produce identical answers for the set expression.
  struct Partition {
    const mapping::Mapping* representative = nullptr;
    double probability = 0.0;
  };
  std::map<std::string, Partition> partitions;
  for (const auto& m : mappings) {
    std::string sig = reformulation::MappingSignature(left, m) + "||" +
                      reformulation::MappingSignature(right, m);
    Partition& p = partitions[sig];
    if (p.representative == nullptr) p.representative = &m;
    p.probability += m.probability();
  }
  result.rewrite_seconds = timer.Lap();
  result.partitions = partitions.size();

  for (const auto& [sig, p] : partitions) {
    auto a = SideRows(left, *p.representative, catalog, reformulator,
                      &result.stats);
    if (!a.ok()) return a.status();
    auto b = SideRows(right, *p.representative, catalog, reformulator,
                      &result.stats);
    if (!b.ok()) return b.status();
    result.source_queries += 2;
    std::vector<Row> rows =
        Apply(kind, a.ValueOrDie(), b.ValueOrDie());
    if (rows.empty()) {
      result.answers.AddNull(p.probability);
    } else {
      for (const auto& r : rows) {
        result.answers.Add(r, p.probability);
      }
    }
  }
  result.eval_seconds = timer.Lap();
  return result;
}

}  // namespace core
}  // namespace urm
