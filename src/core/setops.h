#pragma once

#include <string_view>
#include <vector>

#include "baselines/method_result.h"
#include "common/status.h"
#include "mapping/mapping.h"
#include "reformulation/reformulator.h"
#include "relational/catalog.h"

/// \file setops.h
/// Probabilistic set operations over uncertain matching — the paper's
/// §IX future work ("the use of o-sharing to support other complex
/// queries (e.g., set operators)"). Given two target queries q₁, q₂
/// with identical output arity, the answer of q₁ OP q₂ is defined
/// possible-world style: under mapping m the answer is
/// rows(q₁,m) OP rows(q₂,m) (set semantics), and
/// Pr(t) = Σ_m Pr(m)·[t ∈ answer under m].
///
/// Evaluation shares work the q-sharing way: mappings are partitioned
/// by their *combined* signature over both queries, and each partition
/// evaluates the two reformulated queries once.

namespace urm {
namespace core {

enum class SetOpKind {
  kUnion,
  kIntersect,
  kExcept,  ///< q1 minus q2
};

const char* SetOpName(SetOpKind kind);

/// Parses a set-op name ("union", "INTERSECT", "Except": the SetOpName
/// spelling in any case). False on unknown names.
bool ParseSetOp(std::string_view name, SetOpKind* out);

/// Evaluates `left OP right` over the mapping set. Fails when the two
/// queries' output arities differ. A mapping that cannot answer a side
/// treats that side as empty (∅ ∪ B = B, ∅ ∩ B = ∅, ∅ − B = ∅).
/// Thread-safe for concurrent calls (reads `mappings`/`catalog` only);
/// the sharded evaluation path runs it once per mapping shard.
Result<baselines::MethodResult> EvaluateSetOp(
    const reformulation::TargetQueryInfo& left,
    const reformulation::TargetQueryInfo& right, SetOpKind kind,
    const std::vector<mapping::Mapping>& mappings,
    const relational::Catalog& catalog,
    const reformulation::Reformulator& reformulator);

}  // namespace core
}  // namespace urm
