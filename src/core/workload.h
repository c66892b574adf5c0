#pragma once

#include <string>
#include <vector>

#include "algebra/plan.h"
#include "datagen/target_schemas.h"

/// \file workload.h
/// The paper's evaluation workload (Table III): ten target queries over
/// the Excel / Noris / Paragon purchase-order schemas, plus the
/// parametric query families used in Figures 11(d) and 11(e).
///
/// Attribute references are alias-qualified ("po.telephone"); constants
/// match values planted by the TPC-H-style generator so that every
/// query selects a non-trivial answer set.

namespace urm {
namespace core {

/// One Table III query.
struct WorkloadQuery {
  std::string id;  ///< "Q1".."Q10"
  datagen::TargetSchemaId schema;
  algebra::PlanPtr query;
};

/// Q1-Q5 (Excel), Q6-Q7 (Noris), Q8-Q10 (Paragon).
std::vector<WorkloadQuery> PaperWorkload();

/// The paper's default query (Q4, Excel).
WorkloadQuery DefaultQuery();

/// Query by id ("Q1".."Q10"), or nullptr for an unknown id. The
/// workload is built once; the pointer stays valid for the process
/// lifetime and its plans are immutable, safe to share across threads.
const WorkloadQuery* FindQuery(const std::string& id);

/// FindQuery that check-fails on unknown ids.
WorkloadQuery QueryById(const std::string& id);

/// Figure 11(d): a chain of `num_selections` (1..5) selections over
/// Excel PO, each on a different attribute.
algebra::PlanPtr SelectionChainQuery(int num_selections);

/// Figure 11(e): `num_products` (1..3) self-join Cartesian products of
/// Excel PO instances, chained by orderNum equality, with one constant
/// selection bounding the result.
algebra::PlanPtr SelfJoinQuery(int num_products);

}  // namespace core
}  // namespace urm
