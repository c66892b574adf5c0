/// \file custom_matching.cpp
/// Using the library on *your own* schemas and data, without the
/// built-in TPC-H generator: this reconstructs the paper's running
/// example (Figures 1-3) from scratch —
///   * a Customer/C_Order/Nation source instance,
///   * a Person/Order target schema,
///   * a matcher run + k-best mapping enumeration,
///   * the probabilistic query q0 = π_addr σ_phone='123' Person.
///
/// Build & run:  ./build/examples/custom_matching

#include <cstdio>

#include "core/engine.h"
#include "mapping/generator.h"
#include "matching/matcher.h"
#include "relational/relation.h"

int main() {
  using namespace urm;
  using relational::ColumnDef;
  using relational::Relation;
  using relational::RelationSchema;
  using relational::ValueType;

  // --- Source instance (paper Figure 2) -----------------------------
  relational::Catalog catalog;
  RelationSchema customer_schema;
  for (const char* attr : {"cid", "cname", "ophone", "hphone", "mobile",
                           "oaddr", "haddr", "nid"}) {
    if (!customer_schema
             .AddColumn(ColumnDef{std::string("customer.") + attr,
                                  ValueType::kString})
             .ok()) {
      return 1;
    }
  }
  Relation customer(customer_schema);
  (void)customer.AddRow({"t1", "Alice", "123", "789", "555", "aaa", "hk",
                         "n1"});
  (void)customer.AddRow({"t2", "Bob", "456", "123", "556", "bbb", "hk",
                         "n1"});
  (void)customer.AddRow({"t3", "Cindy", "456", "789", "557", "aaa", "aaa",
                         "n2"});
  catalog.Put("customer",
              std::make_shared<const Relation>(std::move(customer)));

  // --- Schemas (paper Figure 1) --------------------------------------
  matching::SchemaDef source(
      "CRM", {{"customer",
               {"cid", "cname", "ophone", "hphone", "mobile", "oaddr",
                "haddr", "nid"}}});
  matching::SchemaDef target(
      "Partner", {{"Person", {"pname", "phone", "addr", "nation"}}});

  // --- Matching + possible mappings ----------------------------------
  matching::MatcherOptions matcher_options;
  matcher_options.threshold = 0.45;  // small schemas: looser threshold
  matching::NameMatcher matcher(matching::SynonymDictionary::Default(),
                                matcher_options);
  auto correspondences = matcher.Match(source, target);
  std::printf("matcher found %zu correspondences:\n",
              correspondences.size());
  for (const auto& c : correspondences) {
    std::printf("  %s\n", c.ToString().c_str());
  }

  mapping::MappingGenOptions gen;
  gen.h = 5;  // the paper's example uses five possible mappings
  auto mappings = mapping::GenerateMappings(correspondences, gen);
  if (!mappings.ok()) {
    std::fprintf(stderr, "%s\n", mappings.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%zu possible mappings:\n",
              mappings.ValueOrDie().size());
  for (const auto& m : mappings.ValueOrDie()) {
    std::printf("  %s\n", m.ToString().c_str());
  }

  // --- Probabilistic query (paper §I) --------------------------------
  core::Engine::Options options;
  auto engine = core::Engine::FromParts(std::move(catalog), source,
                                        target,
                                        std::move(mappings).ValueOrDie(),
                                        options);

  auto q = algebra::MakeProject(
      algebra::MakeSelect(
          algebra::MakeScan("Person", "person"),
          algebra::Predicate::AttrCmpValue("person.phone",
                                           algebra::CmpOp::kEq, "123")),
      {"person.addr"});
  std::printf("\nq0 = π_addr σ_phone='123' Person\n");
  auto response =
      engine->Run(core::Request::MethodEval(q, core::Method::kOSharing));
  if (!response.ok()) {
    std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
    return 1;
  }
  std::printf("%s",
              response.ValueOrDie().evaluate.answers.ToString().c_str());
  return 0;
}
