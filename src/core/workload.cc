#include "core/workload.h"

#include "common/logging.h"

namespace urm {
namespace core {

using algebra::AggKind;
using algebra::CmpOp;
using algebra::MakeAggregate;
using algebra::MakeProduct;
using algebra::MakeProject;
using algebra::MakeScan;
using algebra::MakeSelect;
using algebra::PlanPtr;
using algebra::Predicate;
using datagen::TargetSchemaId;

namespace {

Predicate Eq(std::string attr, relational::Value value) {
  return Predicate::AttrCmpValue(std::move(attr), CmpOp::kEq,
                                 std::move(value));
}

Predicate Join(std::string lhs, std::string rhs) {
  return Predicate::AttrCmpAttr(std::move(lhs), CmpOp::kEq, std::move(rhs));
}

PlanPtr Q1() {
  // Excel: σ telephone σ priority σ invoiceTo (PO)
  PlanPtr p = MakeScan("PO", "po");
  p = MakeSelect(p, Eq("po.invoiceTo", "Mary"));
  p = MakeSelect(p, Eq("po.priority", 2));
  p = MakeSelect(p, Eq("po.telephone", "335-1736"));
  return p;
}

PlanPtr Q2() {
  // Excel: σ quantity σ itemNum (PO × Item); PO is bare (cover-only).
  PlanPtr p = MakeProduct(MakeScan("PO", "po"), MakeScan("Item", "item"));
  p = MakeSelect(p, Eq("item.itemNum", "00001"));
  p = MakeSelect(p, Eq("item.quantity", 10));
  return p;
}

PlanPtr Q3() {
  // Excel: σ PO.orderNum=Item1.orderNum over
  //        (σ telephone PO) × (σ itemNum1 σ Item1.orderNum=Item2.orderNum
  //                            (Item1 × Item2))
  PlanPtr items =
      MakeProduct(MakeScan("Item", "item1"), MakeScan("Item", "item2"));
  items = MakeSelect(items, Join("item1.orderNum", "item2.orderNum"));
  items = MakeSelect(items, Eq("item1.itemNum", "00001"));
  PlanPtr po = MakeSelect(MakeScan("PO", "po"),
                          Eq("po.telephone", "335-1736"));
  PlanPtr p = MakeProduct(po, items);
  p = MakeSelect(p, Join("po.orderNum", "item1.orderNum"));
  return p;
}

PlanPtr Q4() {
  // Excel: σ itemNum1 ((σ PO1.orderNum=PO2.orderNum (PO1 × PO2)) ×
  //                    (σ Item1.orderNum=Item2.orderNum (Item1 × Item2)))
  PlanPtr pos = MakeProduct(MakeScan("PO", "po1"), MakeScan("PO", "po2"));
  pos = MakeSelect(pos, Join("po1.orderNum", "po2.orderNum"));
  PlanPtr items =
      MakeProduct(MakeScan("Item", "item1"), MakeScan("Item", "item2"));
  items = MakeSelect(items, Join("item1.orderNum", "item2.orderNum"));
  PlanPtr p = MakeProduct(pos, items);
  p = MakeSelect(p, Eq("item1.itemNum", "00001"));
  return p;
}

PlanPtr Q5() {
  // Excel: COUNT(σ telephone σ company σ invoiceTo σ deliverToStreet PO)
  PlanPtr p = MakeScan("PO", "po");
  p = MakeSelect(p, Eq("po.deliverToStreet", "Central"));
  p = MakeSelect(p, Eq("po.invoiceTo", "Mary"));
  p = MakeSelect(p, Eq("po.company", "ABC"));
  p = MakeSelect(p, Eq("po.telephone", "335-1736"));
  return MakeAggregate(p, AggKind::kCount);
}

PlanPtr Q6() {
  // Noris: σ telephone σ invoiceTo σ deliverToStreet (PO)
  PlanPtr p = MakeScan("PO", "po");
  p = MakeSelect(p, Eq("po.deliverToStreet", "Central"));
  p = MakeSelect(p, Eq("po.invoiceTo", "Mary"));
  p = MakeSelect(p, Eq("po.telephone", "335-1736"));
  return p;
}

PlanPtr Q7() {
  // Noris: π itemNum,unitPrice σ orderNum σ deliverTo σ deliverToStreet
  //        (PO × Item)
  PlanPtr p = MakeProduct(MakeScan("PO", "po"), MakeScan("Item", "item"));
  p = MakeSelect(p, Eq("po.deliverToStreet", "Central"));
  p = MakeSelect(p, Eq("po.deliverTo", "Mary"));
  p = MakeSelect(p, Eq("po.orderNum", "00001"));
  return MakeProject(p, {"item.itemNum", "item.unitPrice"});
}

PlanPtr Q8() {
  // Paragon: σ billTo σ shipToAddress σ shipToPhone (PO)
  PlanPtr p = MakeScan("PO", "po");
  p = MakeSelect(p, Eq("po.shipToPhone", "335-1736"));
  p = MakeSelect(p, Eq("po.shipToAddress", "ABC"));
  p = MakeSelect(p, Eq("po.billTo", "Mary"));
  return p;
}

PlanPtr Q9() {
  // Paragon: SUM(π price σ telephone σ billToAddress σ itemNum
  //              (PO × Item))
  PlanPtr p = MakeProduct(MakeScan("PO", "po"), MakeScan("Item", "item"));
  p = MakeSelect(p, Eq("item.itemNum", "00001"));
  p = MakeSelect(p, Eq("po.billToAddress", "ABC"));
  p = MakeSelect(p, Eq("po.telephone", "335-1736"));
  p = MakeProject(p, {"item.price"});
  return MakeAggregate(p, AggKind::kSum, "item.price");
}

PlanPtr Q10() {
  // Paragon: COUNT(σ invoiceTo σ billToAddress (PO × Item)); Item bare.
  PlanPtr p = MakeProduct(MakeScan("PO", "po"), MakeScan("Item", "item"));
  p = MakeSelect(p, Eq("po.billToAddress", "ABC"));
  p = MakeSelect(p, Eq("po.invoiceTo", "Mary"));
  return MakeAggregate(p, AggKind::kCount);
}

}  // namespace

std::vector<WorkloadQuery> PaperWorkload() {
  return {
      {"Q1", TargetSchemaId::kExcel, Q1()},
      {"Q2", TargetSchemaId::kExcel, Q2()},
      {"Q3", TargetSchemaId::kExcel, Q3()},
      {"Q4", TargetSchemaId::kExcel, Q4()},
      {"Q5", TargetSchemaId::kExcel, Q5()},
      {"Q6", TargetSchemaId::kNoris, Q6()},
      {"Q7", TargetSchemaId::kNoris, Q7()},
      {"Q8", TargetSchemaId::kParagon, Q8()},
      {"Q9", TargetSchemaId::kParagon, Q9()},
      {"Q10", TargetSchemaId::kParagon, Q10()},
  };
}

WorkloadQuery DefaultQuery() { return QueryById("Q4"); }

const WorkloadQuery* FindQuery(const std::string& id) {
  static const std::vector<WorkloadQuery>* workload =
      new std::vector<WorkloadQuery>(PaperWorkload());
  for (const WorkloadQuery& q : *workload) {
    if (q.id == id) return &q;
  }
  return nullptr;
}

WorkloadQuery QueryById(const std::string& id) {
  const WorkloadQuery* q = FindQuery(id);
  URM_CHECK(q != nullptr) << "unknown workload query: " << id;
  return *q;
}

algebra::PlanPtr SelectionChainQuery(int num_selections) {
  URM_CHECK_GE(num_selections, 1);
  URM_CHECK_LE(num_selections, 5);
  const std::vector<Predicate> preds = {
      Eq("po.telephone", "335-1736"), Eq("po.priority", 2),
      Eq("po.invoiceTo", "Mary"), Eq("po.deliverToStreet", "Central"),
      Eq("po.company", "ABC")};
  PlanPtr p = MakeScan("PO", "po");
  for (int i = 0; i < num_selections; ++i) {
    p = MakeSelect(p, preds[static_cast<size_t>(i)]);
  }
  return p;
}

algebra::PlanPtr SelfJoinQuery(int num_products) {
  URM_CHECK_GE(num_products, 1);
  URM_CHECK_LE(num_products, 3);
  PlanPtr p = MakeScan("PO", "po1");
  for (int i = 0; i < num_products; ++i) {
    std::string prev = "po" + std::to_string(i + 1);
    std::string cur = "po" + std::to_string(i + 2);
    p = MakeProduct(p, MakeScan("PO", cur));
    p = MakeSelect(p, Join(prev + ".orderNum", cur + ".orderNum"));
  }
  p = MakeSelect(p, Eq("po1.telephone", "335-1736"));
  return p;
}

}  // namespace core
}  // namespace urm
