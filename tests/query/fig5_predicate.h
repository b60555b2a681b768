#ifndef FRAPPE_TESTS_QUERY_FIG5_PREDICATE_H_
#define FRAPPE_TESTS_QUERY_FIG5_PREDICATE_H_

#include <set>
#include <string>

#include "model/code_graph.h"

namespace frappe::query::testing {

// A Figure 5-shaped query on a generated kernel: is a writer of a struct
// member reachable over calls from a direct callee? 30 distinct callees x
// 30 member writers become the predicate's input rows; with as many
// writers as callees the memo anchors on the callees, so each callee is a
// separate kernel closure. START binds writers first, so it spends 30 +
// 30 x 30 steps: below the executor's 1024-step check cadence, so a budget
// that stops this query stops it inside the WHERE predicate.
inline std::string Fig5PredicateQuery(const model::CodeGraph& graph) {
  constexpr size_t kDirects = 30, kWriters = 30;
  const graph::GraphView& view = graph.view();
  graph::TypeId calls = graph.schema().edge_type(model::EdgeKind::kCalls);
  graph::TypeId writes =
      graph.schema().edge_type(model::EdgeKind::kWritesMember);
  std::set<graph::NodeId> callees, writer_set;
  for (graph::EdgeId e = 0; e < view.EdgeIdUpperBound(); ++e) {
    if (!view.EdgeExists(e)) continue;
    graph::Edge edge = view.GetEdge(e);
    if (edge.type == calls && callees.size() < kDirects) {
      callees.insert(edge.dst);
    } else if (edge.type == writes && writer_set.size() < kWriters) {
      writer_set.insert(edge.src);
    }
  }
  auto ids = [](const std::set<graph::NodeId>& nodes) {
    std::string out;
    for (graph::NodeId id : nodes) {
      out += (out.empty() ? "" : ",") + std::to_string(id);
    }
    return out;
  };
  return "START writer=node(" + ids(writer_set) + "), direct=node(" +
         ids(callees) + ") WHERE direct -[:calls*]-> writer" +
         " RETURN distinct writer";
}

}  // namespace frappe::query::testing

#endif  // FRAPPE_TESTS_QUERY_FIG5_PREDICATE_H_
