#include "oracle.h"

#include <map>
#include <set>

#include "graph/traversal.h"
#include "response.h"

namespace t5 {

namespace fg = frappe::graph;
using frappe::query::Database;
using frappe::query::QueryResult;
using frappe::query::ResultValue;
using fg::Direction;

namespace {

using Row = std::vector<ResultValue>;

fg::EdgeFilter CallsFilter(const RefGraph& ref, Direction dir) {
  return fg::EdgeFilter::Of({ref.schema().edge_type(EdgeKind::kCalls)}, dir);
}

std::vector<Row> SearchRows(const RefGraph& ref, const Instance& inst) {
  // m -[:compiled_from|linked_from*]-> f: one or more hops, distinct f.
  std::set<NodeId> files;
  std::vector<NodeId> frontier;
  for (NodeId m : ref.Named(inst.module)) frontier.push_back(m);
  while (!frontier.empty()) {
    NodeId at = frontier.back();
    frontier.pop_back();
    for (EdgeKind k : {EdgeKind::kCompiledFrom, EdgeKind::kLinkedFrom}) {
      ref.Edges(at, Direction::kOut, k, [&](EdgeId, NodeId next) {
        if (files.insert(next).second) frontier.push_back(next);
      });
    }
  }
  std::vector<Row> rows;
  for (NodeId f : files) {
    ref.Edges(f, Direction::kOut, EdgeKind::kFileContains,
              [&](EdgeId, NodeId n) {
                if (ref.Kind(n) == inst.kind && ref.ShortName(n) == inst.name) {
                  rows.push_back({ResultValue::Node(n)});
                }
              });
  }
  return rows;
}

std::vector<Row> XrefRows(const RefGraph& ref, const Instance& inst) {
  std::vector<Row> rows;
  const fg::GraphStore& store = ref.store();
  for (NodeId n : ref.Named(inst.name)) {
    bool hit = false;
    store.ForEachEdge(n, Direction::kIn, [&](EdgeId e, NodeId) {
      hit = ref.EdgeInt(e, PropKey::kNameFileId) == inst.file_id &&
            ref.EdgeInt(e, PropKey::kNameStartLine) == inst.line &&
            ref.EdgeInt(e, PropKey::kNameStartCol) == inst.col;
      return !hit;
    });
    if (hit) rows.push_back({ResultValue::Node(n)});
  }
  return rows;
}

std::vector<Row> DebugRows(const RefGraph& ref, const Instance& inst) {
  DebugWalk walk = WalkDebug(ref, inst);
  const std::set<NodeId> directs(walk.pair_callees.begin(),
                                 walk.pair_callees.end());
  const fg::EdgeFilter calls = CallsFilter(ref, Direction::kOut);
  std::map<std::pair<NodeId, NodeId>, bool> reach;  // memo per pair
  auto reachable = [&](NodeId direct, NodeId writer) {
    auto [it, fresh] = reach.try_emplace({direct, writer}, false);
    if (fresh) {
      if (direct != writer) {
        it->second = fg::IsReachable(ref.store(), direct, writer, calls);
      } else {
        // `*` needs at least one hop: a node reaches itself only round a
        // cycle.
        std::vector<NodeId> closure =
            fg::TransitiveClosure(ref.store(), direct, calls);
        it->second = std::binary_search(closure.begin(), closure.end(), writer);
      }
    }
    return it->second;
  };
  std::set<std::pair<NodeId, std::optional<int64_t>>> distinct;
  for (const auto& [writer, line] : walk.writes) {
    for (NodeId direct : directs) {
      if (reachable(direct, writer)) {
        distinct.emplace(writer, line);
        break;
      }
    }
  }
  std::vector<Row> rows;
  for (const auto& [writer, line] : distinct) {
    rows.push_back({ResultValue::Node(writer),
                    line ? ResultValue::Scalar(fg::Value::Int(*line))
                         : ResultValue::Null()});
  }
  return rows;
}

std::vector<NodeId> ClosureNodes(const RefGraph& ref, const Instance& inst) {
  const fg::EdgeFilter filter =
      CallsFilter(ref, inst.reverse ? Direction::kIn : Direction::kOut);
  std::set<NodeId> reached;
  for (NodeId seed : ref.Named(inst.name)) {
    for (NodeId n : fg::TransitiveClosure(ref.store(), seed, filter)) {
      reached.insert(n);
    }
  }
  return {reached.begin(), reached.end()};
}

Expected FromRows(const std::vector<Row>& rows, const Database& db) {
  Expected out;
  for (const Row& row : rows) out.rows.Add(RowText(row, db));
  return out;
}

}  // namespace

std::string RowText(const Row& row, const Database& db) {
  std::string text;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) text += kCellSeparator;
    text += row[i].ToString(db);
  }
  return text;
}

Expected Expect(const RefGraph& ref, const Database& render_db,
                const Instance& inst) {
  switch (inst.cls) {
    case Cls::kSearch: return FromRows(SearchRows(ref, inst), render_db);
    case Cls::kXref: return FromRows(XrefRows(ref, inst), render_db);
    case Cls::kDebug: return FromRows(DebugRows(ref, inst), render_db);
    case Cls::kClosure: {
      std::vector<NodeId> reached = ClosureNodes(ref, inst);
      std::vector<Row> rows;
      for (NodeId n : reached) rows.push_back({ResultValue::Node(n)});
      Expected out = FromRows(rows, render_db);
      out.reached = std::move(reached);
      return out;
    }
    case Cls::kImpact: {
      Expected out;
      out.backward = fg::TransitiveClosure(ref.store(), inst.function,
                                           CallsFilter(ref, Direction::kOut));
      out.forward = fg::TransitiveClosure(ref.store(), inst.function,
                                          CallsFilter(ref, Direction::kIn));
      std::sort(out.backward.begin(), out.backward.end());
      std::sort(out.forward.begin(), out.forward.end());
      return out;
    }
  }
  return {};
}

std::vector<std::pair<NodeId, NodeId>> DebugReachPairs(const RefGraph& ref,
                                                       const Instance& inst) {
  DebugWalk walk = WalkDebug(ref, inst);
  std::set<std::pair<NodeId, NodeId>> pairs;
  for (const auto& write : walk.writes) {
    for (NodeId direct : walk.pair_callees) pairs.emplace(direct, write.first);
  }
  return {pairs.begin(), pairs.end()};
}

Expected ExpectFromResult(const QueryResult& result, const Database& db) {
  return FromRows(result.rows, db);
}

bool CheckRows(const Expected& expected, const QueryResult& result,
               const Database& db) {
  RowDigest digest;
  for (const Row& row : result.rows) digest.Add(RowText(row, db));
  return digest == expected.rows;
}

bool CheckSlices(const Expected& expected, std::vector<NodeId> forward,
                 std::vector<NodeId> backward) {
  std::sort(forward.begin(), forward.end());
  std::sort(backward.begin(), backward.end());
  return forward == expected.forward && backward == expected.backward;
}

bool CheckResponseRows(const Expected& expected, std::string_view body) {
  RowDigest digest;
  if (!DigestResponseRows(body, &digest)) return false;
  return digest == expected.rows;
}

}  // namespace t5
