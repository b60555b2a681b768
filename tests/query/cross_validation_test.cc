// Cross-validation property tests: the declarative engine and the direct
// traversal/analysis APIs must agree on random graphs. This is the
// strongest correctness check we have for the executor — any divergence in
// path semantics, direction handling or filtering shows up here.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/traversal.h"
#include "model/code_graph.h"
#include "query/session.h"

namespace frappe::query {
namespace {

using graph::NodeId;

struct RandomGraph {
  model::CodeGraph graph{model::CodeGraph::Validation::kOff};
  std::vector<NodeId> functions;

  // `acyclic` keeps the number of edge-distinct paths manageable for the
  // unbounded path-enumeration tests (a dense cyclic core has
  // exponentially many paths — correct, but minutes-slow).
  explicit RandomGraph(uint64_t seed, size_t n = 30, size_t edges = 60,
                       bool acyclic = false) {
    frappe::Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      functions.push_back(graph.AddNode(model::NodeKind::kFunction,
                                        "fn_" + std::to_string(i)));
    }
    for (size_t i = 0; i < edges; ++i) {
      size_t a = rng.Uniform(n);
      size_t b = rng.Uniform(n);
      if (acyclic) {
        if (a == b) continue;
        if (a > b) std::swap(a, b);
      }
      graph.AddEdgeUnchecked(model::EdgeKind::kCalls, functions[a],
                             functions[b]);
    }
  }
};

class CrossValidationTest : public ::testing::TestWithParam<uint64_t> {};

std::set<NodeId> Nodes(const QueryResult& result) {
  std::set<NodeId> out;
  for (const auto& row : result.rows) out.insert(row[0].node);
  return out;
}

TEST_P(CrossValidationTest, VarLengthClosureMatchesDirectTraversal) {
  RandomGraph rg(GetParam(), 30, 60, /*acyclic=*/true);
  Session session(rg.graph);
  NodeId seed = rg.functions[GetParam() % rg.functions.size()];

  auto fql = session.Run("START n=node(" + std::to_string(seed) + ") " +
                         "MATCH n -[:calls*]-> m RETURN distinct m");
  ASSERT_TRUE(fql.ok()) << fql.status();

  auto direct = graph::TransitiveClosure(
      rg.graph.view(), seed,
      graph::EdgeFilter::Of({rg.graph.type_id(model::EdgeKind::kCalls)}));
  EXPECT_EQ(Nodes(*fql), std::set<NodeId>(direct.begin(), direct.end()));
}

TEST_P(CrossValidationTest, IncomingClosureMatchesForwardSlice) {
  RandomGraph rg(GetParam(), 30, 60, /*acyclic=*/true);
  Session session(rg.graph);
  NodeId seed = rg.functions[(GetParam() * 7) % rg.functions.size()];

  auto fql = session.Run("START n=node(" + std::to_string(seed) + ") " +
                         "MATCH n <-[:calls*]- m RETURN distinct m");
  ASSERT_TRUE(fql.ok()) << fql.status();
  auto direct = graph::TransitiveClosure(
      rg.graph.view(), seed,
      graph::EdgeFilter::Of({rg.graph.type_id(model::EdgeKind::kCalls)},
                            graph::Direction::kIn));
  EXPECT_EQ(Nodes(*fql), std::set<NodeId>(direct.begin(), direct.end()));
}

TEST_P(CrossValidationTest, SingleHopMatchesAdjacency) {
  RandomGraph rg(GetParam());
  Session session(rg.graph);
  NodeId seed = rg.functions[(GetParam() * 3) % rg.functions.size()];

  auto fql = session.Run("START n=node(" + std::to_string(seed) + ") " +
                         "MATCH n -[:calls]-> m RETURN distinct m");
  ASSERT_TRUE(fql.ok()) << fql.status();
  std::set<NodeId> expected;
  rg.graph.view().ForEachEdge(seed, graph::Direction::kOut,
                              [&](graph::EdgeId, NodeId neighbor) {
                                expected.insert(neighbor);
                                return true;
                              });
  EXPECT_EQ(Nodes(*fql), expected);
}

TEST_P(CrossValidationTest, DepthLimitedClosureMatches) {
  RandomGraph rg(GetParam(), 30, 45);
  Session session(rg.graph);
  NodeId seed = rg.functions[(GetParam() * 11) % rg.functions.size()];

  auto fql = session.Run("START n=node(" + std::to_string(seed) + ") " +
                         "MATCH n -[:calls*1..3]-> m RETURN distinct m");
  ASSERT_TRUE(fql.ok()) << fql.status();
  auto direct = graph::TransitiveClosure(
      rg.graph.view(), seed,
      graph::EdgeFilter::Of({rg.graph.type_id(model::EdgeKind::kCalls)}), 3);
  EXPECT_EQ(Nodes(*fql), std::set<NodeId>(direct.begin(), direct.end()));
}

TEST_P(CrossValidationTest, PatternPredicateMatchesReachability) {
  RandomGraph rg(GetParam());
  Session session(rg.graph);
  NodeId target = rg.functions[(GetParam() * 13) % rg.functions.size()];

  // WHERE n -[:calls*]-> target: the reachability short-circuit path.
  auto fql = session.Run(
      "START t=node(" + std::to_string(target) + ") " +
      "MATCH (n:function) WHERE n -[:calls*]-> t RETURN n");
  ASSERT_TRUE(fql.ok()) << fql.status();

  graph::EdgeFilter filter = graph::EdgeFilter::Of(
      {rg.graph.type_id(model::EdgeKind::kCalls)}, graph::Direction::kIn);
  auto callers = graph::TransitiveClosure(rg.graph.view(), target, filter);
  EXPECT_EQ(Nodes(*fql), std::set<NodeId>(callers.begin(), callers.end()));
}

// Generated differential test of the WHERE reachability predicate, which
// answers from a per-query memo of CSR kernel closures, against the
// GraphView BFS oracle: every direction and length form on a cyclic graph,
// a few nodes crossed with every node (so most rows hit the memo and each
// of the few meets itself) on either side of the pattern, which anchors
// the memo on the sources or on the targets, on 1, 2 and 4 kernel lanes.
TEST_P(CrossValidationTest, ReachabilityPredicateMatchesBfsOracle) {
  RandomGraph rg(GetParam(), 30, 45);
  Session session(rg.graph);
  const graph::GraphView& view = rg.graph.view();
  const graph::TypeId calls = rg.graph.type_id(model::EdgeKind::kCalls);
  constexpr size_t kUnbounded = std::numeric_limits<size_t>::max();

  std::vector<NodeId> few;
  for (size_t i = 0; i < 4; ++i) {
    few.push_back(rg.functions[(GetParam() * 5 + i * 7) % rg.functions.size()]);
  }
  auto id_list = [](const std::vector<NodeId>& nodes) {
    std::string out;
    for (NodeId id : nodes) {
      out += (out.empty() ? "" : ",") + std::to_string(id);
    }
    return out;
  };
  struct Arrow {
    const char* left;
    const char* right;
    graph::Direction direction;
  };
  struct Length {
    const char* text;
    uint32_t min_length;
    size_t max_length;
  };
  auto check = [&](const std::vector<NodeId>& sources,
                   const std::vector<NodeId>& targets, const Arrow& arrow,
                   const Length& length) {
    const std::string query =
        "START a=node(" + id_list(sources) + "), b=node(" +
        id_list(targets) + ") WHERE a " + arrow.left + "[:calls" +
        length.text + "]" + arrow.right + " b RETURN a, b";
    graph::EdgeFilter filter = graph::EdgeFilter::Of({calls}, arrow.direction);
    std::set<std::pair<NodeId, NodeId>> expected;
    for (NodeId a : sources) {
      std::vector<NodeId> closure =
          graph::TransitiveClosure(view, a, filter, length.max_length);
      for (NodeId b : targets) {
        bool reachable =
            a == b ? length.min_length == 0 ||
                         std::binary_search(closure.begin(), closure.end(), a)
                   : graph::IsReachable(view, a, b, filter,
                                        length.max_length);
        if (reachable) expected.emplace(a, b);
      }
    }
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      SCOPED_TRACE(query + " threads=" + std::to_string(threads));
      ExecOptions options;
      options.threads = threads;
      auto fql = session.Run(query, options);
      ASSERT_TRUE(fql.ok()) << fql.status();
      std::set<std::pair<NodeId, NodeId>> got;
      for (const auto& row : fql->rows) got.emplace(row[0].node, row[1].node);
      EXPECT_EQ(got.size(), fql->rows.size());
      EXPECT_EQ(got, expected);
    }
  };
  for (const Arrow& arrow : {Arrow{"-", "->", graph::Direction::kOut},
                             Arrow{"<-", "-", graph::Direction::kIn},
                             Arrow{"-", "-", graph::Direction::kBoth}}) {
    for (const Length& length : {Length{"*", 1, kUnbounded},
                                 Length{"*0..", 0, kUnbounded},
                                 Length{"*1..3", 1, 3}}) {
      check(few, rg.functions, arrow, length);  // anchored on the sources
      check(rg.functions, few, arrow, length);  // anchored on the targets
    }
  }
}

TEST_P(CrossValidationTest, ShortestPathReachabilityConsistent) {
  RandomGraph rg(GetParam());
  graph::EdgeFilter filter = graph::EdgeFilter::Of(
      {rg.graph.type_id(model::EdgeKind::kCalls)});
  NodeId from = rg.functions[GetParam() % rg.functions.size()];
  for (NodeId to : rg.functions) {
    bool reachable = graph::IsReachable(rg.graph.view(), from, to, filter);
    auto path = graph::ShortestPath(rg.graph.view(), from, to, filter);
    EXPECT_EQ(reachable, path.has_value());
    if (path.has_value() && from != to) {
      // Path edges all satisfy the filter and connect consecutively.
      for (size_t i = 0; i < path->edges.size(); ++i) {
        graph::Edge e = rg.graph.store().GetEdge(path->edges[i]);
        EXPECT_EQ(e.src, path->nodes[i]);
        EXPECT_EQ(e.dst, path->nodes[i + 1]);
      }
    }
  }
}

TEST_P(CrossValidationTest, CountStarMatchesRowCount) {
  RandomGraph rg(GetParam());
  Session session(rg.graph);
  auto rows = session.Run("MATCH (n:function) -[:calls]-> m RETURN m");
  auto count = session.Run(
      "MATCH (n:function) -[:calls]-> m RETURN count(*)");
  ASSERT_TRUE(rows.ok());
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(count->rows.size(), 1u);
  EXPECT_EQ(count->rows[0][0].value.AsInt(),
            static_cast<int64_t>(rows->rows.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossValidationTest,
                         ::testing::Range(uint64_t{1}, uint64_t{11}));

}  // namespace
}  // namespace frappe::query
