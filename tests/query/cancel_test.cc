// Status plumbing for the live-diagnostics control plane: cancelled and
// deadline-exceeded queries must land in the per-fingerprint stats and the
// structured query log with the right status string, and the active-query
// registry must be empty afterwards — on every exit path, under
// concurrency included (run under TSan via the `parallel` label). The
// Figure 5 reachability predicate obeys the same budgets as MATCH.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "extractor/synthetic.h"
#include "gtest/gtest.h"
#include "model/code_graph.h"
#include "obs/fingerprint.h"
#include "obs/query_log.h"
#include "obs/query_registry.h"
#include "query/session.h"
#include "tests/query/fig5_predicate.h"
#include "tests/query/fixture.h"

namespace frappe::query {
namespace {

using obs::QueryRegistry;

// A generated kernel-shaped graph big enough that the slow-path closure
// enumeration runs well past the executor's 1024-step check cadence.
// Shared across tests — generation dominates the suite's runtime.
model::CodeGraph& KernelGraph() {
  static model::CodeGraph* graph = [] {
    auto* g = new model::CodeGraph();
    extractor::GraphScale scale;
    scale.factor = 0.02;
    extractor::GenerateKernelGraph(scale, g);
    return g;
  }();
  return *graph;
}

// A function with outgoing calls, so `-[:calls*]->` from it does real work.
std::string ClosureSeedName() {
  const model::CodeGraph& g = KernelGraph();
  const graph::GraphView& view = g.view();
  graph::TypeId calls = g.schema().edge_type(model::EdgeKind::kCalls);
  graph::KeyId short_name = g.schema().key(model::PropKey::kShortName);
  for (graph::EdgeId e = 0; e < view.EdgeIdUpperBound(); ++e) {
    if (!view.EdgeExists(e) || view.GetEdge(e).type != calls) continue;
    std::string_view name = view.GetNodeString(view.GetEdge(e).src,
                                               short_name);
    if (!name.empty()) return std::string(name);
  }
  return "";
}

// The scale-0.05 kernel the Figure 5 predicate tests run on.
model::CodeGraph& Fig5Graph() {
  static model::CodeGraph* graph = [] {
    auto* g = new model::CodeGraph();
    extractor::GraphScale scale;
    scale.factor = 0.05;
    extractor::GenerateKernelGraph(scale, g);
    return g;
  }();
  return *graph;
}

std::string ClosureQuery(const std::string& seed) {
  return "START n=node:node_auto_index('short_name: " + seed +
         "') MATCH n -[:calls*]-> m RETURN distinct m";
}

uint64_t ErrorsForFingerprint(uint64_t fingerprint) {
  for (const obs::QueryStats::Snapshot& s :
       obs::QueryStats::Global().SnapshotAll()) {
    if (s.fingerprint == fingerprint) return s.errors;
  }
  return 0;
}

TEST(CancelTest, PreTrippedTokenCancelsSlowPathEnumeration) {
  std::string seed = ClosureSeedName();
  ASSERT_FALSE(seed.empty());
  Session session(KernelGraph());

  std::string query = ClosureQuery(seed);
  uint64_t fp = obs::NormalizeQuery(query).fingerprint;
  uint64_t errors_before = ErrorsForFingerprint(fp);

  std::atomic<bool> cancel{true};  // tripped before the query starts
  ExecOptions options;
  options.use_csr_fast_path = false;  // force edge-distinct enumeration
  options.deadline_ms = 60000;        // backstop: broken cancel still ends
  options.cancel = &cancel;
  auto result = session.Run(query, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  EXPECT_STREQ(StatusCodeName(result.status().code()), "Cancelled");

  // The failure is aggregated into the fingerprint stats table...
  EXPECT_EQ(ErrorsForFingerprint(fp), errors_before + 1);
  // ...and the registry entry is gone.
  EXPECT_EQ(QueryRegistry::Global().size(), 0u);
}

TEST(CancelTest, PreTrippedTokenCancelsCsrFastPath) {
  // The fast path hands the token to the analytics kernel, which polls it
  // per BFS level — a pre-tripped token cancels even the tiny fixture.
  testing::PaperFixture fixture;
  Session session(fixture.graph);
  std::atomic<bool> cancel{true};
  ExecOptions options;
  options.cancel = &cancel;
  auto result = session.Run(
      "START n=node:node_auto_index('short_name: sr_media_change')"
      " MATCH n -[:calls*]-> m RETURN distinct m",
      options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  EXPECT_EQ(QueryRegistry::Global().size(), 0u);
}

TEST(CancelTest, MidFlightCancelThroughTheRegistry) {
  std::string seed = ClosureSeedName();
  ASSERT_FALSE(seed.empty());
  Session session(KernelGraph());

  Result<QueryResult> result = Status::Internal("runner never finished");
  std::thread runner([&] {
    ExecOptions options;
    options.use_csr_fast_path = false;
    options.deadline_ms = 60000;  // backstop if cancellation is broken
    result = session.Run(ClosureQuery(seed), options);
  });

  // Wait until the query is visible in the registry, then kill it the way
  // /debug/cancel does.
  uint64_t id = 0;
  for (int i = 0; i < 2000 && id == 0; ++i) {
    for (const QueryRegistry::Snapshot& s :
         QueryRegistry::Global().SnapshotAll()) {
      id = s.id;
    }
    if (id == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(id, 0u) << "query never appeared in the registry";
  EXPECT_TRUE(QueryRegistry::Global().Cancel(id));
  runner.join();

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  EXPECT_EQ(QueryRegistry::Global().size(), 0u);
}

TEST(CancelTest, CancelledAndDeadlineStatusesReachTheQueryLog) {
  std::string seed = ClosureSeedName();
  ASSERT_FALSE(seed.empty());
  Session session(KernelGraph());
  std::string query = ClosureQuery(seed);
  uint64_t fp = obs::NormalizeQuery(query).fingerprint;

  const std::string path = "cancel_test_qlog.jsonl";
  std::remove(path.c_str());
  obs::QueryLog::Options qlog_options;
  qlog_options.path = path;
  ASSERT_TRUE(obs::QueryLog::Global().Enable(qlog_options).ok());

  {
    std::atomic<bool> cancel{true};
    ExecOptions options;
    options.use_csr_fast_path = false;
    options.deadline_ms = 60000;
    options.cancel = &cancel;
    auto result = session.Run(query, options);
    ASSERT_EQ(result.status().code(), StatusCode::kCancelled);
  }
  {
    ExecOptions options;
    options.use_csr_fast_path = false;
    options.deadline_ms = 1;  // expires almost immediately
    auto result = session.Run(query, options);
    ASSERT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
        << result.status().ToString();
  }
  ASSERT_TRUE(obs::QueryLog::Global().Flush().ok());
  obs::QueryLog::Global().Disable();

  auto records = obs::ReadQueryLogFile(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  int cancelled = 0, deadline = 0;
  for (const obs::QueryRecord& r : *records) {
    if (r.fingerprint != fp) continue;
    if (r.status == "Cancelled") ++cancelled;
    if (r.status == "DeadlineExceeded") ++deadline;
  }
  EXPECT_EQ(cancelled, 1);
  EXPECT_EQ(deadline, 1);
  EXPECT_EQ(QueryRegistry::Global().size(), 0u);
  std::remove(path.c_str());
}

TEST(CancelTest, ConcurrentRunsLeaveNoRegistryEntriesBehind) {
  testing::PaperFixture fixture;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::atomic<int> cancelled_runs{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fixture, &cancelled_runs] {
      Session session(fixture.graph);
      for (int i = 0; i < kPerThread; ++i) {
        if (i % 3 == 0) {
          // Pre-tripped token through the CSR fast path: exercises the
          // registry's token aliasing + the analytics cancel under load.
          std::atomic<bool> cancel{true};
          ExecOptions options;
          options.cancel = &cancel;
          auto result = session.Run(
              "START n=node:node_auto_index('short_name: sr_media_change')"
              " MATCH n -[:calls*]-> m RETURN distinct m",
              options);
          if (!result.ok() &&
              result.status().code() == StatusCode::kCancelled) {
            cancelled_runs.fetch_add(1);
          }
        } else {
          auto result = session.Run("MATCH (f:function) RETURN f");
          EXPECT_TRUE(result.ok()) << result.status().ToString();
        }
      }
    });
  }
  // A concurrent observer, like the stats server scraping /debug/queryz.
  std::thread observer([] {
    for (int i = 0; i < 100; ++i) {
      QueryRegistry::Global().DumpJson();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (std::thread& t : threads) t.join();
  observer.join();
  EXPECT_GT(cancelled_runs.load(), 0);
  EXPECT_EQ(QueryRegistry::Global().size(), 0u);
}

// The predicate charges the kernel's edge scans as steps, so a step budget
// stops it part-way through the WHERE clause.
TEST(CancelTest, Fig5PredicateStopsAtStepBudget) {
  Session session(Fig5Graph());
  const std::string query = testing::Fig5PredicateQuery(Fig5Graph());
  ExecOptions profile;
  profile.profile = true;
  auto full = session.Run(query, profile);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_EQ(full->stats.operators.size(), 3u);  // START, WHERE, RETURN
  const OperatorStats& start = full->stats.operators[0];
  const OperatorStats& where = full->stats.operators[1];
  EXPECT_TRUE(where.fast_path) << "WHERE did not run the CSR kernel";
  EXPECT_FALSE(full->stats.fast_path_taken);  // MATCH-only flag
  EXPECT_GT(where.steps, 10 * start.rows) << "kernel scans not charged";

  ExecOptions options;
  options.max_steps = start.steps + where.steps / 2;
  auto result = session.Run(query, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("step budget"), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(QueryRegistry::Global().size(), 0u);
}

TEST(CancelTest, Fig5PredicateStopsAtDeadline) {
  Session session(Fig5Graph());
  const std::string query = testing::Fig5PredicateQuery(Fig5Graph());
  ASSERT_TRUE(session.Run(query).ok());  // builds the CSR outside the clock
  ExecOptions options;
  options.deadline_ms = 1;
  auto result = session.Run(query, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  EXPECT_EQ(QueryRegistry::Global().size(), 0u);
}

// A token tripped the way /debug/cancel trips it (the registry aliases the
// caller's token). START stays below the executor's check cadence, so the
// first kernel dispatch of the predicate is what notices.
TEST(CancelTest, Fig5PredicateStopsAtCancelToken) {
  Session session(Fig5Graph());
  std::atomic<bool> cancel{true};
  ExecOptions options;
  options.cancel = &cancel;
  auto result =
      session.Run(testing::Fig5PredicateQuery(Fig5Graph()), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  EXPECT_EQ(QueryRegistry::Global().size(), 0u);
}

}  // namespace
}  // namespace frappe::query
