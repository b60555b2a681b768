// PROFILE mode: executes for real, returns rows plus a plan annotated with
// per-operator stats. The db-hit and row counts must be deterministic
// across lane counts (only timings may differ), the annotated tree must be
// the EXPLAIN tree modulo the stats columns, and the slow-query log must
// fire when FRAPPE_SLOW_QUERY_MS says everything is slow.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "obs/fingerprint.h"
#include "query/executor.h"
#include "query/session.h"
#include "tests/query/fixture.h"

namespace frappe::query {
namespace {

using graph::NodeId;
using testing::PaperFixture;

// The paper's query set: Figures 3-6 plus the Table 6 variants, the corpus
// every observability claim is checked against.
std::vector<std::string> PaperQueries(const PaperFixture& fixture) {
  return {
      // Figure 3: symbol search constrained by module.
      "START m=node:node_auto_index('short_name: wakeup.elf') "
      "MATCH m -[:compiled_from|linked_from*]-> f "
      "WITH distinct f "
      "MATCH f -[:file_contains]-> (n:field{short_name: 'id'}) "
      "RETURN n",
      // Figure 4: go-to-definition.
      "START n=node:node_auto_index('short_name: id') "
      "WHERE (n) <-[{NAME_FILE_ID: " +
          std::to_string(fixture.NodeFile()) +
          ", NAME_START_LINE: 104, NAME_START_COLUMN: 16}]- () RETURN n",
      // Figure 5: debugging — writers of packet_command.cmd.
      "START from=node:node_auto_index('short_name: sr_media_change'), "
      "to=node:node_auto_index('short_name: get_sectorsize'), "
      "b=node:node_auto_index('short_name: packet_command') "
      "MATCH writer -[write:writes_member]-> ({SHORT_NAME:'cmd'}) "
      "<-[:contains]- b "
      "WITH to, from, writer, write "
      "MATCH direct <-[s:calls]- from -[r:calls{use_start_line: 236}]-> to "
      "WHERE r.use_start_line >= s.use_start_line AND "
      "direct -[:calls*]-> writer "
      "RETURN distinct writer, write.use_start_line",
      // Figure 6: transitive closure of outgoing calls.
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[:calls*]-> m RETURN distinct m",
      // Table 6: group labels (Cypher 2.x syntax).
      "MATCH (n:container:symbol {short_name: 'packet_command'}) RETURN n",
      "MATCH (n:container:symbol {short_name: 'helper_a'}) RETURN n",
      // Table 6: lucene type alternation (Cypher 1.x syntax).
      "START n=node:node_auto_index('(type: struct OR type: union OR "
      "type: enum_def) AND short_name: packet_command') RETURN n",
  };
}

class ProfileTest : public ::testing::Test {
 protected:
  ProfileTest() : session_(fixture_.graph) {}

  QueryResult Run(const std::string& text, const ExecOptions& options = {}) {
    auto result = session_.Run(text, options);
    EXPECT_TRUE(result.ok()) << text << " => " << result.status();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  // Canonical, timing-free digest of a result: sorted row renderings.
  std::vector<std::string> RowDigest(const QueryResult& result) {
    std::vector<std::string> rows;
    for (const auto& row : result.rows) {
      std::string line;
      for (const auto& value : row) {
        line += value.ToString(session_.database()) + "|";
      }
      rows.push_back(std::move(line));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  // Per-operator stats with the timing fields zeroed out.
  static std::string OperatorDigest(const ExecStats& stats) {
    std::string out;
    for (const OperatorStats& op : stats.operators) {
      out += "clause=" + std::to_string(op.clause_index) +
             " rows=" + std::to_string(op.rows) +
             " hits=" + std::to_string(op.db_hits.nodes) + "/" +
             std::to_string(op.db_hits.edges) + "/" +
             std::to_string(op.db_hits.properties) +
             " steps=" + std::to_string(op.steps) +
             " fp=" + std::to_string(op.fast_path) + "\n";
    }
    return out;
  }

  // Strips the " // est_rows=... rows=..." annotation suffix (plus the
  // column-alignment padding before it), recovering the bare operator tree.
  static std::string StripStats(const std::string& plan) {
    std::string out;
    size_t pos = 0;
    while (pos < plan.size()) {
      size_t eol = plan.find('\n', pos);
      if (eol == std::string::npos) eol = plan.size();
      std::string line = plan.substr(pos, eol - pos);
      size_t cut = line.find(" //");
      if (cut != std::string::npos) line.resize(cut);
      while (!line.empty() && line.back() == ' ') line.pop_back();
      out += line + "\n";
      pos = eol + 1;
    }
    return out;
  }

  PaperFixture fixture_;
  Session session_;
};

TEST_F(ProfileTest, ExplainReturnsPlanWithoutExecuting) {
  QueryResult r = Run(
      "EXPLAIN START n=node:node_auto_index('short_name: cmd') RETURN n");
  EXPECT_TRUE(r.rows.empty());
  EXPECT_TRUE(r.columns.empty());
  EXPECT_NE(r.plan.find("NodeByIndexSeek n"), std::string::npos) << r.plan;
  EXPECT_TRUE(r.stats.operators.empty());
}

TEST_F(ProfileTest, ProfileReturnsRowsAndAnnotatedPlan) {
  QueryResult r = Run(
      "PROFILE START n=node:node_auto_index('short_name: cmd') RETURN n");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].node, fixture_.cmd_field);
  EXPECT_NE(r.plan.find("NodeByIndexSeek n"), std::string::npos) << r.plan;
  EXPECT_NE(r.plan.find("est_rows="), std::string::npos) << r.plan;
  EXPECT_NE(r.plan.find(" rows="), std::string::npos) << r.plan;
  EXPECT_NE(r.plan.find("db_hits="), std::string::npos) << r.plan;
  EXPECT_NE(r.plan.find("time="), std::string::npos) << r.plan;
  EXPECT_NE(r.plan.find(" q="), std::string::npos) << r.plan;
  ASSERT_FALSE(r.stats.operators.empty());
  EXPECT_GT(r.stats.db_hits.Total(), 0u);
}

// Acceptance bar: PROFILE works on every paper query, on both execution
// paths, with non-zero db-hits and a stats entry per clause.
TEST_F(ProfileTest, EveryPaperQueryProfilesOnBothPaths) {
  for (const std::string& query : PaperQueries(fixture_)) {
    for (bool fast_path : {true, false}) {
      ExecOptions options;
      options.use_csr_fast_path = fast_path;
      QueryResult profiled = Run("PROFILE " + query, options);
      SCOPED_TRACE(query + (fast_path ? " [fast path]" : " [enumerate]"));
      EXPECT_FALSE(profiled.plan.empty());
      ASSERT_FALSE(profiled.stats.operators.empty());
      EXPECT_GT(profiled.stats.db_hits.Total(), 0u);
      EXPECT_NE(profiled.plan.find(" rows="), std::string::npos)
          << profiled.plan;
      EXPECT_NE(profiled.plan.find("est_rows="), std::string::npos)
          << profiled.plan;
      // Rows and columns must match the unprofiled run exactly.
      QueryResult plain = Run(query, options);
      EXPECT_EQ(RowDigest(profiled), RowDigest(plain));
      EXPECT_EQ(profiled.columns, plain.columns);
      // The final operator's row count is the result cardinality.
      EXPECT_EQ(profiled.stats.operators.back().rows, profiled.rows.size());
    }
  }
}

// db-hits and per-operator rows are execution facts, not timing artifacts:
// they must be identical across lane counts 1, 2 and 8.
TEST_F(ProfileTest, StatsDeterministicAcrossThreadCounts) {
  for (const std::string& query : PaperQueries(fixture_)) {
    SCOPED_TRACE(query);
    std::string baseline_ops;
    std::vector<std::string> baseline_rows;
    uint64_t baseline_hits = 0;
    bool first = true;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      ExecOptions options;
      options.threads = threads;
      QueryResult r = Run("PROFILE " + query, options);
      std::string ops = OperatorDigest(r.stats);
      if (first) {
        baseline_ops = ops;
        baseline_rows = RowDigest(r);
        baseline_hits = r.stats.db_hits.Total();
        first = false;
        continue;
      }
      EXPECT_EQ(ops, baseline_ops) << "threads=" << threads;
      EXPECT_EQ(RowDigest(r), baseline_rows) << "threads=" << threads;
      EXPECT_EQ(r.stats.db_hits.Total(), baseline_hits)
          << "threads=" << threads;
    }
  }
}

// The PROFILE tree is the EXPLAIN tree: stripping the " // ..." stats
// columns must recover the same bare operator tree from both renderings.
TEST_F(ProfileTest, ProfilePlanMatchesExplainModuloStats) {
  for (const std::string& query : PaperQueries(fixture_)) {
    SCOPED_TRACE(query);
    QueryResult explained = Run("EXPLAIN " + query);
    QueryResult profiled = Run("PROFILE " + query);
    EXPECT_EQ(StripStats(profiled.plan), StripStats(explained.plan));
    // Both renderings carry the estimator's est_rows annotation; only
    // PROFILE adds the actual-row stats columns.
    EXPECT_NE(explained.plan.find("est_rows="), std::string::npos)
        << explained.plan;
    EXPECT_EQ(explained.plan.find(" db_hits="), std::string::npos)
        << explained.plan;
  }
}

// The shared renderer pads every annotated line to one column: on each
// plan, all " //" annotation markers start at the same offset, for both
// EXPLAIN and PROFILE (the satellite fix for the mis-aligned renderer).
TEST_F(ProfileTest, AnnotationsAlignToOneColumn) {
  for (const std::string& prefix : {std::string("EXPLAIN "),
                                    std::string("PROFILE ")}) {
    QueryResult r = Run(
        prefix +
        "START n=node:node_auto_index('short_name: sr_media_change') "
        "MATCH n -[:calls*]-> m RETURN distinct m");
    SCOPED_TRACE(prefix + "=> " + r.plan);
    size_t column = std::string::npos;
    size_t annotated = 0;
    size_t pos = 0;
    while (pos < r.plan.size()) {
      size_t eol = r.plan.find('\n', pos);
      if (eol == std::string::npos) eol = r.plan.size();
      std::string line = r.plan.substr(pos, eol - pos);
      size_t cut = line.find(" //");
      if (cut != std::string::npos) {
        if (column == std::string::npos) column = cut;
        EXPECT_EQ(cut, column) << line;
        ++annotated;
      }
      pos = eol + 1;
    }
    EXPECT_GT(annotated, 1u);
  }
}

TEST_F(ProfileTest, Figure6FastPathReportsFrontiersAndLanes) {
  const std::string fig6 =
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[:calls*]-> m RETURN distinct m";
  QueryResult r = Run("PROFILE " + fig6);
  EXPECT_TRUE(r.stats.fast_path_taken);
  const OperatorStats* fp = nullptr;
  for (const OperatorStats& op : r.stats.operators) {
    if (op.fast_path) fp = &op;
  }
  ASSERT_NE(fp, nullptr) << r.plan;
  // sr_media_change reaches {helper_a, get_sectorsize, helper_b} then
  // {sr_do_ioctl}: two BFS levels past the seed, non-empty frontiers.
  EXPECT_GE(fp->frontier_sizes.size(), 2u);
  for (uint64_t f : fp->frontier_sizes) EXPECT_GT(f, 0u);
  EXPECT_GE(fp->lanes, 1u);
  EXPECT_NE(r.plan.find("frontier=["), std::string::npos) << r.plan;
  EXPECT_NE(r.plan.find("lanes="), std::string::npos) << r.plan;
  // Direction-optimizing kernel: each level's push/pull decision and the
  // switch count are annotated next to the frontier trajectory.
  EXPECT_EQ(fp->level_pull.size(), fp->frontier_sizes.size());
  EXPECT_EQ(fp->level_bitmap.size(), fp->frontier_sizes.size());
  EXPECT_NE(r.plan.find("direction=["), std::string::npos) << r.plan;
  EXPECT_NE(r.plan.find("switches="), std::string::npos) << r.plan;

  // Forcing enumeration must produce the same rows without the fast path.
  ExecOptions options;
  options.use_csr_fast_path = false;
  QueryResult slow = Run("PROFILE " + fig6, options);
  EXPECT_FALSE(slow.stats.fast_path_taken);
  EXPECT_EQ(RowDigest(slow), RowDigest(r));
}

// Figure 5's `direct -[:calls*]-> writer` predicate runs the CSR kernel,
// so its WHERE operator carries the same kernel detail as a fast-path
// MATCH, while fast_path_taken keeps meaning "a MATCH took the fast path".
TEST_F(ProfileTest, Figure5PredicateReportsKernelDetail) {
  QueryResult r = Run("PROFILE " + PaperQueries(fixture_)[2]);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].node, fixture_.sr_do_ioctl);
  EXPECT_FALSE(r.stats.fast_path_taken);
  const OperatorStats* where = nullptr;
  for (const OperatorStats& op : r.stats.operators) {
    if (op.clause_index == 4) {
      where = &op;  // START, MATCH, WITH, MATCH, WHERE, RETURN
    } else {
      EXPECT_FALSE(op.fast_path) << "clause " << op.clause_index;
    }
  }
  ASSERT_NE(where, nullptr) << r.plan;
  EXPECT_TRUE(where->fast_path);
  ASSERT_FALSE(where->frontier_sizes.empty());
  EXPECT_EQ(where->level_pull.size(), where->frontier_sizes.size());
  EXPECT_EQ(where->lanes, 1u);  // the executor's default lane count
  EXPECT_GT(where->steps, 0u);
  std::string filter_line = r.plan.substr(r.plan.find("Filter"));
  filter_line.resize(filter_line.find('\n'));
  EXPECT_NE(filter_line.find("frontier=["), std::string::npos) << r.plan;
  EXPECT_NE(filter_line.find("direction=["), std::string::npos) << r.plan;
  EXPECT_NE(filter_line.find("lanes=1"), std::string::npos) << r.plan;
}

TEST_F(ProfileTest, ExecStatsAlwaysPopulated) {
  QueryResult r = Run("MATCH (n:module) RETURN n");
  EXPECT_GT(r.stats.db_hits.Total(), 0u);
  EXPECT_GT(r.stats.steps, 0u);
  EXPECT_GE(r.stats.elapsed_ms, 0.0);
  EXPECT_TRUE(r.stats.operators.empty());  // only PROFILE collects these
}

TEST_F(ProfileTest, SlowQueryLogFiresAtThresholdZero) {
  ::setenv("FRAPPE_SLOW_QUERY_MS", "0", 1);
  std::vector<std::string> logged;
  SetSlowQueryLogSinkForTesting(
      [&logged](const std::string& line) { logged.push_back(line); });
  auto result = session_.Run(
      "START n=node:node_auto_index('short_name: cmd') RETURN n");
  SetSlowQueryLogSinkForTesting(nullptr);
  ::unsetenv("FRAPPE_SLOW_QUERY_MS");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(logged.size(), 1u);
  EXPECT_NE(logged[0].find("slow query"), std::string::npos) << logged[0];
  // The entry is keyed by fingerprint + normalized text — the same key the
  // /stats fingerprint table and the query log use, so the three views
  // join on fp. The headline line strips the literal ('cmd' -> '?'); the
  // appended plan may still show it (operators want the real plan).
  EXPECT_NE(logged[0].find("fp="), std::string::npos) << logged[0];
  EXPECT_NE(logged[0].find("'short_name: ?'"), std::string::npos)
      << logged[0];
  std::string headline = logged[0].substr(0, logged[0].find('\n'));
  EXPECT_EQ(headline.find("short_name: cmd"), std::string::npos) << headline;
  // The log carries the plan so the on-call reader sees *why* it was slow.
  EXPECT_NE(logged[0].find("NodeByIndexSeek"), std::string::npos)
      << logged[0];
}

TEST_F(ProfileTest, SlowQueryLogSilentWhenUnset) {
  ::unsetenv("FRAPPE_SLOW_QUERY_MS");
  std::vector<std::string> logged;
  SetSlowQueryLogSinkForTesting(
      [&logged](const std::string& line) { logged.push_back(line); });
  auto result = session_.Run(
      "START n=node:node_auto_index('short_name: cmd') RETURN n");
  SetSlowQueryLogSinkForTesting(nullptr);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(logged.empty());
}

// The /stats row of `fingerprint` (all zeros before its first query).
obs::QueryStats::Snapshot StatsFor(uint64_t fingerprint) {
  for (const obs::QueryStats::Snapshot& snap :
       obs::QueryStats::Global().SnapshotAll()) {
    if (snap.fingerprint == fingerprint) return snap;
  }
  return {};
}

// RunQuery records exactly one QueryRecord on every exit: each query below
// raises its fingerprint's calls by one, and each failing one raises its
// errors by one.
TEST(RunQueryTelemetryTest, EveryExitRecordsExactlyOnce) {
  PaperFixture fixture;
  Session session(fixture.graph);
  struct Exit {
    const char* text;
    uint64_t max_steps;  // 0 = unlimited
    bool fails;
  };
  const Exit exits[] = {
      {"THIS IS NOT FQL", 0, true},                        // parse error
      {"EXPLAIN MATCH (n:module) RETURN n", 0, false},     // plan only
      {"ANALYZE", 0, false},                               // catalog build
      {"PROFILE MATCH (n:module) RETURN n", 0, false},     // annotated plan
      {"MATCH (n:module) RETURN n", 0, false},             // plain execution
      {"MATCH (f:function) RETURN f", 1, true},            // step budget
  };
  for (const Exit& exit : exits) {
    const uint64_t fp = obs::NormalizeQuery(exit.text).fingerprint;
    const obs::QueryStats::Snapshot before = StatsFor(fp);
    ExecOptions options;
    options.max_steps = exit.max_steps;
    Result<QueryResult> result = session.Run(exit.text, options);
    EXPECT_EQ(result.ok(), !exit.fails) << exit.text;
    const obs::QueryStats::Snapshot after = StatsFor(fp);
    EXPECT_EQ(after.calls - before.calls, 1u) << exit.text;
    EXPECT_EQ(after.errors - before.errors, exit.fails ? 1u : 0u)
        << exit.text;
  }
}

}  // namespace
}  // namespace frappe::query
