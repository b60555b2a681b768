// ANALYZE + the cardinality estimator: the FQL command builds and swaps in
// a stats catalog, EXPLAIN/PROFILE carry est_rows from it, and the
// misestimate telemetry (q-error histogram, per-fingerprint worst case,
// FRAPPE_MISESTIMATE_QERROR retention) fires on a seeded stale-catalog
// misestimate and clears after re-running ANALYZE.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "graph/snapshot_manager.h"
#include "obs/fingerprint.h"
#include "obs/query_record.h"
#include "query/estimator.h"
#include "query/parser.h"
#include "query/session.h"
#include "tests/query/fixture.h"

namespace frappe::query {
namespace {

using testing::PaperFixture;

// The retention store's misestimate entries, oldest first.
std::vector<obs::RetainedQuery> Misestimates() {
  std::vector<obs::RetainedQuery> out;
  for (obs::RetainedQuery& entry :
       obs::RetentionStore::Global().SnapshotAll()) {
    if (entry.reasons & obs::kRetainMisestimate) out.push_back(entry);
  }
  return out;
}

class AnalyzeTest : public ::testing::Test {
 protected:
  AnalyzeTest() : session_(fixture_.graph) {
    ::unsetenv("FRAPPE_MISESTIMATE_QERROR");
    ::unsetenv("FRAPPE_ESTIMATOR");
  }

  QueryResult Run(const std::string& text) {
    auto result = session_.Run(text);
    EXPECT_TRUE(result.ok()) << text << " => " << result.status();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  PaperFixture fixture_;
  Session session_;
};

TEST_F(AnalyzeTest, AnalyzeBuildsAndPublishesCatalog) {
  ASSERT_NE(session_.database().stats, nullptr);
  EXPECT_EQ(session_.database().stats->Get(), nullptr);

  QueryResult r = Run("ANALYZE");
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_FALSE(r.columns.empty());
  EXPECT_EQ(r.columns[0], "nodes");

  auto catalog = session_.database().stats->Get();
  ASSERT_NE(catalog, nullptr);
  EXPECT_EQ(catalog->node_count, fixture_.graph.view().NodeCount());
  EXPECT_EQ(catalog->edge_count, fixture_.graph.view().EdgeCount());
  EXPECT_FALSE(catalog->hubs.empty());
  EXPECT_FALSE(catalog->index_fields.empty());

  // The summary row reports the same totals.
  EXPECT_EQ(static_cast<uint64_t>(r.rows[0][0].value.AsInt()),
            catalog->node_count);
}

TEST_F(AnalyzeTest, AnalyzeIsCaseInsensitiveAndTakesNoClauses) {
  EXPECT_TRUE(session_.Run("analyze").ok());
  auto bad = session_.Run("ANALYZE RETURN n");
  EXPECT_FALSE(bad.ok());
}

TEST_F(AnalyzeTest, ExplainCarriesEstimates) {
  QueryResult r = Run(
      "EXPLAIN START n=node:node_auto_index('short_name: cmd') RETURN n");
  EXPECT_NE(r.plan.find("est_rows="), std::string::npos) << r.plan;
}

TEST_F(AnalyzeTest, EstimatorPrefersCatalogWhenPresent) {
  auto parsed = Parse(
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[:calls]-> m RETURN m");
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  ClauseEstimates before = EstimateQuery(session_.database(), *parsed);
  EXPECT_FALSE(before.used_catalog);
  EXPECT_EQ(before.rows.size(), parsed->clauses.size());

  Run("ANALYZE");
  ClauseEstimates after = EstimateQuery(session_.database(), *parsed);
  EXPECT_TRUE(after.used_catalog);
  EXPECT_GT(after.final_rows, 0.0);
}

TEST_F(AnalyzeTest, QErrorIsSymmetricAndSmoothed) {
  EXPECT_DOUBLE_EQ(QError(10.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0.0, 0.0), 1.0);  // smoothed: empty est vs empty
  EXPECT_DOUBLE_EQ(QError(1.0, 100.0), QError(100.0, 1.0));
  EXPECT_GT(QError(1.0, 1000.0), 100.0);
}

// The acceptance scenario: bulk ingest after ANALYZE leaves a stale
// catalog; the next query's estimate is badly wrong and lands in the
// misestimate telemetry; re-running ANALYZE clears the condition.
TEST_F(AnalyzeTest, StaleCatalogMisestimateFiresAndClearsAfterAnalyze) {
  const std::string query =
      "START n=node:node_auto_index('short_name: sr_media_change') "
      "MATCH n -[:calls]-> m RETURN m";

  Run("ANALYZE");  // catalog matches the graph as-built

  // Bulk ingest: 200 new callees of sr_media_change. The live view (which
  // execution traverses) grows; the catalog's calls-fanout does not.
  for (int i = 0; i < 200; ++i) {
    graph::NodeId callee = fixture_.graph.AddNode(
        model::NodeKind::kFunction, "ingested_" + std::to_string(i));
    PaperFixture::Must(fixture_.graph.AddEdge(model::EdgeKind::kCalls,
                                              fixture_.sr_media_change,
                                              callee));
  }

  obs::RetentionStore::Global().Clear();
  ::setenv("FRAPPE_MISESTIMATE_QERROR", "5", 1);

  QueryResult stale = Run(query);
  EXPECT_EQ(stale.rows.size(), 203u);  // 3 original + 200 ingested
  auto recorded = Misestimates();
  ASSERT_EQ(recorded.size(), 1u);
  EXPECT_EQ(recorded[0].record.rows, 203u);
  EXPECT_GE(recorded[0].record.qerror, 5.0);
  EXPECT_NE(recorded[0].record.query.find("calls"), std::string::npos);

  // The per-fingerprint table carries the worst q-error for the shape.
  bool found = false;
  for (const auto& snap : obs::QueryStats::Global().SnapshotAll()) {
    if (snap.fingerprint == recorded[0].record.fingerprint) {
      found = true;
      EXPECT_GE(snap.worst_qerror_x100, 500u);
    }
  }
  EXPECT_TRUE(found);

  // Re-ANALYZE: the refreshed fanout brings the estimate back within the
  // threshold — the same query is not retained again.
  Run("ANALYZE");
  QueryResult fresh = Run(query);
  EXPECT_EQ(fresh.rows.size(), 203u);
  EXPECT_EQ(Misestimates().size(), 1u);

  ::unsetenv("FRAPPE_MISESTIMATE_QERROR");
}

TEST_F(AnalyzeTest, EstimatorOffDisablesTheTelemetry) {
  obs::RetentionStore::Global().Clear();
  // Threshold 1.0 would flag every query (q >= 1 by definition) — unless
  // FRAPPE_ESTIMATOR=off short-circuits the whole comparison.
  ::setenv("FRAPPE_MISESTIMATE_QERROR", "1", 1);
  ::setenv("FRAPPE_ESTIMATOR", "off", 1);
  Run("MATCH (n:module) RETURN n");
  EXPECT_TRUE(Misestimates().empty());
  ::unsetenv("FRAPPE_ESTIMATOR");
  ::setenv("FRAPPE_MISESTIMATE_QERROR", "1", 1);
  Run("MATCH (n:module) RETURN n");
  EXPECT_FALSE(Misestimates().empty());
  ::unsetenv("FRAPPE_MISESTIMATE_QERROR");
  obs::RetentionStore::Global().Clear();
}

// A snapshot saved with a catalog reopens with warm estimates: the
// SnapshotSession publishes the embedded catalog into its stats cache.
TEST_F(AnalyzeTest, SnapshotSessionLoadsEmbeddedCatalog) {
  Run("ANALYZE");
  auto catalog = session_.database().stats->Get();
  ASSERT_NE(catalog, nullptr);

  std::string path = ::testing::TempDir() + "analyze_test_snapshot.db";
  graph::SnapshotManager manager(path);
  auto sizes = manager.Save(fixture_.graph.view(), &session_.name_index(),
                            catalog.get());
  ASSERT_TRUE(sizes.ok()) << sizes.status();
  EXPECT_GT(sizes->stats, 0u);

  auto reopened = SnapshotSession::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto loaded = (*reopened)->database().stats->Get();
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->node_count, catalog->node_count);
  EXPECT_EQ(loaded->edge_count, catalog->edge_count);

  auto parsed = Parse("MATCH (n:function) RETURN n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(EstimateQuery((*reopened)->database(), *parsed).used_catalog);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace frappe::query
