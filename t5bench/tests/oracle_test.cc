// Tests of the benchmark's oracles at a tiny scale: every oracle agrees
// with the program as built, and a corrupted answer is counted as a failed
// operation.

#include <gtest/gtest.h>

#include <filesystem>

#include "common.h"
#include "extractor/synthetic.h"
#include "fixture.h"
#include "response.h"
#include "instances.h"
#include "oracle.h"
#include "query/session.h"
#include "workloads.h"

namespace t5 {
namespace {

Config Tiny(const std::string& workload, bool trace) {
  Config c;
  c.workload = workload;
  c.seed = 7;
  c.seconds = 0.3;
  c.trace = trace;
  c.scale = 0.02;
  c.setup_reps = 1;
  c.search = 4;
  c.xref = 4;
  c.debug = 9;
  c.closure = 3;
  c.impact = 2;
  c.ingest_subsystems = 2;
  c.ingest_files = 3;
  c.ingest_functions = 4;
  c.workdir = (std::filesystem::current_path() /
               ("oracle_test_" + workload + (trace ? "_traced" : "")))
                  .string();
  return c;
}

class WorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadTest, EveryOracleAgreesWithTheProgram) {
  for (bool trace : {false, true}) {
    Report report = RunWorkload(Tiny(GetParam(), trace));
    ASSERT_EQ(report.error, "") << "trace=" << trace;
    EXPECT_GT(report.attempted, 0u) << "trace=" << trace;
    EXPECT_EQ(report.failed, 0u) << "trace=" << trace;
    EXPECT_FALSE(report.metrics.empty());
  }
}

TEST_P(WorkloadTest, CorruptedAnswersCountAsFailed) {
  Config config = Tiny(GetParam(), false);
  config.corrupt_answers = true;
  Report report = RunWorkload(config);
  ASSERT_EQ(report.error, "");
  EXPECT_GT(report.attempted, 0u);
  EXPECT_EQ(report.failed, report.attempted);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadTest,
                         ::testing::ValuesIn(WorkloadNames()));

TEST(IngestTest, OperationFailingBeforePublishCountsAsFailed) {
  // A one-function tree holds no call to draw an xref probe from, so every
  // timed ingest operation stops after extraction, before it publishes or
  // probes anything.
  Config config = Tiny("ingest_publish", false);
  config.ingest_subsystems = 1;
  config.ingest_files = 1;
  config.ingest_functions = 1;
  Report report = RunWorkload(config);
  ASSERT_EQ(report.error, "");
  EXPECT_GT(report.failed, 0u);
  EXPECT_LT(report.failed, report.attempted);  // set-up's checks pass
  EXPECT_FALSE(report.metrics.empty());
}

TEST(OracleTest, RowChecksRejectAlteredResults) {
  auto graph = GenerateKernel(0.02, 42);
  RefGraph ref(*graph);
  frappe::query::Session session(*graph);
  const frappe::query::Database& db = session.database();
  for (Cls cls : kFqlClasses) {
    auto drawn = DrawInstances(ref, cls, 2, 3, Design::kAny);
    ASSERT_TRUE(drawn.ok()) << ClassName(cls);
    for (const Instance& inst : *drawn) {
      Expected expected = Expect(ref, db, inst);
      auto result = session.Run(inst.text);
      ASSERT_TRUE(result.ok()) << inst.text;
      EXPECT_TRUE(CheckRows(expected, *result, db)) << inst.text;
      ASSERT_FALSE(result->rows.empty()) << inst.text;
      // Same count, one node swapped for another.
      frappe::query::QueryResult altered = *result;
      altered.rows[0][0] = frappe::query::ResultValue::Node(
          altered.rows[0][0].node == 0 ? 1 : 0);
      EXPECT_FALSE(CheckRows(expected, altered, db)) << inst.text;
      // One row duplicated in place of another.
      if (result->rows.size() > 1) {
        altered = *result;
        altered.rows.back() = altered.rows.front();
        EXPECT_FALSE(CheckRows(expected, altered, db)) << inst.text;
      }
    }
  }
}

TEST(OracleTest, ResponseDigestIsAnOrderFreeMultisetCheck) {
  Expected expected;
  expected.rows.Add(std::string("(#1:function a)"));
  expected.rows.Add(std::string("(#2:function b\"q\")"));
  const std::string ok =
      "{\"columns\": [\"m\"], \"rows\": [\n  [\"(#2:function b\\\"q\\\")\"],"
      "\n  [\"(#1:function a)\"]\n], \"stats\": {\"rows\": 2}}";
  EXPECT_TRUE(CheckResponseRows(expected, ok));
  const std::string dup =
      "{\"rows\": [\n  [\"(#1:function a)\"],\n  [\"(#1:function a)\"]\n]}";
  EXPECT_FALSE(CheckResponseRows(expected, dup));
  const std::string missing = "{\"rows\": [\n  [\"(#1:function a)\"]\n]}";
  EXPECT_FALSE(CheckResponseRows(expected, missing));
  EXPECT_FALSE(CheckResponseRows(expected, "{\"error\": \"x\"}"));
}

}  // namespace
}  // namespace t5
