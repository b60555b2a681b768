#include "obs/fingerprint.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace frappe::obs {
namespace {

// ---------------------------------------------------------------------------
// Normalization: the query's *shape* survives, its parameters don't.

TEST(NormalizeQueryTest, CollapsesWhitespaceAndCase) {
  EXPECT_EQ(NormalizeQuery("MATCH   (f:Function)\n\tRETURN f").text,
            "match(f:function)return f");
}

TEST(NormalizeQueryTest, StripsComments) {
  EXPECT_EQ(NormalizeQuery("MATCH (f) // find everything\nRETURN f").text,
            "match(f)return f");
}

TEST(NormalizeQueryTest, NumericLiteralsBecomePlaceholders) {
  EXPECT_EQ(NormalizeQuery("WHERE f.line > 100 AND f.col < 2.5").text,
            "where f.line > ? and f.col < ?");
}

TEST(NormalizeQueryTest, RangeStaysFusedNextToInts) {
  // `1..3` must not lex as the float `1.` — the lexer rule the normalizer
  // mirrors only consumes '.' when a digit follows.
  EXPECT_EQ(NormalizeQuery("-[:calls*1..3]->").text, "-[:calls*?..?]->");
}

TEST(NormalizeQueryTest, StringLiteralsBecomePlaceholders) {
  EXPECT_EQ(NormalizeQuery("MATCH (n {name: 'vfs_read'}) RETURN n").text,
            "match(n{name:?})return n");
}

TEST(NormalizeQueryTest, IndexLookupStringsKeepTheField) {
  // The Figure 6 START shape: the index field is part of the query shape,
  // the looked-up value is a parameter.
  EXPECT_EQ(
      NormalizeQuery("START n=node:node_auto_index('short_name: cmd')"
                     " MATCH n RETURN n")
          .text,
      "start n = node:node_auto_index('short_name: ?')match n return n");
}

TEST(NormalizeQueryTest, SameShapeDifferentLiteralsSameFingerprint) {
  auto a = NormalizeQuery(
      "START n=node:node_auto_index('short_name: sr_do_ioctl') RETURN n");
  auto b = NormalizeQuery(
      "START n=node:node_auto_index('short_name: vfs_read') RETURN n");
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(NormalizeQueryTest, DifferentIndexFieldsDifferentFingerprint) {
  auto a = NormalizeQuery("START n=node:node_auto_index('short_name: x')");
  auto b = NormalizeQuery("START n=node:node_auto_index('name: x')");
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

TEST(NormalizeQueryTest, DifferentShapesDifferentFingerprint) {
  EXPECT_NE(NormalizeQuery("MATCH (f:function) RETURN f").fingerprint,
            NormalizeQuery("MATCH (f:struct) RETURN f").fingerprint);
}

TEST(NormalizeQueryTest, FingerprintIsStableAcrossRuns) {
  // FNV-1a over the normalized text: pin one value so an accidental change
  // to the hash or the normalizer shows up as a diff, not silent drift
  // (fingerprints are persisted in query logs — they must not change
  // between builds).
  EXPECT_EQ(Fingerprint64("match(f:function)return f"),
            NormalizeQuery("MATCH (f:function) RETURN f").fingerprint);
  EXPECT_EQ(Fingerprint64(""), 14695981039346656037ull);  // FNV offset basis
}

TEST(NormalizeQueryTest, FingerprintHexIsFixedWidthLowerCase) {
  EXPECT_EQ(FingerprintHex(0), "0000000000000000");
  EXPECT_EQ(FingerprintHex(0xABCDEF0123456789ull), "abcdef0123456789");
}

// ---------------------------------------------------------------------------
// QueryStats: the per-fingerprint table.

class QueryStatsTest : public ::testing::Test {
 protected:
  void SetUp() override { QueryStats::Global().ResetForTesting(); }
  void TearDown() override { QueryStats::Global().ResetForTesting(); }
};

// A finished query as the session would record it.
QueryRecord Finished(bool ok, uint64_t latency_us, uint64_t rows,
                     uint64_t db_hits) {
  QueryRecord record;
  record.status = ok ? "ok" : "DeadlineExceeded";
  record.latency_us = latency_us;
  record.rows = rows;
  record.db_hits = db_hits;
  return record;
}

TEST_F(QueryStatsTest, RecordsAccumulate) {
  auto& entry = QueryStats::Global().GetOrCreate(42, "match(f)return f");
  QueryRecord first = Finished(/*ok=*/true, /*latency_us=*/100, /*rows=*/7,
                               /*db_hits=*/50);
  first.queue_us = 1;
  first.parse_us = 2;
  first.plan_us = 3;
  first.exec_us = 94;
  first.cpu_us = 80;
  first.alloc_bytes = 4096;
  first.peak_bytes = 1024;
  first.estimated = true;
  first.qerror = 2.5;
  entry.Record(first);
  QueryRecord second = Finished(/*ok=*/false, /*latency_us=*/300,
                                /*rows=*/0, /*db_hits=*/10);
  second.exec_us = 300;
  second.cpu_us = 20;
  second.alloc_bytes = 100;
  second.peak_bytes = 512;
  entry.Record(second);
  auto all = QueryStats::Global().SnapshotAll();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].fingerprint, 42u);
  EXPECT_EQ(all[0].normalized, "match(f)return f");
  EXPECT_EQ(all[0].calls, 2u);
  EXPECT_EQ(all[0].errors, 1u);
  EXPECT_EQ(all[0].total_latency_us, 400u);
  EXPECT_EQ(all[0].max_latency_us, 300u);
  EXPECT_EQ(all[0].rows, 7u);
  EXPECT_EQ(all[0].db_hits, 60u);
  EXPECT_EQ(all[0].latency.count, 2u);
  // The timeline and resource totals sum; peak and q-error keep the worst.
  EXPECT_EQ(all[0].queue_us_total, 1u);
  EXPECT_EQ(all[0].parse_us_total, 2u);
  EXPECT_EQ(all[0].plan_us_total, 3u);
  EXPECT_EQ(all[0].exec_us_total, 394u);
  EXPECT_EQ(all[0].cpu_us_total, 100u);
  EXPECT_EQ(all[0].alloc_bytes_total, 4196u);
  EXPECT_EQ(all[0].peak_bytes_max, 1024u);
  EXPECT_EQ(all[0].worst_qerror_x100, 250u);
}

TEST_F(QueryStatsTest, GetOrCreateInternsOnce) {
  auto& a = QueryStats::Global().GetOrCreate(7, "q");
  auto& b = QueryStats::Global().GetOrCreate(7, "q");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(QueryStats::Global().size(), 1u);
}

TEST_F(QueryStatsTest, TopOrdersByTotalLatencyAndCalls) {
  QueryStats::Global().GetOrCreate(1, "cheap").Record(
      Finished(true, 10, 1, 1));
  QueryStats::Global().GetOrCreate(1, "cheap").Record(
      Finished(true, 10, 1, 1));
  QueryStats::Global().GetOrCreate(1, "cheap").Record(
      Finished(true, 10, 1, 1));
  QueryStats::Global().GetOrCreate(2, "expensive").Record(
      Finished(true, 900, 1, 1));

  auto by_latency = QueryStats::Global().Top(1, QueryStats::Order::kTotalLatency);
  ASSERT_EQ(by_latency.size(), 1u);
  EXPECT_EQ(by_latency[0].fingerprint, 2u);

  auto by_calls = QueryStats::Global().Top(1, QueryStats::Order::kCalls);
  ASSERT_EQ(by_calls.size(), 1u);
  EXPECT_EQ(by_calls[0].fingerprint, 1u);
}

TEST_F(QueryStatsTest, DumpJsonContainsTheEntry) {
  QueryStats::Global()
      .GetOrCreate(0xABCD, "match(f)return f")
      .Record(Finished(true, 250, 3, 42));
  std::string json = QueryStats::Global().DumpJson();
  EXPECT_NE(json.find("\"fp\": \"000000000000abcd\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"calls\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"db_hits\": 42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_latency_us\""), std::string::npos) << json;
}

// The satellite requirement: N threads x M fingerprints, exact totals
// after quiesce (run under TSan via the `parallel` ctest label).
TEST_F(QueryStatsTest, ConcurrentRecordsAreExactAfterQuiesce) {
  constexpr int kThreads = 8;
  constexpr int kFingerprints = 16;
  constexpr int kIters = 2000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kIters; ++i) {
        uint64_t fp = static_cast<uint64_t>((t + i) % kFingerprints) + 1;
        QueryStats::Global()
            .GetOrCreate(fp, "shape")
            .Record(Finished(/*ok=*/i % 10 != 0, /*latency_us=*/1,
                             /*rows=*/2, /*db_hits=*/3));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  auto all = QueryStats::Global().SnapshotAll();
  EXPECT_EQ(all.size(), static_cast<size_t>(kFingerprints));
  uint64_t calls = 0, errors = 0, latency = 0, rows = 0, hits = 0,
           histogram_count = 0;
  for (const auto& s : all) {
    calls += s.calls;
    errors += s.errors;
    latency += s.total_latency_us;
    rows += s.rows;
    hits += s.db_hits;
    histogram_count += s.latency.count;
  }
  constexpr uint64_t kTotal = uint64_t{kThreads} * kIters;
  EXPECT_EQ(calls, kTotal);
  EXPECT_EQ(errors, kTotal / 10);  // every 10th record is an error
  EXPECT_EQ(latency, kTotal);
  EXPECT_EQ(rows, 2 * kTotal);
  EXPECT_EQ(hits, 3 * kTotal);
  EXPECT_EQ(histogram_count, kTotal);
}

}  // namespace
}  // namespace frappe::obs
