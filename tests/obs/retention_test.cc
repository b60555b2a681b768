// The one bounded retention store (obs/query_record.h): capacity and
// oldest-first eviction shared by every retention reason, merge by trace
// id, the filtered /stats, /debug/statz and /debug/tracez views, and
// concurrent retains against live readers (run under TSan via the
// `parallel` ctest label).

#include "obs/query_record.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/http_listener.h"
#include "obs/stats_server.h"
#include "obs/trace.h"

namespace frappe::obs {
namespace {

RetainedQuery Entry(uint64_t trace_lo, uint32_t reasons) {
  RetainedQuery entry;
  entry.record.trace_hi = 1;
  entry.record.trace_lo = trace_lo;
  entry.record.ts_us = static_cast<int64_t>(trace_lo);
  entry.record.fingerprint = trace_lo;
  entry.record.query = "q" + std::to_string(trace_lo);
  entry.reasons = reasons;
  return entry;
}

CollectedSpan Span(const char* name, uint64_t span_id, uint64_t parent_id,
                   uint64_t start_us, uint64_t dur_us) {
  CollectedSpan span;
  span.name = name;
  span.span_id = span_id;
  span.parent_id = parent_id;
  span.start_us = start_us;
  span.dur_us = dur_us;
  return span;
}

TEST(RetentionStoreTest, KeepsTheMostRecentEntriesOldestFirst) {
  RetentionStore store;
  const uint64_t total = RetentionStore::kCapacity + 10;
  for (uint64_t i = 0; i < total; ++i) {
    store.Retain(Entry(/*trace_lo=*/i + 1, kRetainSlow));
  }
  std::vector<RetainedQuery> all = store.SnapshotAll();
  ASSERT_EQ(all.size(), RetentionStore::kCapacity);
  // Oldest-first: the first 10 were evicted.
  EXPECT_EQ(all.front().record.ts_us, 11);
  EXPECT_EQ(all.back().record.ts_us, static_cast<int64_t>(total));
  EXPECT_EQ(store.evicted(), 10u);
}

TEST(RetentionStoreTest, ZeroTraceIdIsNotRetained) {
  RetentionStore store;
  RetainedQuery entry = Entry(/*trace_lo=*/0, kRetainSlow);
  entry.record.trace_hi = 0;
  store.Retain(entry);
  EXPECT_EQ(store.size(), 0u);
}

TEST(RetentionStoreTest, RetainLookupMergeAndEvict) {
  RetentionStore store(/*capacity=*/2);
  RetainedQuery a = Entry(/*trace_lo=*/1, kRetainSlow);
  a.slow_threshold_ms = 5;
  store.Retain(a);
  RetainedQuery out;
  ASSERT_TRUE(store.Lookup(1, 1, &out));
  EXPECT_EQ(out.reasons, kRetainSlow);
  EXPECT_FALSE(store.Lookup(9, 9, &out));

  // The same trace id merges in place: reasons unite, the newer record
  // wins, the slow mark stays, and the span tree attaches.
  RetainedQuery b = Entry(/*trace_lo=*/1, kRetainError | kRetainRequested);
  b.record.status = "DeadlineExceeded";
  b.spans = {Span("server.request", 7, 0, 10, 20)};
  b.dropped_spans = 3;
  store.Retain(b);
  EXPECT_EQ(store.size(), 1u);
  ASSERT_TRUE(store.Lookup(1, 1, &out));
  EXPECT_EQ(out.reasons, kRetainSlow | kRetainError | kRetainRequested);
  EXPECT_EQ(RetainReasonsString(out.reasons), "slow,error,requested");
  EXPECT_EQ(out.record.status, "DeadlineExceeded");
  EXPECT_EQ(out.slow_threshold_ms, 5);
  ASSERT_EQ(out.spans.size(), 1u);
  EXPECT_EQ(out.dropped_spans, 3u);

  // A later retain without spans keeps the attached tree.
  store.Retain(Entry(/*trace_lo=*/1, kRetainMisestimate));
  ASSERT_TRUE(store.Lookup(1, 1, &out));
  EXPECT_EQ(out.spans.size(), 1u);
  EXPECT_NE(out.reasons & kRetainMisestimate, 0u);

  // Past capacity the oldest entry is evicted.
  store.Retain(Entry(/*trace_lo=*/2, kRetainSlow));
  store.Retain(Entry(/*trace_lo=*/3, kRetainSlow));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.evicted(), 1u);
  EXPECT_FALSE(store.Lookup(1, 1, &out));
  EXPECT_TRUE(store.Lookup(1, 2, &out));
  EXPECT_TRUE(store.Lookup(1, 3, &out));
}

TEST(RetentionStoreTest, ReasonsShareOneCapacity) {
  // A burst of misestimates pushes an older slow query out: every reason
  // draws on the same kCapacity entries.
  RetentionStore store;
  RetainedQuery slow = Entry(/*trace_lo=*/1, kRetainSlow);
  slow.slow_threshold_ms = 0;
  store.Retain(slow);
  EXPECT_NE(store.SlowQueriesJson().find("\"q1\""), std::string::npos);
  for (uint64_t i = 0; i < RetentionStore::kCapacity; ++i) {
    store.Retain(Entry(/*trace_lo=*/100 + i, kRetainMisestimate));
  }
  EXPECT_EQ(store.SlowQueriesJson(), "[]");
  EXPECT_EQ(store.size(), RetentionStore::kCapacity);
}

TEST(RetentionStoreTest, ViewsFilterTheOneStore) {
  RetentionStore store;
  // Slow by execution time (the session's mark).
  RetainedQuery exec_slow = Entry(/*trace_lo=*/1, kRetainSlow);
  exec_slow.record.latency_us = 5000;
  exec_slow.slow_threshold_ms = 5;
  store.Retain(exec_slow);
  // Slow only by whole-request latency (the server's mark): its execution
  // did not meet the threshold, so it has a span tree but is not a slow
  // query.
  RetainedQuery request_slow = Entry(/*trace_lo=*/2, kRetainSlow);
  request_slow.record.latency_us = 1000;
  request_slow.spans = {Span("server.request", 9, 0, 0, 6000)};
  store.Retain(request_slow);
  // A misestimate.
  RetainedQuery miss = Entry(/*trace_lo=*/3, kRetainMisestimate);
  miss.record.estimated = true;
  miss.record.est_rows = 2;
  miss.record.rows = 40;
  miss.record.qerror = 20;
  store.Retain(miss);

  std::string slow = store.SlowQueriesJson();
  EXPECT_NE(slow.find("\"query\": \"q1\""), std::string::npos) << slow;
  EXPECT_NE(slow.find("\"latency_ms\": 5.000"), std::string::npos) << slow;
  EXPECT_NE(slow.find("\"threshold_ms\": 5"), std::string::npos) << slow;
  EXPECT_EQ(slow.find("\"q2\""), std::string::npos) << slow;
  EXPECT_EQ(slow.find("\"q3\""), std::string::npos) << slow;

  std::string misestimates = store.MisestimatesJson();
  EXPECT_NE(misestimates.find("\"query\": \"q3\""), std::string::npos)
      << misestimates;
  EXPECT_NE(misestimates.find("\"trace_id\": \"" + TraceIdHex(1, 3) + "\""),
            std::string::npos)
      << misestimates;
  EXPECT_NE(misestimates.find("\"actual_rows\": 40"), std::string::npos)
      << misestimates;
  EXPECT_NE(misestimates.find("\"qerror\": 20.00"), std::string::npos)
      << misestimates;
  EXPECT_EQ(misestimates.find("\"q1\""), std::string::npos) << misestimates;

  // Only entries carrying a span tree are traces.
  std::string index = store.TracezIndexJson();
  EXPECT_NE(index.find("\"retained\": 1"), std::string::npos) << index;
  EXPECT_NE(index.find(TraceIdHex(1, 2)), std::string::npos) << index;
  EXPECT_NE(index.find("\"latency_ms\": 6.000"), std::string::npos) << index;
  EXPECT_EQ(index.find(TraceIdHex(1, 1)), std::string::npos) << index;
}

TEST(RetentionStoreTest, IndexAndTraceJsonCarryIdentity) {
  RetentionStore store;
  RetainedQuery t;
  t.record.trace_hi = 0x4bf92f3577b34da6ull;
  t.record.trace_lo = 0xa3ce929d0e0e4736ull;
  t.record.fingerprint = 0x0123456789abcdefull;
  t.reasons = kRetainRequested;
  t.spans = {Span("server.request", 7, 0, 10, 1500)};
  store.Retain(t);

  std::string index = store.TracezIndexJson();
  EXPECT_NE(index.find("\"retained\": 1"), std::string::npos) << index;
  EXPECT_NE(index.find("4bf92f3577b34da6a3ce929d0e0e4736"),
            std::string::npos)
      << index;
  EXPECT_NE(index.find("\"reason\": \"requested\""), std::string::npos)
      << index;
  EXPECT_NE(index.find("\"fingerprint\": \"0123456789abcdef\""),
            std::string::npos)
      << index;

  std::string tree = RetentionStore::TraceJson(t);
  EXPECT_NE(tree.find("\"traceEvents\""), std::string::npos) << tree;
  EXPECT_NE(tree.find("server.request"), std::string::npos) << tree;
  EXPECT_NE(tree.find("\"span_id\": \"0000000000000007\""),
            std::string::npos)
      << tree;
  EXPECT_NE(tree.find("4bf92f3577b34da6a3ce929d0e0e4736"),
            std::string::npos)
      << tree;
  EXPECT_NE(tree.find("\"latency_ms\": \"1.500\""), std::string::npos)
      << tree;
}

// 16 writers retain (fresh ids, merges into shared ids, span trees) while
// readers scrape /stats and /debug/tracez over HTTP. TSan checks the
// locking; the totals check that no retain was lost or double-counted.
TEST(RetentionStoreTest, ConcurrentRetainsWhileStatsAndTracezRead) {
  RetentionStore& store = RetentionStore::Global();
  store.Clear();
  auto server = StatsServer::Start();
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint16_t port = (*server)->port();

  constexpr int kWriters = 16;
  constexpr uint64_t kPerWriter = 40;
  std::atomic<bool> done{false};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (const char* target : {"/stats", "/debug/tracez"}) {
    readers.emplace_back([&, target] {
      while (!done.load(std::memory_order_relaxed)) {
        std::string response = HttpFetch(port, "GET", target);
        EXPECT_EQ(HttpStatusOf(response), 200) << target;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        // Odd steps merge into one of four shared ids; even steps add a
        // fresh entry with a span tree.
        const bool shared = i % 2 == 1;
        RetainedQuery entry = Entry(
            shared ? 1 + i % 4 : 1000 * static_cast<uint64_t>(w + 1) + i,
            shared ? kRetainMisestimate : kRetainSlow | kRetainRequested);
        entry.slow_threshold_ms = 0;
        if (!shared) entry.spans = {Span("server.request", i + 1, 0, 0, 10)};
        RetentionStore::Global().Retain(std::move(entry));
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  // Stop the readers only once they have scraped at least twice.
  while (reads.load(std::memory_order_relaxed) < 2) std::this_thread::yield();
  done.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  const uint64_t fresh = kWriters * kPerWriter / 2;
  const uint64_t distinct = fresh + 4;
  EXPECT_EQ(store.size(), RetentionStore::kCapacity);
  EXPECT_GE(store.evicted(), distinct - RetentionStore::kCapacity);
  std::string index =
      std::string(HttpBodyOf(HttpFetch(port, "GET", "/debug/tracez")));
  EXPECT_NE(index.find("\"traces\": ["), std::string::npos) << index;
  store.Clear();
}

}  // namespace
}  // namespace frappe::obs
