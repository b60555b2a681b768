#ifndef FRAPPE_OBS_QUERY_RECORD_H_
#define FRAPPE_OBS_QUERY_RECORD_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace frappe::obs {

// What one query's telemetry is. RunQuery builds exactly one QueryRecord
// per call, on every exit (parse error, EXPLAIN, ANALYZE, PROFILE, plain
// execution, budget breach), and every consumer reads that one record:
//   - the per-fingerprint stats table and the process histograms
//     (RecordWorkloadTelemetry, below);
//   - the structured query log (obs/query_log.h: one JSONL line each,
//     keys as in ToJsonLine);
//   - the retention store (RetentionStore, below), which keeps the
//     outliers — slow, failed, shed, misestimated or client-traced —
//     together with their span trees.
// Building one allocates nothing beyond what the query already owns: the
// normalized text moves in, the trace id is two integers, and `raw` is
// only copied when the record is logged or retained.
struct QueryRecord {
  int64_t ts_us = 0;          // unix epoch microseconds at completion
  uint64_t fingerprint = 0;   // obs::Fingerprint64 of `query`
  uint64_t trace_hi = 0;      // 128-bit trace id; 0/0 = unknown
  uint64_t trace_lo = 0;
  std::string query;          // normalized text (literals stripped)
  std::string raw;            // the executed text verbatim — what replay runs
  std::string status = "ok";  // "ok" or a StatusCode name
  uint64_t latency_us = 0;    // execution time (0 for parse errors, EXPLAIN)
  uint64_t rows = 0;
  uint64_t db_hits = 0;
  bool fast_path = false;
  // Latency attribution (the per-query Timeline): where the time went.
  // queue_us is 0 for queries that never crossed the server's admission
  // queue (shell, replay, tests).
  uint64_t queue_us = 0;
  uint64_t parse_us = 0;
  uint64_t plan_us = 0;
  uint64_t exec_us = 0;
  // Resource attribution (obs/resource.h): thread-CPU across all threads
  // the query touched, bytes allocated, and the live-heap high-water mark.
  uint64_t cpu_us = 0;
  uint64_t alloc_bytes = 0;
  uint64_t peak_bytes = 0;
  // Estimate vs actual, when the estimator ran (executed queries with
  // FRAPPE_ESTIMATOR not "off").
  bool estimated = false;
  double est_rows = 0.0;
  double qerror = 0.0;

  bool ok() const { return status == "ok"; }
};

// Unix epoch microseconds: the ts_us timebase.
int64_t NowUnixMicros();

// Feeds one finished query into the always-on aggregates: its fingerprint's
// QueryStats entry (looked up once), the process-wide latency / CPU /
// allocation / peak histograms (trace-id exemplars pinned, so a /metrics
// outlier names its trace), the q-error histogram when estimated, and the
// structured query log when it is enabled. Never blocks on I/O.
void RecordWorkloadTelemetry(const QueryRecord& record);

// The per-query knobs, each parsed strictly by exactly one function and
// read per call (so operators and tests can flip them with setenv). A
// malformed value counts as unset.
//   FRAPPE_SLOW_QUERY_MS       integer >= 0; -1 when unset.
//   FRAPPE_MISESTIMATE_QERROR  number > 0;   -1 when unset.
//   FRAPPE_QUERY_MEM_BYTES     integer > 0;   0 (unlimited) when unset.
int64_t SlowQueryThresholdMs();
double MisestimateQErrorThreshold();
uint64_t QueryMemBudgetBytes();

// Why a query was retained. An entry carries the union of every reason any
// retain of its trace id gave it.
enum RetainReason : uint32_t {
  kRetainSlow = 1u << 0,         // met FRAPPE_SLOW_QUERY_MS
  kRetainError = 1u << 1,        // failed (any status but Cancelled)
  kRetainCancelled = 1u << 2,    // cancelled mid-flight
  kRetainShed = 1u << 3,         // refused at admission (429)
  kRetainMisestimate = 1u << 4,  // q-error met FRAPPE_MISESTIMATE_QERROR
  kRetainRequested = 1u << 5,    // the client sent a traceparent
};

// "slow,misestimate,requested": the set's names joined by ',', in the enum
// order above.
std::string RetainReasonsString(uint32_t reasons);

// One retained query: its record, why it was kept, and — for server
// requests — the span tree.
struct RetainedQuery {
  QueryRecord record;
  uint32_t reasons = 0;
  // FRAPPE_SLOW_QUERY_MS when the execution itself met it (the /stats
  // slow_queries rule); -1 when not, e.g. when only the whole server
  // request was slow.
  int64_t slow_threshold_ms = -1;
  std::vector<CollectedSpan> spans;  // empty: no span tree attached
  uint64_t dropped_spans = 0;
};

// The single bounded store for outlier queries, keyed by trace id: one
// mutex, a fixed capacity shared by every reason, oldest evicted first.
// Retention is a cold path (slow, failed, shed, misestimated or traced
// queries only) and reads come from the stats server, so a mutex and a
// linear scan over at most kCapacity entries are enough. The /stats,
// /debug/statz and /debug/tracez outlier views are filtered renderings of
// this one store.
class RetentionStore {
 public:
  static constexpr size_t kCapacity = 128;

  static RetentionStore& Global();

  explicit RetentionStore(size_t capacity = kCapacity)
      : capacity_(capacity) {}

  // Keeps `entry` under its record's trace id (an all-zero id is ignored).
  // A second retain with the same id merges into the existing entry in
  // place: reasons unite, the newer record replaces the older, and a
  // non-empty span tree replaces the older one. A new id appends, evicting
  // the oldest entry when the store is full.
  void Retain(RetainedQuery entry);

  bool Lookup(uint64_t trace_hi, uint64_t trace_lo, RetainedQuery* out) const;

  // Oldest-first copy of every entry.
  std::vector<RetainedQuery> SnapshotAll() const;

  // /stats "slow_queries": entries whose execution time met the threshold
  // in force when they ran (slow_threshold_ms >= 0), oldest first:
  // [{ts_us, fp, trace_id, query, latency_ms, threshold_ms, status}, ...].
  std::string SlowQueriesJson() const;

  // /stats and /debug/statz "misestimates", oldest first:
  // [{ts_us, fp, trace_id, query, est_rows, actual_rows, qerror}, ...].
  std::string MisestimatesJson() const;

  // /debug/tracez index: the entries that carry a span tree, newest first:
  // {"retained": N, "evicted": M, "traces": [{trace_id, reason, status,
  //  fingerprint, ts_us, latency_ms, spans}, ...]}. latency_ms is the
  // span tree's root duration (the whole request, queue to serialization).
  std::string TracezIndexJson() const;

  // /debug/tracez?trace_id=: one entry's span tree as Chrome trace-event
  // JSON, span/parent ids in args and the entry's identity in otherData.
  static std::string TraceJson(const RetainedQuery& entry);

  size_t size() const;
  uint64_t evicted() const;
  void Clear();

  // Approximate heap footprint (entries, their strings and span vectors),
  // reported by /debug/memz under "trace_store".
  uint64_t ApproxBytes() const;

 private:
  size_t capacity_;
  mutable std::mutex mu_;
  std::deque<RetainedQuery> entries_;  // oldest at front
  uint64_t evicted_ = 0;
};

}  // namespace frappe::obs

#endif  // FRAPPE_OBS_QUERY_RECORD_H_
