#include "obs/query_record.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/string_util.h"
#include "obs/fingerprint.h"
#include "obs/metrics.h"
#include "obs/query_log.h"

namespace frappe::obs {

namespace {

Counter& RetainedCounter() {
  static Counter& c = Registry::Global().GetCounter("tracestore.retained");
  return c;
}
Counter& EvictedCounter() {
  static Counter& c = Registry::Global().GetCounter("tracestore.evicted");
  return c;
}

// The environment value of `name`, or nullptr when unset or empty.
const char* EnvValue(const char* name) {
  const char* env = std::getenv(name);
  return env == nullptr || *env == '\0' ? nullptr : env;
}

std::string Fixed(const char* format, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

// The span tree's root duration: the root spans every other span, so it is
// the longest one.
uint64_t TreeDurationUs(const std::vector<CollectedSpan>& spans) {
  uint64_t longest = 0;
  for (const CollectedSpan& span : spans) {
    longest = std::max(longest, span.dur_us);
  }
  return longest;
}

}  // namespace

int64_t NowUnixMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void RecordWorkloadTelemetry(const QueryRecord& record) {
  QueryStats::Global()
      .GetOrCreate(record.fingerprint, record.query)
      .Record(record);
  // Process-wide histograms with the trace id pinned per bucket, so a
  // /metrics p99 (or CPU / allocation) outlier links straight to a trace.
  static Histogram& latency_hist =
      Registry::Global().GetHistogram("query.latency_us");
  static Histogram& cpu_hist = Registry::Global().GetHistogram("query.cpu_us");
  static Histogram& alloc_hist =
      Registry::Global().GetHistogram("query.alloc_bytes");
  static Histogram& peak_hist =
      Registry::Global().GetHistogram("query.peak_bytes");
  latency_hist.RecordWithExemplar(record.latency_us, record.trace_hi,
                                  record.trace_lo);
  cpu_hist.RecordWithExemplar(record.cpu_us, record.trace_hi, record.trace_lo);
  alloc_hist.RecordWithExemplar(record.alloc_bytes, record.trace_hi,
                                record.trace_lo);
  peak_hist.RecordWithExemplar(record.peak_bytes, record.trace_hi,
                               record.trace_lo);
  if (record.estimated) {
    static Histogram& qerror_hist =
        Registry::Global().GetHistogram("plan.qerror_x100");
    qerror_hist.Record(static_cast<uint64_t>(record.qerror * 100.0));
  }
  QueryLog& qlog = QueryLog::Global();
  if (qlog.enabled()) qlog.Record(record);
}

int64_t SlowQueryThresholdMs() {
  const char* env = EnvValue("FRAPPE_SLOW_QUERY_MS");
  int64_t value = 0;
  if (env == nullptr || !ParseInt64(env, &value) || value < 0) return -1;
  return value;
}

double MisestimateQErrorThreshold() {
  const char* env = EnvValue("FRAPPE_MISESTIMATE_QERROR");
  if (env == nullptr) return -1.0;
  char* end = nullptr;
  double value = std::strtod(env, &end);
  if (*end != '\0' || !std::isfinite(value) || value <= 0.0) return -1.0;
  return value;
}

uint64_t QueryMemBudgetBytes() {
  const char* env = EnvValue("FRAPPE_QUERY_MEM_BYTES");
  int64_t value = 0;
  if (env == nullptr || !ParseInt64(env, &value) || value <= 0) return 0;
  return static_cast<uint64_t>(value);
}

std::string RetainReasonsString(uint32_t reasons) {
  static constexpr std::pair<RetainReason, const char*> kNames[] = {
      {kRetainSlow, "slow"},         {kRetainError, "error"},
      {kRetainCancelled, "cancelled"}, {kRetainShed, "shed"},
      {kRetainMisestimate, "misestimate"}, {kRetainRequested, "requested"}};
  std::string out;
  for (const auto& [bit, name] : kNames) {
    if ((reasons & bit) == 0) continue;
    if (!out.empty()) out += ',';
    out += name;
  }
  return out;
}

// ---------------------------------------------------------------------------
// RetentionStore

RetentionStore& RetentionStore::Global() {
  static RetentionStore* store = new RetentionStore();  // never destroyed
  return *store;
}

void RetentionStore::Retain(RetainedQuery entry) {
  const QueryRecord& record = entry.record;
  if ((record.trace_hi | record.trace_lo) == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (RetainedQuery& existing : entries_) {
    if (existing.record.trace_hi != record.trace_hi ||
        existing.record.trace_lo != record.trace_lo) {
      continue;
    }
    existing.reasons |= entry.reasons;
    if (entry.slow_threshold_ms >= 0) {
      existing.slow_threshold_ms = entry.slow_threshold_ms;
    }
    existing.record = std::move(entry.record);
    if (!entry.spans.empty()) {
      existing.spans = std::move(entry.spans);
      existing.dropped_spans = entry.dropped_spans;
    }
    return;
  }
  if (entries_.size() >= capacity_) {
    entries_.pop_front();
    ++evicted_;
    EvictedCounter().Add();
  }
  entries_.push_back(std::move(entry));
  RetainedCounter().Add();
}

bool RetentionStore::Lookup(uint64_t trace_hi, uint64_t trace_lo,
                            RetainedQuery* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const RetainedQuery& entry : entries_) {
    if (entry.record.trace_hi == trace_hi &&
        entry.record.trace_lo == trace_lo) {
      *out = entry;
      return true;
    }
  }
  return false;
}

std::vector<RetainedQuery> RetentionStore::SnapshotAll() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {entries_.begin(), entries_.end()};
}

std::string RetentionStore::SlowQueriesJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "[";
  bool first = true;
  for (const RetainedQuery& entry : entries_) {
    const QueryRecord& r = entry.record;
    if (entry.slow_threshold_ms < 0) continue;
    out += std::string(first ? "" : ",") + "\n    {\"ts_us\": " +
           std::to_string(r.ts_us) +
           ", \"fp\": " + JsonQuote(FingerprintHex(r.fingerprint)) +
           ", \"trace_id\": " + JsonQuote(TraceIdHex(r.trace_hi, r.trace_lo)) +
           ", \"query\": " + JsonQuote(r.query) + ", \"latency_ms\": " +
           Fixed("%.3f", static_cast<double>(r.latency_us) / 1000.0) +
           ", \"threshold_ms\": " + std::to_string(entry.slow_threshold_ms) +
           ", \"status\": " + JsonQuote(r.status) + "}";
    first = false;
  }
  out += first ? "]" : "\n  ]";
  return out;
}

std::string RetentionStore::MisestimatesJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "[";
  bool first = true;
  for (const RetainedQuery& entry : entries_) {
    if ((entry.reasons & kRetainMisestimate) == 0) continue;
    const QueryRecord& r = entry.record;
    out += std::string(first ? "" : ",") + "\n    {\"ts_us\": " +
           std::to_string(r.ts_us) +
           ", \"fp\": " + JsonQuote(FingerprintHex(r.fingerprint)) +
           ", \"trace_id\": " + JsonQuote(TraceIdHex(r.trace_hi, r.trace_lo)) +
           ", \"query\": " + JsonQuote(r.query) +
           ", \"est_rows\": " + Fixed("%.1f", r.est_rows) +
           ", \"actual_rows\": " + std::to_string(r.rows) +
           ", \"qerror\": " + Fixed("%.2f", r.qerror) + "}";
    first = false;
  }
  out += first ? "]" : "\n  ]";
  return out;
}

std::string RetentionStore::TracezIndexJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string traces;
  size_t listed = 0;
  // Newest first: the most recent tail event is what an operator wants.
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->spans.empty()) continue;
    const QueryRecord& r = it->record;
    traces += std::string(listed == 0 ? "" : ",") + "\n  {\"trace_id\": \"" +
              TraceIdHex(r.trace_hi, r.trace_lo) + "\", \"reason\": " +
              JsonQuote(RetainReasonsString(it->reasons)) +
              ", \"status\": " + JsonQuote(r.status) +
              ", \"fingerprint\": " + JsonQuote(FingerprintHex(r.fingerprint)) +
              ", \"ts_us\": " + std::to_string(r.ts_us) + ", \"latency_ms\": " +
              Fixed("%.3f", static_cast<double>(TreeDurationUs(it->spans)) /
                                1000.0) +
              ", \"spans\": " + std::to_string(it->spans.size()) + "}";
    ++listed;
  }
  return "{\"retained\": " + std::to_string(listed) +
         ", \"evicted\": " + std::to_string(evicted_) + ", \"traces\": [" +
         traces + (listed == 0 ? "]}\n" : "\n]}\n");
}

std::string RetentionStore::TraceJson(const RetainedQuery& entry) {
  std::vector<CollectedSpan> spans = entry.spans;
  std::stable_sort(spans.begin(), spans.end(),
                   [](const CollectedSpan& a, const CollectedSpan& b) {
                     return a.start_us < b.start_us;
                   });
  const QueryRecord& r = entry.record;
  std::string trace_id = TraceIdHex(r.trace_hi, r.trace_lo);
  std::string out = "{\"traceEvents\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const CollectedSpan& s = spans[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"name\": \"%s\", \"cat\": \"frappe\", "
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                  "\"ts\": %llu, \"dur\": %llu",
                  i == 0 ? "" : ",", s.name, s.tid,
                  static_cast<unsigned long long>(s.start_us),
                  static_cast<unsigned long long>(s.dur_us));
    out += buf;
    out += ", \"args\": {\"trace_id\": \"" + trace_id + "\", \"span_id\": \"" +
           SpanIdHex(s.span_id) + "\", \"parent_id\": \"" +
           SpanIdHex(s.parent_id) + "\"}}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"trace_id\": \"" +
         trace_id + "\", \"reason\": \"" + RetainReasonsString(entry.reasons) +
         "\", \"status\": " + JsonQuote(r.status) + ", \"fingerprint\": \"" +
         FingerprintHex(r.fingerprint) + "\", \"latency_ms\": \"" +
         Fixed("%.3f",
               static_cast<double>(TreeDurationUs(entry.spans)) / 1000.0) +
         "\", \"dropped_spans\": \"" + std::to_string(entry.dropped_spans) +
         "\"}}\n";
  return out;
}

size_t RetentionStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

uint64_t RetentionStore::evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

void RetentionStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  evicted_ = 0;
}

uint64_t RetentionStore::ApproxBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t bytes = 0;
  for (const RetainedQuery& entry : entries_) {
    bytes += sizeof(RetainedQuery) + entry.record.query.capacity() +
             entry.record.raw.capacity() + entry.record.status.capacity() +
             entry.spans.capacity() * sizeof(CollectedSpan);
  }
  return bytes;
}

}  // namespace frappe::obs
