#ifndef FRAPPE_OBS_TRACE_H_
#define FRAPPE_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace frappe::obs {

// Request-scoped causal tracing for the query/analytics/extractor stack,
// exportable as Chrome trace-event JSON (open chrome://tracing or
// https://ui.perfetto.dev and load the file — parented spans render as a
// flame tree).
//
// Two collection paths share the same Span RAII type:
//   - the *global* path (Trace::Enable) appends every completed span to a
//     fixed-capacity per-thread ring, as before — the whole-process window
//     view served by /debug/tracez?ms=N;
//   - the *request* path installs a TraceScope carrying a TraceContext
//     (128-bit trace id) and a SpanCollector sink on the current thread;
//     every span completed under it is also appended to the sink with its
//     span id and parent id, building the per-request span tree that the
//     tail-sampling RetentionStore (obs/query_record.h) keeps for
//     slow/errored/shed queries.
//
// The fast path is the *disabled* path: a Span constructor is one relaxed
// atomic load, one thread-local load and a branch — no clock read, no
// allocation — cheap enough to leave in per-BFS-level and per-clause code
// permanently (bench_obs_overhead keeps this honest: < 5% executor overhead
// with tracing off).
//
// When collecting, completed spans are appended to the per-thread ring
// (oldest events overwritten), each ring guarded by its own mutex so a
// concurrent ExportJson is race-free (TSan-clean). Span names must be
// string literals (they are stored as const char*).

// W3C trace-context identity: a 128-bit trace id plus the id of the span
// that is "current" on this context (the parent for any span started under
// it). A zero trace id means "no trace".
struct TraceContext {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t span_id = 0;  // current span; parent of children started under it

  bool valid() const { return (trace_hi | trace_lo) != 0; }
};

// Parses a W3C `traceparent` header value:
//   00-<32 lowercase hex trace id>-<16 hex parent span id>-<2 hex flags>
// Returns nullopt for anything malformed (wrong length, bad hex, version
// "ff", all-zero trace id or span id) — callers fall back to a fresh
// context, never an error. The returned context's span_id is the remote
// parent span id.
std::optional<TraceContext> ParseTraceparent(std::string_view header);

// "00-<trace id hex>-<span id hex>-01" for the given context.
std::string FormatTraceparent(const TraceContext& ctx);

// 32 lowercase hex chars of the 128-bit trace id.
std::string TraceIdHex(uint64_t trace_hi, uint64_t trace_lo);
inline std::string TraceIdHex(const TraceContext& ctx) {
  return TraceIdHex(ctx.trace_hi, ctx.trace_lo);
}

// 16 lowercase hex chars of a span id.
std::string SpanIdHex(uint64_t span_id);

// Parses 32 lowercase-or-uppercase hex chars into a 128-bit trace id.
bool ParseTraceIdHex(std::string_view hex, uint64_t* hi, uint64_t* lo);

// A fresh context with a random non-zero 128-bit trace id and span_id 0
// (no parent yet).
TraceContext GenerateTraceContext();

struct TraceEvent {
  const char* name = nullptr;  // static string
  uint32_t tid = 0;            // sequential thread number, not the OS tid
  uint64_t start_us = 0;       // microseconds since the process trace epoch
  uint64_t dur_us = 0;
  // Causal identity; zero when recorded outside any span tree.
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
};

// One completed span captured into a per-request SpanCollector.
struct CollectedSpan {
  const char* name = nullptr;  // static string
  uint32_t tid = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root of this request's tree
  uint64_t start_us = 0;   // Trace::NowMicros timebase
  uint64_t dur_us = 0;
};

// Bounded per-request span sink. One collector per in-flight request;
// worker, session and kernel spans append under their own per-collector
// mutex (cold path — only taken when a request is actually being traced).
class SpanCollector {
 public:
  static constexpr size_t kDefaultCapacity = 512;

  explicit SpanCollector(size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  void Add(const CollectedSpan& span) {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    spans_.push_back(span);
  }

  std::vector<CollectedSpan> TakeSpans() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<CollectedSpan> out;
    out.swap(spans_);
    return out;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<CollectedSpan> spans_;
  size_t capacity_;
  uint64_t dropped_ = 0;
};

class Trace {
 public:
  // Capacity of each thread's ring. Exceeding it drops the oldest events
  // (the export notes how many were dropped).
  static constexpr size_t kRingCapacity = 16384;

  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  static void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  // Drops every buffered event (rings stay allocated).
  static void Clear();

  // Total buffered events across all thread rings.
  static size_t EventCount();
  // Events overwritten by ring wrap-around since the last Clear.
  static uint64_t DroppedCount();

  // Chrome trace-event JSON: {"traceEvents": [{"name", "ph": "X", "pid",
  // "tid", "ts", "dur", "args": {trace_id, span_id, parent_id}}, ...]}.
  // Safe to call while other threads trace.
  static std::string ExportJson();
  static Status ExportJsonToFile(const std::string& path);

  // Microseconds since the process trace epoch (first use).
  static uint64_t NowMicros();

  // --- request-scoped context (thread-local; see TraceScope) ---

  // True when a TraceScope is installed on this thread.
  static bool HasRequestContext();
  // This thread's installed context (trace id + the span that new spans
  // will parent under). Zero-valued when none installed.
  static TraceContext CurrentContext();
  // The queue-wait attributed to this thread's current request, as set by
  // TraceScope (0 outside a server request).
  static uint64_t CurrentQueueWaitUs();
  // This thread's request sink, or nullptr.
  static SpanCollector* CurrentSink();

  // Process-unique non-zero span id (thread tag + local counter).
  static uint64_t NextSpanId();

  // Appends a completed span for the calling thread: to the global ring
  // when tracing is enabled, and to the thread's request sink when one is
  // installed. Public for Span; call sites should use FRAPPE_TRACE_SPAN.
  static void RecordSpan(const char* name, uint64_t span_id,
                         uint64_t parent_id, uint64_t start_us,
                         uint64_t dur_us);

  // Makes `span_id` the current parent on this thread and returns the
  // previous one. Public for Span.
  static uint64_t PushSpan(uint64_t span_id);
  static void PopSpan(uint64_t previous_span_id);

 private:
  friend class TraceScope;
  static std::atomic<bool> enabled_;
};

// RAII installation of a request trace context on the current thread: all
// spans started while it is alive parent under `ctx.span_id`, carry the
// 128-bit trace id, and (when `sink` is non-null) are appended to the
// per-request collector in addition to the global rings. Restores the
// previous thread state on destruction, so scopes nest.
class TraceScope {
 public:
  TraceScope(const TraceContext& ctx, SpanCollector* sink,
             uint64_t queue_wait_us = 0);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext saved_ctx_;
  SpanCollector* saved_sink_ = nullptr;
  uint64_t saved_queue_wait_us_ = 0;
};

// RAII span: measures construction-to-destruction and records it under
// `name` (a string literal) if tracing was enabled — globally or via a
// request TraceScope — at construction. While alive it is the parent of
// any span started on the same thread.
class Span {
 public:
  explicit Span(const char* name) {
    if (Trace::enabled() || Trace::HasRequestContext()) {
      name_ = name;
      start_us_ = Trace::NowMicros();
      span_id_ = Trace::NextSpanId();
      parent_id_ = Trace::PushSpan(span_id_);
    }
  }
  ~Span() {
    if (name_ != nullptr) {
      Trace::PopSpan(parent_id_);
      Trace::RecordSpan(name_, span_id_, parent_id_, start_us_,
                        Trace::NowMicros() - start_us_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t span_id() const { return span_id_; }

 private:
  const char* name_ = nullptr;
  uint64_t start_us_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_id_ = 0;
};

#define FRAPPE_TRACE_CONCAT_(a, b) a##b
#define FRAPPE_TRACE_CONCAT(a, b) FRAPPE_TRACE_CONCAT_(a, b)
// Usage: FRAPPE_TRACE_SPAN("query.execute");
#define FRAPPE_TRACE_SPAN(name) \
  ::frappe::obs::Span FRAPPE_TRACE_CONCAT(frappe_trace_span_, __LINE__)(name)

}  // namespace frappe::obs

#endif  // FRAPPE_OBS_TRACE_H_
