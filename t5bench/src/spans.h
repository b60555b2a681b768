#ifndef T5BENCH_SPANS_H_
#define T5BENCH_SPANS_H_

// Benchmark-side tracing: one span around each call the benchmark makes
// into a layer of the system (name, start, end, parent span, operation
// id). Spans live in memory while the run lasts and are written out once
// at exit. When tracing is off a Span only reads the clock, so the same
// code path measures the untraced end-to-end numbers.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace t5 {

struct SpanRecord {
  std::string name;  // "<layer>.<call>", e.g. "graph.snapshot_save"
  std::string tag;   // use-case class or path ("ingest", "kernel"), or ""
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t op = 0;      // operation the span belongs to (0 = set-up/probe)
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  std::string layer() const { return name.substr(0, name.find('.')); }
};

class Tracer {
 public:
  static Tracer& Global();

  uint64_t NextId();
  void Add(SpanRecord span);
  std::vector<SpanRecord> Snapshot() const;

  // Durations (ms) of every span with this name (and tag, when non-empty).
  std::vector<double> Durations(const std::string& name,
                                const std::string& tag = "") const;

  // Self time per layer, in ms: each span's duration minus the part of
  // its interval covered by its child spans, summed over the layer.
  std::map<std::string, double> SelfMsByLayer() const;

  // Writes every span as one JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  uint64_t next_id_ = 1;           // guarded by mu_
};

// Per-thread recording switch, off by default: each client thread of a
// run decides for itself which of its operations are traced.
void SetThreadTracing(bool on);
bool ThreadTracing();

// Times one call. The duration is always measured (callers use it for
// their own latency samples); a span is recorded only while tracing is on
// for the calling thread. Spans nest per thread: a Span opened while
// another is live on the same thread becomes its child.
class Span {
 public:
  Span(std::string name, std::string tag = "", uint64_t op = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Ends the span now (idempotent) and returns its duration in ms.
  double End();

 private:
  SpanRecord record_;
  Clock::time_point start_;
  double ms_ = -1.0;
  bool recording_ = false;
  uint64_t saved_parent_ = 0;
};

}  // namespace t5

#endif  // T5BENCH_SPANS_H_
