#ifndef FRAPPE_SERVER_QUERY_SERVER_H_
#define FRAPPE_SERVER_QUERY_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/http_listener.h"
#include "server/admission.h"
#include "server/epoch.h"

namespace frappe::server {

// The concurrent query front door: FQL over HTTP, served by a fixed worker
// pool behind an explicit admission controller, reading epoch-pinned
// snapshots.
//
//   POST /query     body = FQL text; ?deadline_ms=N&max_steps=N optional
//                   (&fast_path=0 forces the generic executor — a debug
//                   knob for plan comparison and slow-query tests).
//                   200 -> {"columns": [...], "rows": [[...]], "stats":
//                   {...}, "epoch": N, "trace_id": "<32 hex>",
//                   "timeline": {queue_us, parse_us, plan_us, exec_us,
//                   serialize_us, total_us}}. Errors map: parse/bad
//                   request 400, deadline 408, step or memory budget 413,
//                   shed 429 (+ Retry-After), cancelled 499,
//                   draining/no-epoch 503, internal 500.
//
// Request tracing: a W3C `traceparent` request header is adopted (the
// response echoes the same trace id; the client's span id becomes the
// server root span's parent) or a fresh trace id is minted — malformed
// headers fall back to minting, never 4xx. Every worker-side response
// carries a `traceparent` response header. Span trees for slow / errored /
// cancelled / shed / explicitly-traced requests are retained in the
// obs::RetentionStore, merged with the session's record of the same query
// and served by /debug/tracez?trace_id=<id>.
//   GET  /healthz   liveness ("ok")
//   GET  /readyz    readiness (obs::Readiness: draining/overloaded 503)
//
// Concurrency model: the accept thread parses one request and makes an
// admission decision — queue it or shed it — and never executes queries.
// Workers pop, check the queue deadline (expired requests get 408, not an
// execution slot), pin the current epoch, and run the query with a
// per-request deadline and a per-worker cancel token that the query
// registry aliases (so /debug/cancel, the stuck-query watchdog, and
// graceful drain all trip the same switch).
//
// Snapshot isolation: a writer publishing epochs through the EpochManager
// never perturbs running queries — each query holds a shared_ptr to the
// epoch it started on, and old epochs are reclaimed when their last reader
// departs.
//
// Graceful drain (Stop): stop accepting; answer still-queued requests 503;
// trip every worker's cancel token so stragglers return kCancelled (499);
// join the pool; flush the query log.
class QueryServer {
 public:
  struct Options {
    uint16_t port = 0;  // 0 = kernel-assigned; port() tells which
    std::string bind_address = "127.0.0.1";
    // SO_RCVTIMEO/SO_SNDTIMEO + overall request-read deadline per
    // connection (see obs::HttpListener).
    int socket_timeout_ms = 5000;
    size_t workers = 4;
    AdmissionConfig admission;
    // Per-request execution deadline when the client didn't pass
    // ?deadline_ms. Client values are clamped to max_deadline_ms.
    int64_t default_deadline_ms = 10000;
    int64_t max_deadline_ms = 60000;
    // Default step budget (0 = unlimited); client ?max_steps clamps to
    // max_steps_limit when that is nonzero.
    uint64_t default_max_steps = 0;
    uint64_t max_steps_limit = 0;
  };

  // Binds, listens, and starts the worker pool. `epochs` must outlive the
  // server; it may be empty (queries answer 503 until the first Publish).
  static Result<std::unique_ptr<QueryServer>> Start(Options options,
                                                    EpochManager* epochs);

  ~QueryServer();
  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  uint16_t port() const { return listener_ ? listener_->port() : 0; }
  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  // Graceful drain; idempotent and safe to call concurrently with traffic.
  void Stop();

 private:
  explicit QueryServer(Options options, EpochManager* epochs);

  void HandleConnection(obs::HttpConnection conn);
  void WorkerLoop(size_t worker_index);
  obs::HttpResponse ExecuteQuery(const AdmissionQueue::Item& item,
                                 uint64_t queue_wait_us,
                                 size_t worker_index);

  Options options_;
  EpochManager* epochs_;
  AdmissionQueue queue_;
  std::unique_ptr<obs::HttpListener> listener_;
  // One cancel token per worker, heap-pinned so the registry can alias
  // them; Stop() trips them all to cancel stragglers.
  std::vector<std::unique_ptr<std::atomic<bool>>> worker_cancel_;
  std::vector<std::thread> workers_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace frappe::server

#endif  // FRAPPE_SERVER_QUERY_SERVER_H_
