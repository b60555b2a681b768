#include "query/session.h"

#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"
#include "graph/stats_catalog.h"
#include "obs/fingerprint.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/query_record.h"
#include "obs/query_registry.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "query/estimator.h"
#include "query/explain.h"
#include "query/parser.h"

namespace frappe::query {

namespace {

std::function<void(const std::string&)>& SlowQuerySink() {
  static std::function<void(const std::string&)>* sink =
      new std::function<void(const std::string&)>();  // never destroyed
  return *sink;
}

void EmitSlowQueryLog(const std::string& message) {
  if (SlowQuerySink()) {
    SlowQuerySink()(message);
  } else {
    std::fputs(message.c_str(), stderr);
  }
}

// Estimates are on unless FRAPPE_ESTIMATOR=off. Read per call (same
// contract as the slow-query threshold): operators can flip it live, and
// the A/B overhead bench toggles it between arms.
bool EstimatorDisabled() {
  const char* env = std::getenv("FRAPPE_ESTIMATOR");
  return env != nullptr && std::string_view(env) == "off";
}

// ANALYZE: rebuilds the cardinality stats catalog from the live graph and
// swaps it into the shared cache, so every reader of this database (and
// the next \save) gets fresh estimates. `exec_us` receives the build time.
Result<QueryResult> RunAnalyze(const Database& db, uint64_t* exec_us) {
  FRAPPE_TRACE_SPAN("session.analyze");
  static obs::Counter& builds =
      obs::Registry::Global().GetCounter("catalog.builds");
  static obs::Histogram& build_us =
      obs::Registry::Global().GetHistogram("catalog.build_us");
  if (db.view == nullptr || db.stats == nullptr) {
    return Status::FailedPrecondition(
        "ANALYZE needs a graph-backed database with a stats cache");
  }
  const uint64_t build_start = obs::Trace::NowMicros();
  graph::StatsCatalog catalog =
      graph::BuildStatsCatalog(*db.view, db.name_index);
  *exec_us = obs::Trace::NowMicros() - build_start;
  builds.Add();
  build_us.Record(*exec_us);
  obs::Registry::Global().GetGauge("catalog.nodes").Set(
      static_cast<int64_t>(catalog.node_count));
  obs::Registry::Global().GetGauge("catalog.edges").Set(
      static_cast<int64_t>(catalog.edge_count));
  obs::Registry::Global().GetGauge("catalog.bytes").Set(
      static_cast<int64_t>(catalog.ByteSize()));

  QueryResult result;
  result.columns = {"nodes",      "edges", "node_types", "edge_types",
                    "hub_count",  "index_fields", "catalog_bytes"};
  result.rows.push_back(
      {ResultValue::Scalar(graph::Value::Int(
           static_cast<int64_t>(catalog.node_count))),
       ResultValue::Scalar(graph::Value::Int(
           static_cast<int64_t>(catalog.edge_count))),
       ResultValue::Scalar(graph::Value::Int(
           static_cast<int64_t>(catalog.node_types.size()))),
       ResultValue::Scalar(graph::Value::Int(
           static_cast<int64_t>(catalog.edge_types.size()))),
       ResultValue::Scalar(
           graph::Value::Int(static_cast<int64_t>(catalog.hubs.size()))),
       ResultValue::Scalar(graph::Value::Int(
           static_cast<int64_t>(catalog.index_fields.size()))),
       ResultValue::Scalar(graph::Value::Int(
           static_cast<int64_t>(catalog.ByteSize())))});
  db.stats->Set(std::move(catalog));
  return result;
}

}  // namespace

void SetSlowQueryLogSinkForTesting(
    std::function<void(const std::string&)> sink) {
  SlowQuerySink() = std::move(sink);
}

Database MakeFrappeDatabase(const graph::GraphView& view,
                            const model::Schema& schema,
                            const graph::NameIndex* name_index,
                            const graph::LabelIndex* label_index) {
  Database db;
  db.view = &view;
  db.name_index = name_index;
  db.label_index = label_index;
  db.display_name_key = schema.key(model::PropKey::kShortName);
  db.resolve_label = [&view, schema](std::string_view label) {
    std::vector<graph::TypeId> out;
    // Group labels (Table 6: symbol / type / container) expand to their
    // member node types.
    model::NodeGroup group = model::NodeGroupFromName(label);
    if (group != model::NodeGroup::kCount) {
      for (model::NodeKind kind : model::GroupMembers(group)) {
        out.push_back(schema.node_type(kind));
      }
      return out;
    }
    graph::TypeId id = view.node_types().Find(ToLower(label));
    if (id != graph::kInvalidType) out.push_back(id);
    return out;
  };
  db.resolve_edge_type =
      [&view, schema](std::string_view name) -> std::optional<graph::TypeId> {
    // Edge groups (link / preprocessor / containment / reference) are not
    // expressible as a single type id; resolve concrete types only. (FQL
    // alternation `-[:a|b|c]->` covers the grouped case.)
    graph::TypeId id = view.edge_types().Find(ToLower(name));
    if (id == graph::kInvalidType) return std::nullopt;
    return id;
  };
  db.resolve_property =
      [&view](std::string_view name) -> std::optional<graph::KeyId> {
    graph::KeyId id =
        view.keys().Find(model::CanonicalPropertyName(name));
    if (id == graph::kInvalidKey) return std::nullopt;
    return id;
  };
  db.csr = std::make_shared<graph::CsrCache>();
  db.stats = std::make_shared<graph::StatsCatalogCache>();
  return db;
}

Session::Session(const model::CodeGraph& code_graph)
    : code_graph_(code_graph),
      name_index_(code_graph.BuildNameIndex()),
      label_index_(graph::LabelIndex::Build(code_graph.view())),
      db_(MakeFrappeDatabase(code_graph.view(), code_graph.schema(),
                             &name_index_, &label_index_)) {}

Result<std::unique_ptr<SnapshotSession>> SnapshotSession::Open(
    const std::string& path, const graph::SnapshotManager::Options& options) {
  FRAPPE_TRACE_SPAN("session.open_snapshot");
  graph::SnapshotManager manager(path, options);
  FRAPPE_ASSIGN_OR_RETURN(graph::SnapshotManager::Loaded loaded,
                          manager.Load());
  // `new` rather than make_unique: the constructor is private.
  std::unique_ptr<SnapshotSession> session(new SnapshotSession());
  session->store_ = std::move(loaded.snapshot.store);
  session->warnings_ = std::move(loaded.snapshot.warnings);
  session->generation_ = loaded.generation;
  session->loaded_path_ = std::move(loaded.path);
  if (loaded.snapshot.index.has_value()) {
    session->name_index_ = std::move(*loaded.snapshot.index);
  } else {
    // Index-less snapshot (or one whose index section was dropped as
    // unrecoverable): build the standard Frappé auto-index fields.
    model::CodeGraph scratch;
    session->name_index_ =
        graph::NameIndex::Build(*session->store_, scratch.IndexFields());
  }
  session->label_index_ = graph::LabelIndex::Build(*session->store_);
  session->schema_ = model::Schema::Install(session->store_.get());
  session->db_ =
      MakeFrappeDatabase(*session->store_, session->schema_,
                         &session->name_index_, &session->label_index_);
  if (loaded.snapshot.catalog.has_value()) {
    // The snapshot carried a verified stats catalog — the estimator is
    // warm from the first query, no ANALYZE needed.
    session->db_.stats->Set(std::move(*loaded.snapshot.catalog));
  }
  return session;
}

Result<QueryResult> Session::Run(std::string_view query_text,
                                 const ExecOptions& options) const {
  return RunQuery(db_, query_text, options);
}

Result<QueryResult> RunQuery(const Database& db, std::string_view query_text,
                             const ExecOptions& options,
                             obs::QueryRecord* record_out) {
  FRAPPE_TRACE_SPAN("session.run");
  static obs::Counter& queries =
      obs::Registry::Global().GetCounter("session.queries");
  static obs::Counter& slow_queries =
      obs::Registry::Global().GetCounter("session.slow_queries");
  static obs::Counter& misestimates =
      obs::Registry::Global().GetCounter("plan.misestimates");
  queries.Add();

  // Resource attribution for the whole call: the scope publishes the
  // tracker through TLS, so the allocation seam, the executor's budget
  // poll, and the analytics lanes all charge this query. The budget itself
  // comes from FRAPPE_QUERY_MEM_BYTES (0 = unlimited).
  obs::ResourceTracker resources;
  resources.set_budget_bytes(obs::QueryMemBudgetBytes());
  obs::ResourceScope resource_scope(&resources);

  // The workload identity of this query: literals stripped, case folded,
  // hashed. Computed up front so parse failures aggregate by shape too.
  obs::NormalizedQuery normalized = obs::NormalizeQuery(query_text);

  // Trace identity: adopt the request context the query server installed
  // via TraceScope, or mint a fresh id for direct callers (shell, replay,
  // tests) so the query log, /stats and the retention store still carry a
  // joinable trace id. Minting does NOT activate span collection — the
  // disabled-span fast path stays one atomic + one TLS load.
  obs::TraceContext trace = obs::Trace::CurrentContext();
  if (!trace.valid()) trace = obs::GenerateTraceContext();
  Timeline timeline;
  timeline.queue_us = obs::Trace::CurrentQueueWaitUs();

  // Active-query registry: this query is visible on /debug/queryz (and
  // cancellable) for the whole call; the RAII handle removes the entry on
  // every exit path — parse failure, EXPLAIN, success, or abort.
  obs::QueryRegistry::Handle active = obs::QueryRegistry::Global().Register(
      normalized.fingerprint, normalized.text, std::string(query_text),
      options.cancel, trace.trace_hi, trace.trace_lo, timeline.queue_us);

  // Every exit of the query proper returns from this lambda, so exactly
  // one QueryRecord is built below whatever happened.
  Query query;
  bool executed = false;  // reached Execute (a plain query or PROFILE)
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    {
      FRAPPE_TRACE_SPAN("session.parse");
      const uint64_t parse_start = obs::Trace::NowMicros();
      Result<Query> parsed = Parse(query_text);
      timeline.parse_us = obs::Trace::NowMicros() - parse_start;
      if (!parsed.ok()) return parsed.status();
      query = std::move(*parsed);
    }
    if (query.mode == QueryMode::kExplain) {
      FRAPPE_TRACE_SPAN("session.plan");
      const uint64_t plan_start = obs::Trace::NowMicros();
      QueryResult explained;
      FRAPPE_ASSIGN_OR_RETURN(explained.plan, Explain(db, query));
      timeline.plan_us = obs::Trace::NowMicros() - plan_start;
      return explained;
    }
    if (query.mode == QueryMode::kAnalyze) {
      return RunAnalyze(db, &timeline.exec_us);
    }

    ExecOptions exec_options = options;
    if (query.mode == QueryMode::kProfile) exec_options.profile = true;
    if (active.entry() != nullptr) {
      // The registry's token aliases the caller's when one was supplied,
      // so both /debug/cancel and the caller can trip the same switch.
      exec_options.cancel = active.entry()->cancel_token;
      if (exec_options.progress == nullptr) {
        exec_options.progress = &active.entry()->progress;
      }
    }
    executed = true;
    const uint64_t exec_start = obs::Trace::NowMicros();
    Result<QueryResult> run = [&] {
      FRAPPE_TRACE_SPAN("session.execute");
      return Execute(db, query, exec_options);
    }();
    timeline.exec_us = obs::Trace::NowMicros() - exec_start;
    if (run.ok() && query.mode == QueryMode::kProfile) {
      FRAPPE_TRACE_SPAN("session.plan");
      const uint64_t plan_start = obs::Trace::NowMicros();
      FRAPPE_ASSIGN_OR_RETURN(run->plan, ProfilePlan(db, query, run->stats));
      timeline.plan_us = obs::Trace::NowMicros() - plan_start;
    }
    return run;
  }();

  // Flush this thread's CPU delta so the totals include the parse, plan,
  // and execute work just done (lane CPU already landed via
  // ResourceLaneScope).
  resource_scope.SyncCpu();
  obs::QueryRecord record;
  record.ts_us = obs::NowUnixMicros();
  record.fingerprint = normalized.fingerprint;
  record.trace_hi = trace.trace_hi;
  record.trace_lo = trace.trace_lo;
  record.query = std::move(normalized.text);
  record.latency_us = timeline.exec_us;
  record.queue_us = timeline.queue_us;
  record.parse_us = timeline.parse_us;
  record.plan_us = timeline.plan_us;
  record.exec_us = timeline.exec_us;
  record.cpu_us = resources.cpu_us();
  record.alloc_bytes = resources.alloc_bytes();
  record.peak_bytes = resources.peak_bytes();
  if (result.ok()) {
    ExecStats& stats = result->stats;
    record.rows = result->rows.size();
    record.db_hits = stats.db_hits.Total();
    record.fast_path = stats.fast_path_taken;
    stats.timeline = timeline;
    stats.cpu_us = record.cpu_us;
    stats.alloc_bytes = record.alloc_bytes;
    stats.peak_bytes = record.peak_bytes;
    // scanned_bytes was filled by the executor.
  } else {
    record.status = StatusCodeName(result.status().code());
  }

  // Estimate-vs-actual instrumentation: compare the planner's final-row
  // estimate against what the execution produced. The q-error feeds the
  // histogram and the per-fingerprint worst case; crossing
  // FRAPPE_MISESTIMATE_QERROR also retains the query and warn-logs it.
  uint32_t reasons = 0;
  if (executed && result.ok() && !EstimatorDisabled()) {
    record.estimated = true;
    record.est_rows = EstimateQuery(db, query).final_rows;
    record.qerror =
        QError(record.est_rows, static_cast<double>(record.rows));
    const double qerror_threshold = obs::MisestimateQErrorThreshold();
    if (qerror_threshold > 0.0 && record.qerror >= qerror_threshold) {
      reasons |= obs::kRetainMisestimate;
      misestimates.Add();
      char detail[160];
      std::snprintf(detail, sizeof(detail),
                    "plan misestimate q=%.2f (est=%.1f actual=%llu) fp=",
                    record.qerror, record.est_rows,
                    static_cast<unsigned long long>(record.rows));
      obs::LogWarn("planner", detail + obs::FingerprintHex(record.fingerprint) +
                                  ": " + record.query);
    }
  }

  // Slow-query log: fires for successes and budget breaches alike — the
  // aborted Figure 6 run is exactly the query an operator wants logged.
  // Identified by fingerprint + normalized text (not the raw query):
  // that's the key the /stats fingerprint table and the query log use, so
  // the three views join on `fp` — and literals stay out of the log.
  const int64_t threshold_ms = executed ? obs::SlowQueryThresholdMs() : -1;
  if (threshold_ms >= 0 &&
      record.latency_us >= static_cast<uint64_t>(threshold_ms) * 1000) {
    reasons |= obs::kRetainSlow;
    slow_queries.Add();
    std::string message =
        "[frappe] slow query (" +
        std::to_string(static_cast<double>(record.latency_us) / 1000.0) +
        " ms >= " + std::to_string(threshold_ms) +
        " ms) fp=" + obs::FingerprintHex(record.fingerprint) +
        " trace=" + obs::TraceIdHex(trace) + ": " + record.query + "\n";
    if (result.ok() && !result->plan.empty()) {
      message += result->plan;
    } else if (Result<std::string> plan = Explain(db, query); plan.ok()) {
      message += *plan;
    }
    if (!result.ok()) {
      message += "status: " + result.status().ToString() + "\n";
    }
    EmitSlowQueryLog(message);
  }

  // The verbatim text is only copied when something keeps it.
  if (reasons != 0 || obs::QueryLog::Global().enabled()) {
    record.raw = std::string(query_text);
  }
  obs::RecordWorkloadTelemetry(record);
  if (reasons != 0) {
    obs::RetainedQuery entry;
    entry.record = record;
    entry.reasons = reasons;
    if (reasons & obs::kRetainSlow) entry.slow_threshold_ms = threshold_ms;
    obs::RetentionStore::Global().Retain(std::move(entry));
  }
  if (record_out != nullptr) *record_out = std::move(record);
  return result;
}

}  // namespace frappe::query
