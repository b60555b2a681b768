#include "workloads.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>

#include "analysis/slicing.h"
#include "extractor/build_model.h"
#include "extractor/synthetic.h"
#include "extractor/vfs.h"
#include "fixture.h"
#include "graph/analytics.h"
#include "graph/snapshot.h"
#include "graph/snapshot_manager.h"
#include "graph/traversal.h"
#include "response.h"
#include "instances.h"
#include "obs/http_listener.h"
#include "oracle.h"
#include "query/parser.h"
#include "query/session.h"
#include "server/epoch.h"
#include "server/query_server.h"
#include "spans.h"

namespace t5 {

namespace {

namespace fg = frappe::graph;
namespace fq = frappe::query;
namespace fs = frappe::server;
namespace fm = frappe::model;
using frappe::Result;
using frappe::Status;

// The tail percentile of each workload is fixed; the timed phase runs for
// the configured time and, on a host too slow to reach `min_ops` in it,
// until it has that many operations, so that at least 10 samples always
// lie beyond the percentile.
struct Spec {
  const char* name;
  double tail_percentile;
  uint64_t min_ops;
};
// Seed of the synthetic kernel and of the ingested C trees.
constexpr uint64_t kGeneratorSeed = 42;

// warm_usecases runs some 700 operations, but its tail stops at p95: the
// few samples beyond p98 belong to a handful of the heaviest Fig. 5
// instances, and move with the seed and the host far more than the code.
constexpr Spec kSpecs[] = {
    {"warm_usecases", 95, 200},
    {"cold_open", 50, 20},
    {"serve_mix", 99, 1000},
    {"ingest_publish", 75, 40},
};

// Fewest whole rounds warm_usecases runs over its instances.
constexpr uint64_t kWarmRounds = 3;

constexpr int kServeClients = 4;
// serve_mix's requests per class in every 21. The weights are an
// assumption, not a measurement: the repository holds no recorded IDE
// query log and no published share of these use cases in IDE traffic was
// found. They only encode the expected order: go-to-definition and search
// most, some whole-closure views, rare debugging queries, and an
// occasional in-process impact slice on the served epoch.
constexpr std::pair<Cls, size_t> kServeWeights[] = {
    {Cls::kXref, 10}, {Cls::kSearch, 6}, {Cls::kClosure, 3},
    {Cls::kDebug, 1}, {Cls::kImpact, 1}};

// Instances per class run once at the end of set-up: enough to build every
// lazy structure (CSR, reverse CSR) and fault in the working set.
// Must cover a forward and a reverse closure (see DrawClosure).
constexpr size_t kSetupWarmInstances = 2;
// Operations per class the trace-mode layer probe runs.
constexpr size_t kProbeInstances = 3;

int Index(Cls cls) { return static_cast<int>(cls); }

// One sequence holding `n` items (cls, 0..n-1) of every (cls, n) in
// `counts`, each class spread evenly through it: item j of a class with n
// items sits at fraction (j + 0.5) / n of the sequence.
std::vector<std::pair<Cls, size_t>> Interleave(
    std::span<const std::pair<Cls, size_t>> counts) {
  std::vector<std::tuple<double, size_t, size_t>> keyed;
  for (size_t k = 0; k < counts.size(); ++k) {
    const size_t n = counts[k].second;
    for (size_t j = 0; j < n; ++j) {
      const double position =
          (static_cast<double>(j) + 0.5) / static_cast<double>(n);
      keyed.emplace_back(position, k, j);
    }
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<std::pair<Cls, size_t>> out;
  for (const auto& [position, k, j] : keyed) {
    out.emplace_back(counts[k].first, j);
  }
  return out;
}

// Latency samples (ms) and outcome counts.
struct Tally {
  std::vector<double> by_class[kClassCount];
  // warm_usecases and serve_mix: untraced samples by [class][instance],
  // which UseInstanceMedians turns into the class samples.
  std::vector<std::vector<double>> by_instance[kClassCount];
  std::vector<double> all;  // every timed operation, for the tail
  std::vector<double> cold_first_row, ingest_first_row;
  // cold_open: the open part of every operation; by_class then holds the
  // query part.
  std::vector<double> open_ms;
  // Trace-mode latencies by [traced][class], for the tracing overhead.
  std::vector<double> overhead[2][kClassCount];
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t timed_ok = 0;

  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void AddInstanceSample(Cls cls, size_t i, double ms) {
    std::vector<std::vector<double>>& v = by_instance[Index(cls)];
    if (v.size() <= i) v.resize(i + 1);
    v[i].push_back(ms);
  }
  // Makes each class's samples one per instance that ran: its median. A
  // class median then weighs every instance the same, however often it ran
  // (clients of different speed, a partial last round), and a slow spell
  // of the host that covers one of its runs does not move it.
  void UseInstanceMedians() {
    for (int c = 0; c < kClassCount; ++c) {
      by_class[c].clear();
      for (const std::vector<double>& v : by_instance[c]) {
        if (!v.empty()) by_class[c].push_back(Median(v));
      }
    }
  }
  void Merge(const Tally& o) {
    for (int c = 0; c < kClassCount; ++c) {
      by_class[c].insert(by_class[c].end(), o.by_class[c].begin(),
                         o.by_class[c].end());
      if (by_instance[c].size() < o.by_instance[c].size()) {
        by_instance[c].resize(o.by_instance[c].size());
      }
      for (size_t i = 0; i < o.by_instance[c].size(); ++i) {
        by_instance[c][i].insert(by_instance[c][i].end(),
                                 o.by_instance[c][i].begin(),
                                 o.by_instance[c][i].end());
      }
      for (int t = 0; t < 2; ++t) {
        overhead[t][c].insert(overhead[t][c].end(), o.overhead[t][c].begin(),
                              o.overhead[t][c].end());
      }
    }
    all.insert(all.end(), o.all.begin(), o.all.end());
    cold_first_row.insert(cold_first_row.end(), o.cold_first_row.begin(),
                          o.cold_first_row.end());
    open_ms.insert(open_ms.end(), o.open_ms.begin(), o.open_ms.end());
    ingest_first_row.insert(ingest_first_row.end(), o.ingest_first_row.begin(),
                            o.ingest_first_row.end());
    attempted += o.attempted;
    failed += o.failed;
    timed_ok += o.timed_ok;
  }
};

// Per-layer samples, by metric name.
struct Layers {
  std::map<std::string, std::vector<double>> samples;
  void Add(const std::string& name, double v) { samples[name].push_back(v); }
  void Merge(const Layers& o) {
    for (const auto& [k, v] : o.samples) {
      samples[k].insert(samples[k].end(), v.begin(), v.end());
    }
  }
  double Median(const std::string& name) const {
    auto it = samples.find(name);
    return it == samples.end() ? 0.0 : t5::Median(it->second);
  }
  double Sum(const std::string& name) const {
    auto it = samples.find(name);
    double s = 0;
    if (it != samples.end()) {
      for (double v : it->second) s += v;
    }
    return s;
  }
};

// Where an in-process operation runs.
struct Target {
  const fq::Database* db = nullptr;
  const fg::GraphView* view = nullptr;
  const fm::Schema* schema = nullptr;
};

Target TargetOf(const fq::SnapshotSession& s) {
  return {&s.database(), &s.view(), &s.schema()};
}
Target TargetOf(const fs::Epoch& e) {
  return {&e.db, &e.view(), e.snapshot != nullptr ? &e.snapshot->schema()
                                                  : &e.schema};
}

void Corrupt(fq::QueryResult* result) {
  if (result->rows.empty()) {
    result->rows.push_back({fq::ResultValue::Node(0)});
  } else {
    result->rows.pop_back();
  }
}

void Corrupt(std::vector<NodeId>* nodes) {
  if (nodes->empty()) {
    nodes->push_back(0);
  } else {
    nodes->pop_back();
  }
}

// One run's state: instances, their expected answers, the current kernel
// snapshot and everything measured.
struct Bed {
  explicit Bed(const Config& c) : cfg(c) {}
  const Config& cfg;
  std::vector<Instance> inst[kClassCount];
  std::vector<Expected> expect[kClassCount];
  // (direct, writer, reachable) of every debug instance, for the
  // graph.reachable_ms probe.
  std::vector<std::tuple<NodeId, NodeId, bool>> reach_pairs;
  std::string snapshot;
  std::vector<double> setup_s;
  Tally tally;
  Layers layers;
  double timed_wall_s = 0;
  // ru_maxrss at the end of set-up, and whether the peak-RSS mark was
  // reset there (see BeginTimedPhase).
  double setup_peak_rss_mb = 0;
  bool peak_rss_reset = false;
  std::atomic<uint64_t> next_op{1};

  int Count(Cls cls) const {
    switch (cls) {
      case Cls::kSearch: return cfg.search;
      case Cls::kXref: return cfg.xref;
      case Cls::kDebug: return cfg.debug;
      case Cls::kClosure: return cfg.closure;
      case Cls::kImpact: return cfg.impact;
    }
    return 0;
  }
};

// Draws every class's instances from the generated kernel and computes
// their expected answers, spread over a few threads.
Status ComputeOracles(Bed& bed, const fm::CodeGraph& graph) {
  RefGraph ref(graph);
  for (Cls cls : kAllClasses) {
    FRAPPE_ASSIGN_OR_RETURN(
        bed.inst[Index(cls)],
        DrawInstances(ref, cls, bed.Count(cls), bed.cfg.seed, Design::kKernel));
    bed.expect[Index(cls)].resize(bed.inst[Index(cls)].size());
  }
  fq::Database render = fq::MakeFrappeDatabase(graph.view(), graph.schema(),
                                               nullptr, nullptr);
  std::vector<std::pair<int, size_t>> work;
  for (Cls cls : kAllClasses) {
    for (size_t i = 0; i < bed.inst[Index(cls)].size(); ++i) {
      work.emplace_back(Index(cls), i);
    }
  }
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t w = next++; w < work.size(); w = next++) {
      auto [c, i] = work[w];
      bed.expect[c][i] = Expect(ref, render, bed.inst[c][i]);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  if (!bed.cfg.trace) return Status::OK();
  // Reachability pairs of the probed debug instances, for the layer probe.
  const fg::EdgeFilter calls =
      fg::EdgeFilter::Of({graph.schema().edge_type(EdgeKind::kCalls)});
  const std::vector<Instance>& debug = bed.inst[Index(Cls::kDebug)];
  for (size_t i = 0; i < std::min(kProbeInstances, debug.size()); ++i) {
    for (auto [direct, writer] : DebugReachPairs(ref, debug[i])) {
      if (direct == writer) continue;
      bed.reach_pairs.emplace_back(
          direct, writer,
          fg::IsReachable(graph.store(), direct, writer, calls));
    }
  }
  return Status::OK();
}

// Runs instance `i` of `cls` in process on `t` and checks the answer.
// Returns the latency in ms; the check is off the clock.
double RunInProcess(const Bed& bed, Cls cls, size_t i, const Target& t,
                    bool* ok) {
  const Instance& inst = bed.inst[Index(cls)][i];
  const Expected& expected = bed.expect[Index(cls)][i];
  if (cls == Cls::kImpact) {
    Span all("analysis.impact", ClassName(cls));
    std::vector<NodeId> forward, backward;
    {
      Span s("analysis.forward_slice");
      forward =
          frappe::analysis::ForwardSlice(*t.view, *t.schema, inst.function);
    }
    {
      Span s("analysis.backward_slice");
      backward =
          frappe::analysis::BackwardSlice(*t.view, *t.schema, inst.function);
    }
    double ms = all.End();
    if (bed.cfg.corrupt_answers) Corrupt(&forward);
    *ok = CheckSlices(expected, std::move(forward), std::move(backward));
    return ms;
  }
  Span s("query.run", ClassName(cls));
  Result<fq::QueryResult> result = fq::RunQuery(*t.db, inst.text);
  double ms = s.End();
  if (result.ok() && bed.cfg.corrupt_answers) Corrupt(&*result);
  *ok = result.ok() && CheckRows(expected, *result, *t.db);
  return ms;
}

// One request to the query server; records server-side layer samples from
// the response into `layers`.
double RunHttp(const Bed& bed, Cls cls, size_t i, uint16_t port, bool* ok,
               Layers* layers) {
  const Instance& inst = bed.inst[Index(cls)][i];
  Span s("server.request", ClassName(cls));
  std::string raw = frappe::obs::HttpFetch(port, "POST", "/query", inst.text,
                                           /*timeout_ms=*/60000);
  double ms = s.End();
  std::string_view body = frappe::obs::HttpBodyOf(raw);
  std::string corrupted;
  if (bed.cfg.corrupt_answers) {
    corrupted = body;
    size_t pos = corrupted.find("\"rows\": [");
    if (pos != std::string::npos) corrupted.insert(pos + 9, "[\"corrupt\"], ");
    body = corrupted;
  }
  *ok = frappe::obs::HttpStatusOf(raw) == 200 &&
        CheckResponseRows(bed.expect[Index(cls)][i], body);
  std::string c = ClassName(cls);
  layers->Add("server.request_ms." + c, ms);
  layers->Add("server.response_bytes." + c, static_cast<double>(body.size()));
  for (const char* phase :
       {"queue_us", "parse_us", "plan_us", "exec_us", "serialize_us"}) {
    int64_t v = JsonInt(body, phase);
    if (v >= 0) {
      layers->Add(std::string("server.") + phase, static_cast<double>(v));
    }
  }
  return ms;
}

// Set-up clock that can step off for oracle work.
struct SetupClock {
  Clock::time_point start = Clock::now();
  double paused_ms = 0;
  double ElapsedMs() const { return MsSince(start) - paused_ms; }
};

// Common head of every set-up repetition: generate the kernel, draw the
// instances and compute the oracles (first repetition only, off the
// clock), and save the snapshot into this repetition's directory.
Status PrepareKernel(Bed& bed, int rep, SetupClock* clock) {
  std::unique_ptr<fm::CodeGraph> graph;
  {
    Span s("extractor.generate_kernel");
    graph = GenerateKernel(bed.cfg.scale, kGeneratorSeed);
  }
  if (rep == 0) {
    Clock::time_point t = Clock::now();
    FRAPPE_RETURN_IF_ERROR(ComputeOracles(bed, *graph));
    clock->paused_ms += MsSince(t);
  }
  std::string dir = bed.cfg.workdir + "/rep" + std::to_string(rep);
  if (!MakeDirs(dir)) return Status::Internal("cannot create " + dir);
  bed.snapshot = dir + "/kernel.fsnap";
  Span s("graph.snapshot_save", "kernel");
  return SaveKernel(*graph, bed.snapshot);
}

void DropRepDir(const Bed& bed, int rep) {
  RemoveTree(bed.cfg.workdir + "/rep" + std::to_string(rep));
}

// Runs the first `limit` instances of every class once on `t` (warm-up;
// checked).
void WarmUp(Bed& bed, const Target& t, size_t limit = SIZE_MAX) {
  for (Cls cls : kAllClasses) {
    for (size_t i = 0; i < std::min(limit, bed.inst[Index(cls)].size()); ++i) {
      bool ok = false;
      RunInProcess(bed, cls, i, t, &ok);
      bed.tally.Check(ok);
    }
  }
}

// Between set-up and the timed phase: peak_rss_mb then reports the
// timed phase's peak on top of what set-up left alive, not set-up's own
// transient peak (generation, the reference walks, oracle computation).
void BeginTimedPhase(Bed& bed) {
  bed.setup_peak_rss_mb = ReadProcessStats().peak_rss_mb;
  bed.peak_rss_reset = ResetPeakRss();
}

// Runs `fn(op_index, traced)` as a closed loop in rounds of `round`
// operations. A round starts only if one more round as long as the last
// still ends within the configured time, or while fewer than `min_ops`
// operations have run. In trace mode operations alternate between traced
// and untraced blocks of eight, so one run yields both sides of the
// tracing overhead. Returns the loop's wall time in seconds.
template <typename Fn>
double ClosedLoop(const Config& cfg, uint64_t min_ops, uint64_t round,
                  const std::atomic<uint64_t>& shared_ops, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  double round_start_ms = 0, last_round_ms = 0;
  for (uint64_t op = 0;; ++op) {
    if (op % round == 0) {
      const double now_ms = MsSince(start);
      if (op > 0) last_round_ms = now_ms - round_start_ms;
      round_start_ms = now_ms;
      if (now_ms + last_round_ms >= cfg.seconds * 1000.0 &&
          shared_ops.load(std::memory_order_relaxed) >= min_ops) {
        break;
      }
    }
    bool traced = cfg.trace && (op / 8) % 2 == 1;
    SetThreadTracing(traced);
    fn(op, traced);
  }
  SetThreadTracing(false);
  return MsSince(start) / 1000.0;
}

void RecordTimed(Tally* tally, Cls cls, double ms, bool ok, bool traced,
                 bool trace_mode) {
  tally->Check(ok);
  if (ok) ++tally->timed_ok;
  if (trace_mode) {
    tally->overhead[traced ? 1 : 0][Index(cls)].push_back(ms);
  } else {
    tally->by_class[Index(cls)].push_back(ms);
    tally->all.push_back(ms);
  }
}

// ---------------------------------------------------------------------------
// Ingest: extract a generated C tree, ANALYZE, save, publish, probe.
// ---------------------------------------------------------------------------

struct IngestResult {
  bool ok = false;
  double op_ms = 0;         // extraction start -> last probe's answer
  double first_row_ms = 0;  // extraction start -> first checked row
  double publish_ms = 0;    // PublishSnapshotFile
  std::vector<double> probe_ms[kClassCount];  // queries on the new epoch
};

// Instances of every class each ingest operation answers on its epoch.
constexpr int kIngestProbesPerClass = 3;

// One ingest operation. After publishing, it answers kIngestProbesPerClass
// instances of every class on the new epoch, round-robin from class
// `op % 5`; each is compared with the same query on the in-memory
// extracted graph.
IngestResult RunIngestOp(Bed& bed, fs::EpochManager* epochs, uint64_t op,
                         const std::string& path, Layers* layers) {
  IngestResult out;
  const Config& cfg = bed.cfg;
  Span op_span("bench.ingest_op", "", bed.next_op++);
  SetupClock clock;
  frappe::extractor::Vfs vfs;
  frappe::extractor::SourceScale scale;
  scale.subsystems = cfg.ingest_subsystems;
  scale.files_per_subsystem = cfg.ingest_files;
  scale.functions_per_file = cfg.ingest_functions;
  scale.seed = kGeneratorSeed + 1 + op % 4;  // four fixed trees
  frappe::extractor::SourceKernel source;
  {
    Span s("extractor.generate_source");
    source = frappe::extractor::GenerateKernelSource(scale, &vfs);
  }
  fm::CodeGraph graph;
  {
    Span s("extractor.extract", "ingest");
    frappe::extractor::BuildDriver driver(&vfs, &graph);
    for (const std::string& command : source.build_commands) {
      if (!driver.Run(command).ok()) return out;
    }
    double ms = s.End();
    layers->Add("extractor.extract_ms", ms);
    layers->Add("extractor.lines", static_cast<double>(source.total_lines));
  }

  // Off the clock: draw the probes and answer them on the in-memory graph.
  Clock::time_point pause = Clock::now();
  Bed probes(cfg);
  {
    RefGraph ref(graph);
    fq::Session memory(graph);
    for (Cls cls : kAllClasses) {
      Result<std::vector<Instance>> drawn =
          DrawInstances(ref, cls, kIngestProbesPerClass,
                        cfg.seed * 1000003 + op, Design::kAny);
      if (!drawn.ok()) return out;
      for (const Instance& probe : *drawn) {
        Expected expected;
        if (cls == Cls::kImpact) {
          expected.forward = frappe::analysis::ForwardSlice(
              graph.view(), graph.schema(), probe.function);
          expected.backward = frappe::analysis::BackwardSlice(
              graph.view(), graph.schema(), probe.function);
          std::sort(expected.forward.begin(), expected.forward.end());
          std::sort(expected.backward.begin(), expected.backward.end());
        } else {
          Result<fq::QueryResult> answer = memory.Run(probe.text);
          if (!answer.ok()) return out;
          expected = ExpectFromResult(*answer, memory.database());
        }
        probes.inst[Index(cls)].push_back(probe);
        probes.expect[Index(cls)].push_back(std::move(expected));
      }
    }
  }
  clock.paused_ms += MsSince(pause);

  fg::NameIndex index = graph.BuildNameIndex();
  fq::Database db =
      fq::MakeFrappeDatabase(graph.view(), graph.schema(), &index, nullptr);
  {
    Span s("graph.catalog_analyze");
    if (!fq::RunQuery(db, "ANALYZE").ok()) return out;
    layers->Add("graph.catalog_analyze_ms", s.End());
  }
  std::shared_ptr<const fg::StatsCatalog> catalog = db.stats->Get();
  {
    Span s("graph.snapshot_save", "ingest");
    fg::SnapshotManager manager(path);
    Result<fg::SnapshotSizes> sizes =
        manager.Save(graph.view(), &index, catalog.get());
    if (!sizes.ok()) return out;
    layers->Add("graph.snapshot_save_ms", s.End());
    layers->Add("graph.snapshot_bytes", static_cast<double>(sizes->total()));
  }
  std::shared_ptr<const fs::Epoch> epoch;
  {
    Span s("server.epoch_publish", "ingest");
    Result<std::shared_ptr<const fs::Epoch>> published =
        epochs->PublishSnapshotFile(path);
    if (!published.ok()) return out;
    epoch = *published;
    out.publish_ms = s.End();
    layers->Add("server.epoch_publish_ms", out.publish_ms);
  }
  // Probe latencies exclude their checks.
  out.ok = true;
  out.op_ms = clock.ElapsedMs();
  for (int k = 0; k < kClassCount * kIngestProbesPerClass; ++k) {
    Cls cls = kAllClasses[(op + k) % kClassCount];
    bool ok = false;
    double ms =
        RunInProcess(probes, cls, k / kClassCount, TargetOf(*epoch), &ok);
    out.probe_ms[Index(cls)].push_back(ms);
    out.op_ms += ms;
    out.ok = out.ok && ok;
    if (k == 0) out.first_row_ms = out.op_ms;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Trace-mode layer probe: every layer's call, timed from outside, on a
// fixed instance subset, so every per-layer metric is measured in every
// workload's traced run.
// ---------------------------------------------------------------------------

// Clause names for PROFILE operators: the clause kind and its ordinal
// among clauses of that kind, e.g. "match1", "return1".
std::vector<std::string> ClauseNames(const fq::Query& query) {
  std::map<std::string, int> seen;
  std::vector<std::string> names;
  for (const fq::Clause& clause : query.clauses) {
    const char* kind = std::visit(
        [](const auto& c) -> const char* {
          using T = std::decay_t<decltype(c)>;
          if constexpr (std::is_same_v<T, fq::StartClause>) return "start";
          if constexpr (std::is_same_v<T, fq::MatchClause>) return "match";
          if constexpr (std::is_same_v<T, fq::WhereClause>) return "where";
          if constexpr (std::is_same_v<T, fq::WithClause>) return "with";
          return "return";
        },
        clause);
    names.push_back(kind + std::to_string(++seen[kind]));
  }
  return names;
}

void ProbeGraphLayer(Bed& bed, Layers* layers) {
  std::unique_ptr<fg::GraphStore> store;
  std::optional<fg::NameIndex> index;
  for (int r = 0; r < 3; ++r) {
    Span s("graph.snapshot_load");
    Result<fg::LoadedSnapshot> loaded = fg::LoadSnapshot(bed.snapshot);
    layers->Add("graph.snapshot_load_ms", s.End());
    bed.tally.Check(loaded.ok() && loaded->index.has_value());
    if (!loaded.ok() || !loaded->index.has_value()) return;
    store = std::move(loaded->store);
    index = std::move(loaded->index);
  }
  for (int r = 0; r < 3; ++r) {
    Span s("graph.label_index_build");
    fg::LabelIndex labels = fg::LabelIndex::Build(*store);
    layers->Add("graph.label_index_build_ms", s.End());
  }
  std::unique_ptr<fg::CsrView> csr;
  for (int r = 0; r < 3; ++r) {
    Span s("graph.csr_build");
    csr.reset(new fg::CsrView(fg::CsrView::Build(*store)));
    layers->Add("graph.csr_build_ms", s.End());
  }
  fm::Schema schema = fm::Schema::Install(store.get());
  const fg::TypeId calls = schema.edge_type(EdgeKind::kCalls);
  const std::vector<Instance>& closures = bed.inst[Index(Cls::kClosure)];
  for (size_t i = 0; i < closures.size(); ++i) {
    std::vector<NodeId> seeds = index->Lookup("short_name", closures[i].name);
    fg::EdgeFilter filter = fg::EdgeFilter::Of(
        {calls},
        closures[i].reverse ? fg::Direction::kIn : fg::Direction::kOut);
    for (size_t threads : {size_t{1}, size_t{0}}) {
      fg::analytics::Options options;
      options.threads = threads;
      Span s("graph.closure", threads == 1 ? "1lane" : "lanes");
      Result<std::vector<NodeId>> reached =
          fg::analytics::ParallelClosure(*csr, seeds, filter, options);
      layers->Add(threads == 1 ? "graph.closure_1lane_ms"
                               : "graph.closure_lanes_ms",
                  s.End());
      bool ok = reached.ok();
      if (ok) {
        std::sort(reached->begin(), reached->end());
        ok = *reached == bed.expect[Index(Cls::kClosure)][i].reached;
      }
      bed.tally.Check(ok);
    }
  }
  const fg::EdgeFilter forward = fg::EdgeFilter::Of({calls});
  for (auto [direct, writer, expected] : bed.reach_pairs) {
    Span s("graph.reachable");
    bool reachable = fg::IsReachable(*store, direct, writer, forward);
    layers->Add("graph.reachable_ms", s.End());
    bed.tally.Check(reachable == expected);
  }
}

// The deterministic work counters of the first kProbeInstances instances
// per class. They are taken right after set-up, whose work is the same in
// every run with the same seed: alloc_bytes charges malloc's usable chunk
// sizes, which depend on the heap's history, so measuring after a timed
// phase of varying length would make it differ by a few bytes.
void ProbeCounters(Bed& bed, Layers* layers) {
  Result<std::unique_ptr<fq::SnapshotSession>> session =
      fq::SnapshotSession::Open(bed.snapshot);
  bed.tally.Check(session.ok());
  if (!session.ok()) return;
  const fq::Database& db = (*session)->database();
  for (Cls cls : kFqlClasses) {
    const std::string c = ClassName(cls);
    size_t n = std::min(kProbeInstances, bed.inst[Index(cls)].size());
    for (size_t i = 0; i < n; ++i) {
      const Instance& inst = bed.inst[Index(cls)][i];
      for (int r = 0; r < 2; ++r) {  // the first run builds lazy state
        Result<fq::QueryResult> result = fq::RunQuery(db, inst.text);
        bool ok = result.ok() &&
                  CheckRows(bed.expect[Index(cls)][i], *result, db);
        bed.tally.Check(ok);
        if (!ok || r == 0) continue;
        const fq::ExecStats& st = result->stats;
        auto add = [&](const char* counter, uint64_t v) {
          layers->Add(std::string("query.") + counter + "." + c,
                      static_cast<double>(v));
        };
        add("steps", st.steps);
        add("db_hits", st.db_hits.Total());
        add("scanned_bytes", st.scanned_bytes);
        add("alloc_bytes", st.alloc_bytes);
        add("rows", result->rows.size());
      }
    }
  }
}

void ProbeQueryLayer(Bed& bed, const fq::SnapshotSession& session,
                     Layers* layers) {
  const fq::Database& db = session.database();
  for (Cls cls : kFqlClasses) {
    const std::string c = ClassName(cls);
    size_t n = std::min(kProbeInstances, bed.inst[Index(cls)].size());
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> parse_us, exec_ms, run_ms;
      const Instance& inst = bed.inst[Index(cls)][i];
      const Expected& expected = bed.expect[Index(cls)][i];
      Result<fq::Query> parsed = fq::Parse(inst.text);
      for (int r = 0; r < 3; ++r) {
        Span s("query.parse", c);
        parsed = fq::Parse(inst.text);
        parse_us.push_back(s.End() * 1000.0);
      }
      bed.tally.Check(parsed.ok());
      if (!parsed.ok()) continue;
      for (int r = 0; r < 2; ++r) {
        Span s("query.execute", c);
        Result<fq::QueryResult> result = fq::Execute(db, *parsed);
        exec_ms.push_back(s.End());
        bed.tally.Check(result.ok() && CheckRows(expected, *result, db));
      }
      for (int r = 0; r < 2; ++r) {
        Span s("query.run", c);
        Result<fq::QueryResult> result = fq::RunQuery(db, inst.text);
        run_ms.push_back(s.End());
        bool ok = result.ok() && CheckRows(expected, *result, db);
        bed.tally.Check(ok);
        if (ok) {
          layers->Add("query.cpu_us." + c,
                      static_cast<double>(result->stats.cpu_us));
        }
      }
      layers->samples["query.parse_us." + c].insert(
          layers->samples["query.parse_us." + c].end(), parse_us.begin(),
          parse_us.end());
      layers->samples["query.exec_ms." + c].insert(
          layers->samples["query.exec_ms." + c].end(), exec_ms.begin(),
          exec_ms.end());
      // RunQuery's cost beyond Parse + Execute, on the same instance.
      layers->Add("query.session_overhead_us." + c,
                  (Median(run_ms) - Median(exec_ms)) * 1000.0 -
                      Median(parse_us));
      {
        Span s("query.profile", c);
        Result<fq::QueryResult> profiled =
            fq::RunQuery(db, "PROFILE " + inst.text);
        s.End();
        bool ok = profiled.ok() && CheckRows(expected, *profiled, db);
        bed.tally.Check(ok);
        if (ok) {
          std::vector<std::string> names = ClauseNames(*parsed);
          for (const fq::OperatorStats& op : profiled->stats.operators) {
            if (op.clause_index < names.size()) {
              layers->Add("query.op_ms." + c + "." + names[op.clause_index],
                          op.time_ms);
            }
          }
        }
      }
    }
  }
  size_t n = std::min(kProbeInstances, bed.inst[Index(Cls::kImpact)].size());
  for (size_t i = 0; i < n; ++i) {
    for (int r = 0; r < 2; ++r) {
      bool ok = false;
      RunInProcess(bed, Cls::kImpact, i, TargetOf(session), &ok);
      bed.tally.Check(ok);
    }
  }
  // The slice samples come from the spans RunInProcess recorded.
}

void ProbeServerLayer(Bed& bed, Layers* layers) {
  fs::EpochManager epochs;
  Result<std::shared_ptr<const fs::Epoch>> epoch =
      epochs.PublishSnapshotFile(bed.snapshot);
  bed.tally.Check(epoch.ok());
  if (!epoch.ok()) return;
  Result<std::unique_ptr<fs::QueryServer>> server =
      fs::QueryServer::Start(fs::QueryServer::Options{}, &epochs);
  bed.tally.Check(server.ok());
  if (!server.ok()) return;
  for (Cls cls : kFqlClasses) {
    size_t n = std::min(kProbeInstances, bed.inst[Index(cls)].size());
    for (size_t i = 0; i < n; ++i) {
      for (int r = 0; r < 2; ++r) {
        bool ok = false;
        RunHttp(bed, cls, i, (*server)->port(), &ok, layers);
        bed.tally.Check(ok);
      }
    }
  }
  (*server)->Stop();
}

void ProbeIngestLayer(Bed& bed, Layers* layers) {
  fs::EpochManager epochs;
  std::string dir = bed.cfg.workdir + "/probe_ingest";
  MakeDirs(dir);
  for (uint64_t op = 0; op < 3; ++op) {
    IngestResult r = RunIngestOp(bed, &epochs, op, dir + "/tree.fsnap", layers);
    bed.tally.Check(r.ok);
  }
  RemoveTree(dir);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

// Leaves the warmed session in `*keep` for the layer probe.
Status WarmUsecases(Bed& bed, std::unique_ptr<fq::SnapshotSession>* keep) {
  const Config& cfg = bed.cfg;
  for (int rep = 0; rep < cfg.setup_reps; ++rep) {
    SetupClock clock;
    Span setup("bench.setup");
    FRAPPE_RETURN_IF_ERROR(PrepareKernel(bed, rep, &clock));
    Clock::time_point open_start = Clock::now();
    std::unique_ptr<fq::SnapshotSession> session;
    {
      Span s("query.open", "kernel");
      FRAPPE_ASSIGN_OR_RETURN(session, fq::SnapshotSession::Open(bed.snapshot));
    }
    bool ok = false;
    RunInProcess(bed, Cls::kSearch, 0, TargetOf(*session), &ok);
    bed.tally.Check(ok);
    bed.tally.cold_first_row.push_back(MsSince(open_start));
    bed.tally.ingest_first_row.push_back(clock.ElapsedMs());
    WarmUp(bed, TargetOf(*session), kSetupWarmInstances);
    bed.setup_s.push_back(clock.ElapsedMs() / 1000.0);
    setup.End();
    if (rep + 1 < cfg.setup_reps) {
      session.reset();
      DropRepDir(bed, rep);
    } else {
      *keep = std::move(session);
    }
  }
  if (cfg.trace) ProbeCounters(bed, &bed.layers);
  const Target target = TargetOf(**keep);
  // The timed phase runs whole rounds, each answering every drawn instance
  // once, and at least kWarmRounds of them; class medians are over
  // instances (UseInstanceMedians).
  std::vector<std::pair<Cls, size_t>> pools;
  for (Cls cls : kAllClasses) {
    pools.emplace_back(cls, bed.inst[Index(cls)].size());
  }
  const std::vector<std::pair<Cls, size_t>> round = Interleave(pools);
  BeginTimedPhase(bed);
  std::atomic<uint64_t> ops{0};
  const uint64_t min_ops =
      std::max<uint64_t>(kSpecs[0].min_ops, kWarmRounds * round.size());
  bed.timed_wall_s = ClosedLoop(
      cfg, min_ops, round.size(), ops, [&](uint64_t op, bool traced) {
    auto [cls, i] = round[op % round.size()];
    Span s("bench.op", ClassName(cls), bed.next_op++);
    bool ok = false;
    double ms = RunInProcess(bed, cls, i, target, &ok);
    RecordTimed(&bed.tally, cls, ms, ok, traced, cfg.trace);
    if (!cfg.trace) bed.tally.AddInstanceSample(cls, i, ms);
    ops.fetch_add(1, std::memory_order_relaxed);
  });
  bed.tally.UseInstanceMedians();
  return Status::OK();
}

Status ColdOpen(Bed& bed) {
  const Config& cfg = bed.cfg;
  for (int rep = 0; rep < cfg.setup_reps; ++rep) {
    SetupClock clock;
    Span setup("bench.setup");
    FRAPPE_RETURN_IF_ERROR(PrepareKernel(bed, rep, &clock));
    // One open + first row, so the page cache holds the snapshot file as
    // it does for every timed operation.
    {
      std::unique_ptr<fq::SnapshotSession> session;
      {
        Span s("query.open", "kernel");
        FRAPPE_ASSIGN_OR_RETURN(session,
                                fq::SnapshotSession::Open(bed.snapshot));
      }
      bool ok = false;
      RunInProcess(bed, Cls::kSearch, 0, TargetOf(*session), &ok);
      bed.tally.Check(ok);
      bed.tally.ingest_first_row.push_back(clock.ElapsedMs());
    }
    bed.setup_s.push_back(clock.ElapsedMs() / 1000.0);
    setup.End();
    if (rep + 1 < cfg.setup_reps) DropRepDir(bed, rep);
  }
  if (cfg.trace) ProbeCounters(bed, &bed.layers);
  size_t cursor[kClassCount] = {};
  BeginTimedPhase(bed);
  std::atomic<uint64_t> ops{0};
  bed.timed_wall_s = ClosedLoop(
      cfg, kSpecs[1].min_ops, 1, ops, [&](uint64_t op, bool traced) {
    Cls cls = kAllClasses[op % kClassCount];
    size_t i = cursor[Index(cls)]++ % bed.inst[Index(cls)].size();
    Span s("bench.op", ClassName(cls), bed.next_op++);
    std::unique_ptr<fq::SnapshotSession> session;
    Span open("query.open", "kernel");
    Result<std::unique_ptr<fq::SnapshotSession>> opened =
        fq::SnapshotSession::Open(bed.snapshot);
    const double open_ms = open.End();
    bool ok = false;
    double query_ms = 0;
    if (opened.ok()) {
      session = std::move(*opened);
      query_ms = RunInProcess(bed, cls, i, TargetOf(*session), &ok);
    }
    s.End();
    const double ms = open_ms + query_ms;
    bed.tally.Check(ok);
    if (ok) ++bed.tally.timed_ok;
    if (cfg.trace) {
      bed.tally.overhead[traced ? 1 : 0][Index(cls)].push_back(ms);
    } else {
      bed.tally.open_ms.push_back(open_ms);
      bed.tally.by_class[Index(cls)].push_back(query_ms);
      bed.tally.all.push_back(ms);
      bed.tally.cold_first_row.push_back(ms);
    }
    ops.fetch_add(1, std::memory_order_relaxed);
  });
  return Status::OK();
}

Status ServeMix(Bed& bed) {
  const Config& cfg = bed.cfg;
  // Each set-up publishes into a fresh EpochManager, so no publish ever
  // tears down the previous set-up's epoch on the clock.
  std::unique_ptr<fs::EpochManager> epochs;
  std::unique_ptr<fs::QueryServer> server;
  for (int rep = 0; rep < cfg.setup_reps; ++rep) {
    if (server != nullptr) server->Stop();
    server.reset();
    epochs = std::make_unique<fs::EpochManager>();
    if (rep > 0) DropRepDir(bed, rep - 1);
    SetupClock clock;
    Span setup("bench.setup");
    FRAPPE_RETURN_IF_ERROR(PrepareKernel(bed, rep, &clock));
    Clock::time_point open_start = Clock::now();
    {
      Span s("server.epoch_publish", "kernel");
      FRAPPE_RETURN_IF_ERROR(
          epochs->PublishSnapshotFile(bed.snapshot).status());
    }
    FRAPPE_ASSIGN_OR_RETURN(
        server,
        fs::QueryServer::Start(fs::QueryServer::Options{}, epochs.get()));
    Layers scratch;
    bool ok = false;
    RunHttp(bed, Cls::kSearch, 0, server->port(), &ok, &scratch);
    bed.tally.Check(ok);
    bed.tally.cold_first_row.push_back(MsSince(open_start));
    bed.tally.ingest_first_row.push_back(clock.ElapsedMs());
    for (Cls cls : kFqlClasses) {
      size_t n = std::min(kSetupWarmInstances, bed.inst[Index(cls)].size());
      for (size_t i = 0; i < n; ++i) {
        RunHttp(bed, cls, i, server->port(), &ok, &scratch);
        bed.tally.Check(ok);
      }
    }
    std::shared_ptr<const fs::Epoch> epoch = epochs->Current();
    size_t n = std::min(kSetupWarmInstances,
                        bed.inst[Index(Cls::kImpact)].size());
    for (size_t i = 0; i < n; ++i) {
      RunInProcess(bed, Cls::kImpact, i, TargetOf(*epoch), &ok);
      bed.tally.Check(ok);
    }
    bed.setup_s.push_back(clock.ElapsedMs() / 1000.0);
  }
  if (cfg.trace) ProbeCounters(bed, &bed.layers);
  const std::vector<std::pair<Cls, size_t>> slots = Interleave(kServeWeights);
  const uint16_t port = server->port();
  BeginTimedPhase(bed);
  std::atomic<uint64_t> ops{0};
  std::vector<Tally> tallies(kServeClients);
  std::vector<Layers> layers(kServeClients);
  std::vector<double> walls(kServeClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&, c] {
      size_t cursor[kClassCount] = {};
      walls[c] = ClosedLoop(
          cfg, kSpecs[2].min_ops, 1, ops, [&](uint64_t op, bool traced) {
        const size_t slot = (op + static_cast<uint64_t>(c) * 5) % slots.size();
        Cls cls = slots[slot].first;
        size_t i = (cursor[Index(cls)]++ * kServeClients + c) %
                   bed.inst[Index(cls)].size();
        Span s("bench.op", ClassName(cls), bed.next_op++);
        bool ok = false;
        double ms;
        if (cls == Cls::kImpact) {
          std::shared_ptr<const fs::Epoch> epoch = epochs->Current();
          ms = RunInProcess(bed, cls, i, TargetOf(*epoch), &ok);
        } else {
          ms = RunHttp(bed, cls, i, port, &ok, &layers[c]);
        }
        RecordTimed(&tallies[c], cls, ms, ok, traced, cfg.trace);
        if (!cfg.trace) tallies[c].AddInstanceSample(cls, i, ms);
        ops.fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  for (std::thread& t : clients) t.join();
  server->Stop();
  for (int c = 0; c < kServeClients; ++c) {
    bed.tally.Merge(tallies[c]);
    bed.layers.Merge(layers[c]);
  }
  bed.tally.UseInstanceMedians();
  bed.timed_wall_s = *std::max_element(walls.begin(), walls.end());
  return Status::OK();
}

Status IngestPublish(Bed& bed) {
  const Config& cfg = bed.cfg;
  std::unique_ptr<fs::EpochManager> epochs;
  std::shared_ptr<const fs::Epoch> kernel_epoch;
  for (int rep = 0; rep < cfg.setup_reps; ++rep) {
    kernel_epoch.reset();
    epochs = std::make_unique<fs::EpochManager>();
    if (rep > 0) DropRepDir(bed, rep - 1);
    SetupClock clock;
    Span setup("bench.setup");
    FRAPPE_RETURN_IF_ERROR(PrepareKernel(bed, rep, &clock));
    Clock::time_point open_start = Clock::now();
    {
      Span s("server.epoch_publish", "kernel");
      FRAPPE_ASSIGN_OR_RETURN(kernel_epoch,
                              epochs->PublishSnapshotFile(bed.snapshot));
    }
    bool ok = false;
    RunInProcess(bed, Cls::kSearch, 0, TargetOf(*kernel_epoch), &ok);
    bed.tally.Check(ok);
    bed.tally.cold_first_row.push_back(MsSince(open_start));
    bed.tally.ingest_first_row.push_back(clock.ElapsedMs());
    bed.setup_s.push_back(clock.ElapsedMs() / 1000.0);
  }
  if (cfg.trace) ProbeCounters(bed, &bed.layers);
  // The kernel epoch stays pinned here, so its teardown never lands inside
  // a timed publish.
  std::string dir = cfg.workdir + "/ingest";
  if (!MakeDirs(dir)) return Status::Internal("cannot create " + dir);
  BeginTimedPhase(bed);
  std::atomic<uint64_t> ops{0};
  bed.timed_wall_s = ClosedLoop(
      cfg, kSpecs[3].min_ops, 1, ops, [&](uint64_t op, bool traced) {
    IngestResult r = RunIngestOp(bed, epochs.get(), op, dir + "/tree.fsnap",
                                 &bed.layers);
    bed.tally.Check(r.ok);
    ops.fetch_add(1, std::memory_order_relaxed);
    // A failed operation may have stopped before any probe: it leaves no
    // latency sample.
    if (!r.ok) return;
    ++bed.tally.timed_ok;
    if (cfg.trace) {
      bed.tally.overhead[traced ? 1 : 0][0].push_back(r.op_ms);
    } else {
      for (Cls cls : kAllClasses) {
        auto& samples = bed.tally.by_class[Index(cls)];
        samples.insert(samples.end(), r.probe_ms[Index(cls)].begin(),
                       r.probe_ms[Index(cls)].end());
      }
      bed.tally.all.push_back(r.op_ms);
      bed.tally.ingest_first_row.push_back(r.first_row_ms);
      bed.tally.cold_first_row.push_back(
          r.publish_ms + r.probe_ms[op % kClassCount].front());
    }
  });
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

void EndToEnd(const Bed& bed, const Spec& spec, Report* report) {
  const Tally& t = bed.tally;
  auto add = [&](const std::string& name, double v, const char* unit) {
    report->metrics.push_back({name, v, unit});
  };
  add("setup_s", Median(bed.setup_s), "s");
  // In cold_open every operation opens the same snapshot; a class's p50 is
  // the median open over all operations plus the median of that class's
  // query part, so five classes need not split the few opens a run has.
  const double open_p50 = Median(t.open_ms);
  for (Cls cls : kAllClasses) {
    add(std::string(ClassName(cls)) + "_p50_ms",
        open_p50 + Median(t.by_class[Index(cls)]), "ms");
  }
  add("latency_tail_ms", Percentile(t.all, spec.tail_percentile), "ms");
  const double wall = bed.timed_wall_s;
  add("ops_per_s", wall > 0 ? static_cast<double>(t.timed_ok) / wall : 0.0,
      "1/s");
  add("cold_first_row_ms", Median(t.cold_first_row), "ms");
  add("ingest_first_row_ms", Median(t.ingest_first_row), "ms");
  add("peak_rss_mb",
      bed.peak_rss_reset ? ReadPeakRssMb() : ReadProcessStats().peak_rss_mb,
      "MB");
}

void PerLayer(const Bed& bed, Report* report) {
  const Layers& L = bed.layers;
  auto add = [&](const std::string& name, double v, const char* unit) {
    report->metrics.push_back({name, v, unit});
  };
  double extract_s = L.Sum("extractor.extract_ms") / 1000.0;
  add("extractor.extract_ms", L.Median("extractor.extract_ms"), "ms");
  add("extractor.lines_per_s",
      extract_s > 0 ? L.Sum("extractor.lines") / extract_s : 0, "1/s");
  add("graph.catalog_analyze_ms", L.Median("graph.catalog_analyze_ms"), "ms");
  add("graph.snapshot_save_ms", L.Median("graph.snapshot_save_ms"), "ms");
  add("graph.snapshot_bytes", L.Median("graph.snapshot_bytes"), "B");
  add("graph.snapshot_load_ms", L.Median("graph.snapshot_load_ms"), "ms");
  add("graph.label_index_build_ms", L.Median("graph.label_index_build_ms"),
      "ms");
  add("graph.csr_build_ms", L.Median("graph.csr_build_ms"), "ms");
  add("graph.closure_1lane_ms", L.Median("graph.closure_1lane_ms"), "ms");
  add("graph.closure_lanes_ms", L.Median("graph.closure_lanes_ms"), "ms");
  add("graph.reachable_ms", L.Median("graph.reachable_ms"), "ms");
  for (Cls cls : kFqlClasses) {
    const std::string c = ClassName(cls);
    add("query.parse_us." + c, L.Median("query.parse_us." + c), "us");
    add("query.exec_ms." + c, L.Median("query.exec_ms." + c), "ms");
    add("query.session_overhead_us." + c,
        L.Median("query.session_overhead_us." + c), "us");
    add("query.cpu_us." + c, L.Median("query.cpu_us." + c), "us");
    add("query.steps." + c, L.Sum("query.steps." + c), "count");
    add("query.db_hits." + c, L.Sum("query.db_hits." + c), "count");
    add("query.scanned_bytes." + c, L.Sum("query.scanned_bytes." + c), "B");
    add("query.alloc_bytes." + c, L.Sum("query.alloc_bytes." + c), "B");
    add("query.rows." + c, L.Sum("query.rows." + c), "count");
    const std::string prefix = "query.op_ms." + c + ".";
    for (const auto& [name, samples] : L.samples) {
      if (name.rfind(prefix, 0) == 0) add(name, Median(samples), "ms");
    }
  }
  Tracer& tracer = Tracer::Global();
  add("analysis.forward_slice_ms",
      Median(tracer.Durations("analysis.forward_slice")), "ms");
  add("analysis.backward_slice_ms",
      Median(tracer.Durations("analysis.backward_slice")), "ms");
  for (Cls cls : kFqlClasses) {
    const std::string c = ClassName(cls);
    add("server.request_ms." + c, L.Median("server.request_ms." + c), "ms");
  }
  for (const char* phase :
       {"queue_us", "parse_us", "plan_us", "exec_us", "serialize_us"}) {
    const std::string name = std::string("server.") + phase;
    add(name, L.Median(name), "us");
  }
  for (Cls cls : kFqlClasses) {
    const std::string c = ClassName(cls);
    add("server.response_bytes." + c, L.Median("server.response_bytes." + c),
        "B");
  }
  add("server.epoch_publish_ms", L.Median("server.epoch_publish_ms"), "ms");
  ProcessStats ps = ReadProcessStats();
  add("process.user_s", ps.user_s, "s");
  add("process.sys_s", ps.sys_s, "s");
  // Tracing overhead: traced over untraced median latency of the timed
  // phase's interleaved blocks, geometric mean over classes.
  double log_sum = 0;
  int classes = 0;
  for (int c = 0; c < kClassCount; ++c) {
    const auto& off = bed.tally.overhead[0][c];
    const auto& on = bed.tally.overhead[1][c];
    if (off.empty() || on.empty() || Median(off) <= 0) continue;
    log_sum += std::log(Median(on) / Median(off));
    ++classes;
  }
  add("trace.overhead_pct",
      classes > 0 ? (std::exp(log_sum / classes) - 1) * 100 : 0, "%");
  std::map<std::string, double> self = tracer.SelfMsByLayer();
  for (const char* layer :
       {"bench", "extractor", "graph", "query", "analysis", "server"}) {
    add(std::string("self_ms.") + layer, self[layer], "ms");
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      kSpecs[0].name, kSpecs[1].name, kSpecs[2].name, kSpecs[3].name};
  return names;
}

Report RunWorkload(const Config& cfg) {
  Report report;
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (cfg.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    report.error = "unknown workload '" + cfg.workload + "'";
    return report;
  }
  if (!MakeDirs(cfg.workdir)) {
    report.error = "cannot create " + cfg.workdir;
    return report;
  }
  Bed bed(cfg);
  SetThreadTracing(cfg.trace);
  std::unique_ptr<fq::SnapshotSession> warm_session;
  Status status;
  if (cfg.workload == "warm_usecases") {
    status = WarmUsecases(bed, &warm_session);
  } else if (cfg.workload == "cold_open") {
    status = ColdOpen(bed);
  } else if (cfg.workload == "serve_mix") {
    status = ServeMix(bed);
  } else {
    status = IngestPublish(bed);
  }
  if (status.ok() && cfg.trace) {
    SetThreadTracing(true);
    ProbeGraphLayer(bed, &bed.layers);
    if (warm_session == nullptr) {
      Result<std::unique_ptr<fq::SnapshotSession>> opened =
          fq::SnapshotSession::Open(bed.snapshot);
      bed.tally.Check(opened.ok());
      if (opened.ok()) warm_session = std::move(*opened);
    }
    if (warm_session != nullptr) {
      WarmUp(bed, TargetOf(*warm_session), kProbeInstances);
      ProbeQueryLayer(bed, *warm_session, &bed.layers);
    }
    if (cfg.workload != "serve_mix") ProbeServerLayer(bed, &bed.layers);
    if (cfg.workload != "ingest_publish") ProbeIngestLayer(bed, &bed.layers);
    SetThreadTracing(false);
  }
  warm_session.reset();
  RemoveTree(cfg.workdir);
  if (!status.ok()) {
    report.error = status.ToString();
    return report;
  }
  report.attempted = bed.tally.attempted;
  report.failed = bed.tally.failed;
  if (cfg.trace) {
    PerLayer(bed, &report);
  } else {
    EndToEnd(bed, *spec, &report);
  }
  HostInfo host = ReadHostInfo();
  char buf[64];
  report.stamp["workload"] = cfg.workload;
  report.stamp["nproc"] = std::to_string(host.nproc);
  report.stamp["cpu_model"] = host.cpu_model;
  report.stamp["build_type"] = T5BENCH_BUILD_TYPE;
  std::snprintf(buf, sizeof(buf), "%g", cfg.scale);
  report.stamp["scale"] = buf;
  report.stamp["generator_seed"] = std::to_string(kGeneratorSeed);
  report.stamp["workload_seed"] = std::to_string(cfg.seed);
  std::snprintf(buf, sizeof(buf), "p%g", spec->tail_percentile);
  report.stamp["tail_percentile"] = buf;
  report.stamp["timed_ops"] = std::to_string(bed.tally.all.size());
  report.stamp["attempted"] = std::to_string(report.attempted);
  report.stamp["failed"] = std::to_string(report.failed);
  report.stamp["page_cache"] =
      "warm (snapshots are read back right after they are written)";
  report.stamp["trace"] = cfg.trace ? "1" : "0";
  if (!cfg.trace) {
    report.stamp["peak_rss"] =
        bed.peak_rss_reset
            ? "VmHWM of the timed phase (mark reset after set-up)"
            : "ru_maxrss of the whole run (/proc/self/clear_refs not writable)";
    std::snprintf(buf, sizeof(buf), "%.1f", bed.setup_peak_rss_mb);
    report.stamp["setup_peak_rss_mb"] = buf;
  }
  return report;
}

}  // namespace t5
