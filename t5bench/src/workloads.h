#ifndef T5BENCH_WORKLOADS_H_
#define T5BENCH_WORKLOADS_H_

// The four workloads of the Table 5 benchmark:
//   warm_usecases   in-process closed loop, 1 client, on a warmed database
//   cold_open       SnapshotSession::Open + one use-case query per operation
//   serve_mix       QueryServer over loopback HTTP, 4 closed-loop clients
//   ingest_publish  extract -> ANALYZE -> Save -> PublishSnapshotFile -> probe
// Each run sets up (several times, reporting the median), computes every
// operation's expected answer, measures for the configured time and checks
// every answer. With tracing on, the run also records spans around every
// call into the system and reports per-layer metrics instead.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace t5 {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  // Every workload uses the synthetic kernel at this scale (tests shrink
  // it); the generator seed is fixed (kGeneratorSeed), the workload seed
  // only picks query instances.
  double scale = 0.2;
  int setup_reps = 5;
  // Private directory for this run's snapshots; created and removed by
  // the run.
  std::string workdir;
  // Instances drawn per class.
  int search = 48, xref = 96, debug = 36, closure = 36, impact = 18;
  // Ingested C tree (extractor::SourceScale) for ingest_publish.
  int ingest_subsystems = 8, ingest_files = 10, ingest_functions = 12;
  // Test hook: alter every answer before it is checked.
  bool corrupt_answers = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Provenance printed next to the result (host class, seeds, tail
  // percentile, ...).
  std::map<std::string, std::string> stamp;
  std::string error;  // non-empty when the run could not complete
};

const std::vector<std::string>& WorkloadNames();
Report RunWorkload(const Config& config);

}  // namespace t5

#endif  // T5BENCH_WORKLOADS_H_
