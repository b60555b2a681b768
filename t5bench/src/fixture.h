#ifndef T5BENCH_FIXTURE_H_
#define T5BENCH_FIXTURE_H_

// Building blocks of a run's set-up: the synthetic kernel, its snapshot in
// the run's private directory, process resource readings and the host
// stamp.

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "model/code_graph.h"

namespace t5 {

// Generates the synthetic kernel (extractor::GenerateKernelGraph).
std::unique_ptr<frappe::model::CodeGraph> GenerateKernel(double scale,
                                                         uint64_t seed);

// Saves `graph` with its name index through graph::SnapshotManager (v2,
// CRC, fsync, rename) at `path`.
frappe::Status SaveKernel(const frappe::model::CodeGraph& graph,
                          const std::string& path);

// Creates `dir` (and parents); removes a directory tree.
bool MakeDirs(const std::string& dir);
void RemoveTree(const std::string& dir);

struct ProcessStats {
  double user_s = 0;
  double sys_s = 0;
  double peak_rss_mb = 0;  // ru_maxrss: the whole process life
};
ProcessStats ReadProcessStats();

// Hands freed heap back to the OS and resets the kernel's peak-RSS mark
// (VmHWM) to the current RSS, so that a later ReadPeakRssMb() covers only
// what ran after the call. False where /proc/self/clear_refs cannot be
// written.
bool ResetPeakRss();
// VmHWM from /proc/self/status in MB, or -1 when it cannot be read.
double ReadPeakRssMb();

// Host class for the output stamp.
struct HostInfo {
  int nproc = 0;
  std::string cpu_model;
};
HostInfo ReadHostInfo();

}  // namespace t5

#endif  // T5BENCH_FIXTURE_H_
