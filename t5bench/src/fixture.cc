#include "fixture.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "extractor/synthetic.h"
#include "graph/snapshot_manager.h"

namespace t5 {

std::unique_ptr<frappe::model::CodeGraph> GenerateKernel(double scale,
                                                         uint64_t seed) {
  auto graph = std::make_unique<frappe::model::CodeGraph>(
      frappe::model::CodeGraph::Validation::kOff);
  frappe::extractor::GraphScale s;
  s.factor = scale;
  s.seed = seed;
  frappe::extractor::GenerateKernelGraph(s, graph.get());
  return graph;
}

frappe::Status SaveKernel(const frappe::model::CodeGraph& graph,
                          const std::string& path) {
  frappe::graph::NameIndex index = graph.BuildNameIndex();
  frappe::graph::SnapshotManager manager(path);
  return manager.Save(graph.view(), &index).status();
}

bool MakeDirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return !ec;
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

ProcessStats ReadProcessStats() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcessStats out;
  out.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  out.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  out.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return out;
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

double ReadPeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return -1;
}

HostInfo ReadHostInfo() {
  HostInfo info;
  info.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) info.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  if (info.cpu_model.empty()) info.cpu_model = "unknown";
  return info;
}

}  // namespace t5
