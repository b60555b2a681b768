// Table 5 use-case benchmark program.
//
//   t5bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --workdir <dir> [--spans <file>]
//
// Prints one stamp line ({"stamp": {...}}) and, as the last line, the
// result object {"correct", "attempted", "failed", "metrics"}. Exits 1 when
// any operation failed its oracle, 2 when the run could not complete.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/string_util.h"
#include "spans.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: t5bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir> [--spans <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  t5::Config config;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || config.workload.empty() || config.workdir.empty() ||
      config.seconds <= 0) {
    return Usage();
  }

  t5::Report report = t5::RunWorkload(config);
  if (!report.error.empty()) {
    std::fprintf(stderr, "t5bench: %s\n", report.error.c_str());
    return 2;
  }
  if (config.trace && !spans_path.empty() &&
      !t5::Tracer::Global().WriteJsonl(spans_path)) {
    std::fprintf(stderr, "t5bench: cannot write %s\n", spans_path.c_str());
  }

  std::string stamp = "{\"stamp\": {";
  bool first = true;
  for (const auto& [key, value] : report.stamp) {
    stamp += (first ? "" : ", ") + frappe::JsonQuote(key) + ": " +
             frappe::JsonQuote(value);
    first = false;
  }
  stamp += "}}";
  std::printf("%s\n", stamp.c_str());

  const bool correct = report.failed == 0 && report.attempted > 0;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const t5::Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out += (i > 0 ? ", " : "") + frappe::JsonQuote(m.name) +
           ": {\"value\": " + value + ", \"unit\": " +
           frappe::JsonQuote(m.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
