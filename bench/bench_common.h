#ifndef EPFIS_BENCH_BENCH_COMMON_H_
#define EPFIS_BENCH_BENCH_COMMON_H_

// Shared helpers for the experiment-reproduction binaries in bench/.
//
// Every binary accepts:
//   --scale=F        linear size scale vs the paper (default per binary;
//                    1.0 = the paper's dataset sizes)
//   --scans=N        random scans per experiment (paper: 200)
//   --seed=S         base RNG seed
//   --csv=PATH       append machine-readable results
//
// Shapes are scale-invariant: running at --scale=1 reproduces the paper's
// sizes exactly but takes correspondingly longer on one core.

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <system_error>

#include "harness/experiment.h"
#include "harness/figures.h"
#include "util/arg_parser.h"
#include "workload/scan_gen.h"

namespace epfis {

struct BenchOptions {
  double scale = 0.1;
  int scans = 200;
  uint64_t seed = 42;
  std::string csv;
};

inline BenchOptions ParseBenchOptions(int argc, char** argv,
                                      double default_scale) {
  ArgParser args(argc, argv);
  BenchOptions options;
  options.scale = args.GetDouble("scale", default_scale);
  if (args.GetBool("paper-scale", false)) options.scale = 1.0;
  options.scans = static_cast<int>(args.GetInt("scans", 200));
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  options.csv = args.GetString("csv", "");
  return options;
}

/// The paper's experiment configuration (§5), with the minimum buffer
/// floor scaled alongside the data so small runs sweep the same B/T
/// fractions the paper plots.
inline ExperimentConfig PaperExperimentConfig(const BenchOptions& options) {
  ExperimentConfig config;
  config.num_scans = options.scans;
  config.seed = options.seed;
  config.min_buffer_pages = static_cast<uint64_t>(300 * options.scale);
  if (config.min_buffer_pages < 8) config.min_buffer_pages = 8;
  return config;
}

/// The "model name" line of /proc/cpuinfo, or "unknown".
inline std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

/// NUMA nodes listed under /sys/devices/system/node (one `nodeN` entry
/// each); 1 when the tree is absent. Recorded next to benchmark results
/// so a reader knows the machine they came from.
inline int NumaNodeCount() {
  int nodes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/sys/devices/system/node", ec)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("node", 0) == 0 && name.size() > 4 &&
        std::isdigit(static_cast<unsigned char>(name[4]))) {
      ++nodes;
    }
  }
  return nodes > 0 ? nodes : 1;
}

inline void EmitExperiment(const ExperimentResult& result,
                           const std::string& label,
                           const BenchOptions& options) {
  std::cout << "=== " << label << " ===\n";
  PrintExperimentTable(result, std::cout);
  std::cout << SummarizeMaxErrors(result) << "\n\n";
  if (!options.csv.empty()) {
    Status s = WriteExperimentCsv(result, label, options.csv);
    if (!s.ok()) std::cerr << "CSV write failed: " << s.ToString() << '\n';
  }
}

}  // namespace epfis

#endif  // EPFIS_BENCH_BENCH_COMMON_H_
