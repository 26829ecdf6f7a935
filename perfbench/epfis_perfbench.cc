// epfis_perfbench: the end-to-end EPFIS benchmark binary. run.py builds
// and drives it; run it directly as
//
//   epfis_perfbench --workload=refresh|serve|scan --seed=N --seconds=S
//                   --trace=0|1 [--smoke=1] [--work-dir=DIR] [--spans=PATH]
//
// It prints a human-readable table, then one line
// `RESULT {...}` holding the machine fingerprint, the operation counts,
// the output-check verdict, and every metric with its unit and sample
// count. With --trace=1 it also writes the recorded spans to --spans.

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "perfbench.h"
#include "util/arg_parser.h"

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int NumaNodes() {
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

// Machine and build the numbers were measured on.
std::string Fingerprint() {
  const char* faults_env = std::getenv("EPFIS_FAULTS");
  std::ostringstream out;
  out << "{\"cpu_model\": " << JsonString(CpuModel())
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"numa_nodes\": " << NumaNodes()
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"EPFIS_METRICS\": " << (EPFIS_METRICS_ENABLED ? "true" : "false")
      << ", \"EPFIS_FAULTS\": " << (EPFIS_FAULTS_ENABLED ? "true" : "false")
      << ", \"EPFIS_URING\": " << (EPFIS_URING_ENABLED ? "true" : "false")
      << ", \"EPFIS_FAULTS_env\": "
      << (faults_env ? JsonString(faults_env) : std::string("null")) << "}";
  return out.str();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  epfis::ArgParser args(argc, argv);
  RunConfig config;
  config.workload = args.GetString("workload", "");
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  config.seconds = args.GetDouble("seconds", 10.0);
  config.trace = args.GetInt("trace", 0) != 0;
  config.smoke = args.GetInt("smoke", 0) != 0;
  config.work_dir = args.GetString("work-dir", ".bench_work");
  config.spans_path =
      args.GetString("spans", config.work_dir + "/spans.tsv");
  if (config.seconds <= 0) {
    std::cerr << "--seconds must be positive\n";
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) {
    std::cerr << "cannot create " << config.work_dir << ": " << ec.message()
              << '\n';
    return 2;
  }

  Report report;
  if (config.workload == "refresh") {
    RunRefresh(config, report);
  } else if (config.workload == "serve") {
    RunServe(config, report);
  } else if (config.workload == "scan") {
    RunScan(config, report);
  } else {
    std::cerr << "unknown --workload '" << config.workload
              << "' (refresh, serve, scan)\n";
    return 2;
  }
  report.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  report.Add("ops_failed_frac",
             report.attempted() ? static_cast<double>(report.failed()) /
                                      static_cast<double>(report.attempted())
                                : 1.0,
             "ratio", report.attempted());

  std::cout << "workload " << config.workload << ", seed " << config.seed
            << ", " << config.seconds << " s, trace " << config.trace
            << (config.smoke ? ", smoke" : "") << '\n';
  for (const Metric& m : report.metrics()) {
    std::cout << "  " << std::left << std::setw(36) << m.name << std::right
              << std::setw(16) << std::setprecision(6) << m.value << ' '
              << std::left << std::setw(8) << m.unit << " n=" << m.samples
              << '\n';
  }

  std::ostringstream json;
  json << std::setprecision(17);
  json << "{\"workload\": " << JsonString(config.workload)
       << ", \"seed\": " << config.seed
       << ", \"fingerprint\": " << Fingerprint()
       << ", \"correct\": " << (report.correct() ? "true" : "false")
       << ", \"attempted\": " << report.attempted()
       << ", \"failed\": " << report.failed() << ", \"failures\": [";
  for (size_t i = 0; i < report.failures().size(); ++i) {
    json << (i ? ", " : "") << JsonString(report.failures()[i]);
  }
  json << "], \"metrics\": {";
  for (size_t i = 0; i < report.metrics().size(); ++i) {
    const Metric& m = report.metrics()[i];
    json << (i ? ", " : "") << JsonString(m.name) << ": {\"value\": "
         << m.value << ", \"unit\": " << JsonString(m.unit)
         << ", \"samples\": " << m.samples << "}";
  }
  json << "}}";
  std::cout << "RESULT " << json.str() << std::endl;
  return 0;
}
