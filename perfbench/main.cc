// gchase benchmark driver. Usage:
//
//   perfbench --workload <materialize-closure|materialize-bulk|decide-corpus>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--source-dir <dir>] [--source-id <id>] [--corrupt-expectation]
//
// Prints a build/host fingerprint line, one line per metric, and as the
// last line a JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "obs/histogram.h"
#include "obs/perf_counters.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

const char* Sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

/// True when any of the library's observability switches is on.
bool ObsEnabled() {
  bool tracing = false;
  for (gchase::TraceCategory category :
       {gchase::TraceCategory::kChase, gchase::TraceCategory::kPool,
        gchase::TraceCategory::kDecider, gchase::TraceCategory::kStorage,
        gchase::TraceCategory::kFuzz}) {
    tracing = tracing || gchase::Tracer::Global().enabled(category);
  }
  return tracing || gchase::ProfilingEnabled() ||
         gchase::PerfCountersEnabled() || gchase::ProgressEnabled();
}

void PrintFingerprint(const RunConfig& config, const WorkloadResult& result) {
  const bool obs = ObsEnabled();
  std::printf(
      "fingerprint {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"cpu\": %s, \"nproc\": %ld, \"compiler\": %s, \"build_type\": %s, "
      "\"sanitizer\": \"%s\", \"source\": %s, \"discovery_threads\": %u, "
      "\"obs_enabled\": %s, \"obs_flagged\": %s}\n",
      JsonString(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed), config.trace ? 1 : 0,
      JsonString(CpuModel()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      JsonString(PERFBENCH_COMPILER " " __VERSION__).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), Sanitizer(),
      JsonString(config.source_id).c_str(), result.discovery_threads,
      obs ? "true" : "false", obs && !config.trace ? "true" : "false");
}

void PrintResult(const WorkloadResult& result) {
  for (const std::string& note : result.notes) std::printf("# %s\n", note.c_str());
  for (const Metric& metric : result.metrics) {
    std::printf("metric %-34s %.10g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    std::snprintf(number, sizeof(number), "%.17g", metric.value);
    if (i > 0) json += ", ";
    json += JsonString(metric.name) + ": {\"value\": " + number +
            ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-expectation") {
      config.corrupt_expectation = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value);
    } else if (flag == "--trace") {
      config.trace = value != "0";
    } else if (flag == "--source-dir") {
      config.source_dir = value;
    } else if (flag == "--source-id") {
      config.source_id = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return config;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const RunConfig config = ParseArgs(argc, argv);
    WorkloadResult result;
    if (config.workload == "materialize-closure") {
      result = RunClosure(config);
    } else if (config.workload == "materialize-bulk") {
      result = RunBulk(config);
    } else if (config.workload == "decide-corpus") {
      result = RunDecideCorpus(config);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
      return 2;
    }
    PrintFingerprint(config, result);
    PrintResult(result);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
  return 0;
}
