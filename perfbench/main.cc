// The repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload in this process and prints a header, every metric
// with its unit, and as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run also replays the workload with per-layer timing and prints
// the per-layer metrics instead. Exits 1 when an output check fails and
// 2 on bad arguments.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "core/flags.h"
#include "core/thread_pool.h"
#include "tensor/tape.h"
#include "workload.h"

namespace hygnn::perfbench {
namespace {

/// Minimal JSON object writer for the header and result lines.
class Json {
 public:
  Json& Str(const std::string& key, const std::string& value);
  Json& Num(const std::string& key, double value);
  Json& Int(const std::string& key, int64_t value);
  Json& Bool(const std::string& key, bool value);
  /// Inserts an already-serialized JSON value.
  Json& Raw(const std::string& key, const std::string& json);
  std::string Finish() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};


void Json::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + key + "\": ";
}

Json& Json::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') body_ += '\\';
    body_ += c;
  }
  body_ += "\"";
  return *this;
}

Json& Json::Num(const std::string& key, double value) {
  Key(key);
  if (!std::isfinite(value)) {
    body_ += "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  body_ += buf;
  return *this;
}

Json& Json::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

Json& Json::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

Json& Json::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}


using WorkloadFn = void (*)(const Options&, Report*);

const std::map<std::string, WorkloadFn>& Workloads() {
  static const std::map<std::string, WorkloadFn> workloads = {
      {"train_full", &RunTrainFull},
      {"train_kmer", &RunTrainKmer},
      {"serve_interactive", &RunServeInteractive},
      {"serve_churn", &RunServeChurn},
      {"probe_open_loop", &RunOpenLoopProbe},
  };
  return workloads;
}

bool ParseInt(const std::string& text, int64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (*end != '\0') return false;
  *out = value;
  return true;
}

int Usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <1-600> --trace <0|1>\nworkloads:",
               problem.c_str());
  for (const auto& [name, fn] : Workloads()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

std::string Header(const Options& options, const Report& report) {
  Json sizes;
  for (const auto& [key, value] : report.sizes()) sizes.Num(key, value);
  Json header;
  header.Str("git_sha", core::EnvString("PERFBENCH_GIT_SHA", "unknown"))
      .Str("source_digest",
           core::EnvString("PERFBENCH_SOURCE_DIGEST", "unknown"))
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("compiler", PERFBENCH_COMPILER)
      .Int("nproc", sysconf(_SC_NPROCESSORS_ONLN))
      .Int("kernel_threads", core::NumThreads())
      .Int("seed", static_cast<int64_t>(options.seed))
      .Bool("fusion", tensor::FusionEnabled())
      .Str("workload", options.workload)
      .Int("seconds", options.seconds)
      .Bool("trace", options.trace)
      .Raw("sizes", sizes.Finish());
  return header.Finish();
}

int Main(int argc, char** argv, double process_start_s) {
  Options options;
  options.process_start_s = process_start_s;
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return Usage("expected --flag value pairs, got " + key);
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  int64_t seed = 0, seconds = 0, trace = 0;
  for (const auto& [key, value] : flags) {
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace") {
      return Usage("unknown flag --" + key);
    }
  }
  if (!ParseInt(flags["seed"], &seed) || seed < 0) {
    return Usage("--seed must be a non-negative integer");
  }
  if (!ParseInt(flags["seconds"], &seconds) || seconds < 1 ||
      seconds > 600) {
    return Usage("--seconds must be an integer in [1, 600]");
  }
  if (!ParseInt(flags["trace"], &trace) || (trace != 0 && trace != 1)) {
    return Usage("--trace must be 0 or 1");
  }
  const auto workload = Workloads().find(flags["workload"]);
  if (workload == Workloads().end()) {
    return Usage("unknown workload '" + flags["workload"] + "'");
  }
  options.workload = workload->first;
  options.seed = static_cast<uint64_t>(seed);
  options.seconds = static_cast<int32_t>(seconds);
  options.trace = trace == 1;

  Report report;
  workload->second(options, &report);

  std::printf("# header %s\n", Header(options, report).c_str());
  Json metrics;
  auto print = [&](const std::string& name, double value,
                   const std::string& unit) {
    std::printf("  %-34s %16.6f %s\n", name.c_str(), value, unit.c_str());
    metrics.Raw(name, Json().Num("value", value).Str("unit", unit).Finish());
  };
  if (options.trace) {
    for (const auto& [name, unit] : LayerMetrics()) {
      const auto it = report.layers().find(name);
      print(name, it == report.layers().end() ? 0.0 : it->second, unit);
    }
  } else {
    for (const Metric& m : report.end_to_end()) print(m.name, m.value, m.unit);
  }
  std::printf("  %-34s %16.6f frac (%lld of %lld ops)\n", "ops_failed_frac",
              static_cast<double>(report.failed()) /
                  static_cast<double>(std::max<int64_t>(1, report.attempted())),
              static_cast<long long>(report.failed()),
              static_cast<long long>(report.attempted()));
  for (const std::string& note : report.notes()) {
    std::printf("# %s\n", note.c_str());
  }
  for (const std::string& failure : report.failures()) {
    std::printf("# CHECK FAILED: %s\n", failure.c_str());
  }
  Json result;
  result.Bool("correct", report.correct())
      .Int("attempted", report.attempted())
      .Int("failed", report.failed())
      .Raw("metrics", metrics.Finish());
  std::printf("%s\n", result.Finish().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace hygnn::perfbench

int main(int argc, char** argv) {
  const double start = hygnn::perfbench::NowSeconds();
  return hygnn::perfbench::Main(argc, argv, start);
}
