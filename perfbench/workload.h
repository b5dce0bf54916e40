#ifndef HYGNN_PERFBENCH_WORKLOAD_H_
#define HYGNN_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "setup.h"
#include "stats.h"

namespace hygnn::perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  int32_t seconds = 0;
  bool trace = false;
  /// Monotonic time of main() entry; set-up is timed from here.
  double process_start_s = 0.0;
};

/// Sets up `setup()` `kSetupRepeats` times and reports the median wall
/// time, so set-up time reads steadily despite a noisy host. Every
/// repeat but the last is torn down; the last one's state is what the
/// timed phase runs on. The first repeat is timed from process start.
inline constexpr int kSetupRepeats = 3;

/// A metric as printed: name, value and unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.
class Report {
 public:
  /// Input-size line of the output header.
  void Size(const std::string& key, double value) { sizes_[key] = value; }
  /// An end-to-end metric (printed with `--trace 0`).
  void EndToEnd(const std::string& name, double value,
                const std::string& unit);
  /// A per-layer metric (printed with `--trace 1`). Every per-layer
  /// metric the benchmark defines is printed by every workload; the
  /// ones a workload does not reach read 0.
  void Layer(const std::string& name, double value);
  /// A human-readable line printed above the result.
  void Note(const std::string& line) { notes_.push_back(line); }
  /// Records an output check that failed; the run exits non-zero.
  void Fail(const std::string& why);
  void CountOps(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return failures_.empty(); }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<Metric>& end_to_end() const { return end_to_end_; }
  const std::map<std::string, double>& layers() const { return layers_; }
  const std::map<std::string, double>& sizes() const { return sizes_; }
  const std::vector<std::string>& notes() const { return notes_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::map<std::string, double> sizes_;
  std::vector<Metric> end_to_end_;
  std::map<std::string, double> layers_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Tape op tags reported one by one as tensor.op.<Op>.fwd_ms/.bwd_ms;
/// every other tagged op is summed into tensor.op_other_ms.
inline constexpr const char* kReportedOps[] = {
    "MatMul",    "IndexSelectRows", "ConcatCols",      "MulColumnBroadcast",
    "LeakyRelu", "SegmentSum",      "SegmentSoftmax",  "AddRowBroadcast",
    "Relu",      "BceWithLogitsLoss"};

/// Every per-layer metric with its unit, in output order. BENCHMARK.json
/// lists the same names (run.py checks the two agree).
const std::vector<std::pair<std::string, std::string>>& LayerMetrics();

/// One round of a timed phase: per-op latencies (ms), pairs trained on
/// or scored, and the round's wall time.
struct Round {
  std::vector<double> op_ms;
  double pairs = 0.0;
  double wall_s = 0.0;
};

/// Reports the end-to-end metrics shared by all workloads. A timed
/// phase is split into rounds of a fixed op count; op_p50_ms,
/// op_tail_ms and pairs_per_s are medians over the rounds, so one
/// stalled stretch of a noisy host moves one round, not the result.
/// op_tail_ms is each round's TailOf percentile.
void ReportEndToEnd(const std::vector<double>& setup_s,
                    const std::vector<Round>& rounds, Report* report);

/// proc.* per-layer metrics from getrusage before and after a timed
/// phase of `ops` ops lasting `wall_s`.
void ReportProcess(const Usage& before, const Usage& after, int64_t ops,
                   double wall_s, Report* report);

/// Median of each set-up phase over the repeats, as per-layer metrics.
void ReportSetupPhases(const std::vector<SetupPhases>& phases,
                       Report* report);

/// The workloads. Each runs a fixed number of ops derived from
/// `options.seconds`, never a fixed duration.
void RunTrainFull(const Options& options, Report* report);
void RunTrainKmer(const Options& options, Report* report);
void RunServeInteractive(const Options& options, Report* report);
/// Not gated: its spreads on a KVM guest exceeded the largest bound
/// (perfbench/workloads.json); it runs for study and for a later gate.
void RunServeChurn(const Options& options, Report* report);
/// Open-loop probe: not a gated workload; steadiness.py records it to
/// show why the serving workloads are closed loop.
void RunOpenLoopProbe(const Options& options, Report* report);

}  // namespace hygnn::perfbench

#endif  // HYGNN_PERFBENCH_WORKLOAD_H_
