#ifndef HYGNN_PERFBENCH_STATS_H_
#define HYGNN_PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hygnn::perfbench {

/// Nearest-rank percentile of `samples` (need not be sorted): the value
/// at rank ceil(p / 100 * n), 1-based. 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// The tail of a latency sample: the highest percentile on the ladder
/// p50, p75, p90, p95, p99, p99.9, p99.99, p99.999 that still has at
/// least `kTailMinBeyond` samples strictly above its nearest rank.
struct Tail {
  double percentile = 0.0;  ///< e.g. 99.9; 0 when no rung qualifies
  double value = 0.0;
  int64_t samples = 0;  ///< sample size the percentile was taken over
  int64_t beyond = 0;   ///< samples ranked above the percentile
  bool valid() const { return percentile > 0.0; }
  /// "p99.9" style label.
  std::string Label() const;
};
inline constexpr int64_t kTailMinBeyond = 10;
Tail TailOf(std::vector<double> samples);

/// Process resource usage (getrusage RUSAGE_SELF).
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  int64_t minflt = 0;
  double max_rss_mb = 0.0;
};
Usage ReadUsage();

/// Monotonic seconds since an arbitrary epoch (obs::NowNanos).
double NowSeconds();

}  // namespace hygnn::perfbench

#endif  // HYGNN_PERFBENCH_STATS_H_
