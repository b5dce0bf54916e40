#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/optime.h"

namespace hygnn::perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(samples.size()));
  return samples[static_cast<size_t>(rank - 1)];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

std::string Tail::Label() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%g", percentile);
  return buf;
}

Tail TailOf(std::vector<double> samples) {
  static constexpr double kLadder[] = {50.0, 75.0, 90.0,   95.0,
                                       99.0, 99.9, 99.99, 99.999};
  Tail tail;
  tail.samples = static_cast<int64_t>(samples.size());
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  for (double p : kLadder) {
    const int64_t rank =
        std::max<int64_t>(1, static_cast<int64_t>(std::ceil(p / 100.0 * n -
                                                            1e-9)));
    const int64_t beyond = tail.samples - rank;
    if (beyond < kTailMinBeyond) break;
    tail.percentile = p;
    tail.value = samples[static_cast<size_t>(rank - 1)];
    tail.beyond = beyond;
  }
  return tail;
}

Usage ReadUsage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  Usage out;
  out.user_s = static_cast<double>(usage.ru_utime.tv_sec) +
               static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
  out.sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
              static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  out.minflt = usage.ru_minflt;
  out.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  return out;
}

double NowSeconds() { return static_cast<double>(obs::NowNanos()) * 1e-9; }

}  // namespace hygnn::perfbench
