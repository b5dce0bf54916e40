#ifndef HYGNN_OBS_METRICS_H_
#define HYGNN_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/mutex.h"
#include "core/thread_annotations.h"
#include "obs/optime.h"

namespace hygnn::obs {

/// Lightweight process-wide observability: named counters, gauges, and
/// fixed-bucket latency histograms, plus scoped timers for
/// instrumenting hot paths. Everything here is *passive* — recording a
/// metric never changes numerical results, and every instrumentation
/// site is gated on MetricsEnabled() so a run with metrics off pays
/// exactly one relaxed atomic load per site.
///
/// Thread-safety: metric handles returned by MetricsRegistry are stable
/// for the registry's lifetime and all mutators use relaxed atomics, so
/// kernel worker threads (core::ParallelFor) can record into shared
/// metrics without locks on the hot path. Registration (GetCounter /
/// GetGauge / GetHistogram) takes a mutex — do it once at setup, not
/// per-sample. The registry maps are HYGNN_GUARDED_BY-annotated, so
/// clang's -Wthread-safety proves every access holds the lock.

namespace internal {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace internal

/// True when the process is recording metrics. One relaxed load; this
/// is the gate every instrumentation site checks first.
inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Turns metric recording on or off process-wide. Off is the default.
void SetMetricsEnabled(bool enabled);

/// RAII enable/restore of MetricsEnabled for a scope (the trainer uses
/// this so a metrics-instrumented Fit leaves the process as it found it).
class ScopedMetricsEnabled {
 public:
  explicit ScopedMetricsEnabled(bool enabled);
  ~ScopedMetricsEnabled();

  ScopedMetricsEnabled(const ScopedMetricsEnabled&) = delete;
  ScopedMetricsEnabled& operator=(const ScopedMetricsEnabled&) = delete;

 private:
  bool previous_;
};

/// Monotonically increasing event count. Add is a relaxed fetch_add;
/// overflow wraps modulo 2^64 (well-defined, tested).
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins scalar (e.g. "current learning rate", "final loss").
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram for latencies (or any non-negative value).
/// Buckets are defined by ascending upper bounds; values above the last
/// bound land in an implicit overflow bucket. Observe is lock-free
/// (binary search + one relaxed fetch_add per sample); quantiles are
/// estimated by linear interpolation inside the containing bucket, so
/// p50/p95/p99 are exact to bucket resolution.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;

  /// Estimated value at quantile `q` in [0, 1]; 0 when empty. Values in
  /// the overflow bucket report the last finite bound.
  double Quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts (bounds().size() + 1 entries; last = overflow).
  std::vector<uint64_t> BucketCounts() const;

  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default latency bucket bounds in microseconds: 1us .. 10s on a
/// 1-2-5 grid. Shared by every latency histogram so files are
/// comparable across subsystems.
const std::vector<double>& DefaultLatencyBoundsUs();

/// Point-in-time copy of one metric, for serialization.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  std::string name;
  // Counter / gauge value.
  double value = 0.0;
  // Histogram-only fields.
  uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

/// Process-wide registry of named metrics. Handles are created on first
/// use and live until process exit, so instrumentation sites can cache
/// the pointer. Names are dotted paths ("train.epoch_us",
/// "serve.embedding_cache.hits") — see DESIGN.md §10 for the inventory.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// Empty `bounds` means DefaultLatencyBoundsUs(). Bounds are fixed at
  /// first registration; later calls ignore the argument.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = {});

  /// Point-in-time copy of every registered metric, sorted by name.
  std::vector<MetricSnapshot> Snapshot() const;

  /// Zeroes every registered metric's value (registrations survive, so
  /// cached handles stay valid). Test isolation helper.
  void ResetValues();

 private:
  MetricsRegistry() = default;

  mutable core::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      HYGNN_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      HYGNN_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      HYGNN_GUARDED_BY(mutex_);
};

/// Elapsed-time timer over NowNanos, the one monotonic clock read.
/// Times library hot paths, bench harnesses and tests alike.
class Timer {
 public:
  Timer() : start_nanos_(NowNanos()) {}
  double ElapsedSeconds() const {
    return static_cast<double>(NowNanos() - start_nanos_) * 1e-9;
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  uint64_t start_nanos_;
};

/// RAII latency sample: records elapsed microseconds into `histogram`
/// on destruction. Captures MetricsEnabled() at construction — when
/// metrics are off (or `histogram` is null) the constructor is one
/// relaxed load and the destructor a branch; no clock is read.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram)
      : histogram_(MetricsEnabled() ? histogram : nullptr),
        start_nanos_(histogram_ != nullptr ? NowNanos() : 0) {}
  ~ScopedTimer() {
    if (histogram_ != nullptr) {
      histogram_->Observe(static_cast<double>(NowNanos() - start_nanos_) /
                          1e3);
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  uint64_t start_nanos_;
};

}  // namespace hygnn::obs

#endif  // HYGNN_OBS_METRICS_H_
