#ifndef HYGNN_CORE_CLOCK_H_
#define HYGNN_CORE_CLOCK_H_

#include <atomic>
#include <cstdint>

namespace hygnn::core {

/// Monotonic time-source seam, mirroring the core::FileSystem seam
/// (src/core/fs.h): every *semantic* time read in the library — request
/// deadlines and batching windows — goes through the active Clock, so
/// tests can swap in a ManualClock and drive "time passes"
/// deterministically instead of sleeping and hoping the scheduler
/// cooperates. Purely observational timing (obs histograms,
/// bench timers) reads MonotonicClock() through obs::NowNanos, never
/// the active clock — metrics may jitter, semantics may not, and a
/// ManualClock must never freeze a timer.
///
/// clock.cc holds the repository's one raw steady_clock read; lint
/// rule 10 (scripts/lint.py) rejects it in every other file.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Monotonic nanoseconds since an arbitrary epoch. Never decreases;
  /// immune to wall-clock adjustments.
  virtual uint64_t NowNanos() = 0;
};

/// The process-wide monotonic (steady_clock) backend.
Clock& MonotonicClock();

/// The clock every semantic-time consumer reads. Defaults to
/// MonotonicClock(); tests swap in a ManualClock with ScopedClock.
Clock& ActiveClock();

/// RAII override of ActiveClock for the current scope. Not thread-safe:
/// install before spawning work (e.g. before constructing a
/// serve::Server), as the library reads the active clock without
/// synchronization — the same contract as ScopedFileSystem.
class ScopedClock {
 public:
  explicit ScopedClock(Clock* clock);
  ~ScopedClock();

  ScopedClock(const ScopedClock&) = delete;
  ScopedClock& operator=(const ScopedClock&) = delete;

 private:
  Clock* previous_;
};

/// A clock that only moves when the test says so. Reads and advances
/// are atomic, so worker threads may read NowNanos concurrently with a
/// test thread advancing it (the common chaos-test shape: park a worker
/// on a FaultInjectingScorer stall, advance past a deadline, release).
class ManualClock : public Clock {
 public:
  explicit ManualClock(uint64_t start_nanos = 0) : nanos_(start_nanos) {}

  uint64_t NowNanos() override {
    return nanos_.load(std::memory_order_relaxed);
  }

  void AdvanceNanos(uint64_t nanos) {
    nanos_.fetch_add(nanos, std::memory_order_relaxed);
  }

  void AdvanceMicros(uint64_t micros) { AdvanceNanos(micros * 1000); }

 private:
  std::atomic<uint64_t> nanos_;
};

}  // namespace hygnn::core

#endif  // HYGNN_CORE_CLOCK_H_
