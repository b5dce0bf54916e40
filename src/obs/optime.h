#ifndef HYGNN_OBS_OPTIME_H_
#define HYGNN_OBS_OPTIME_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace hygnn::obs {

/// Per-operator wall-time attribution for the tensor engine, keyed by
/// the same static `TensorImpl::op` tags NumericsGuard and GraphLint
/// use. The tape executor (tensor/tape.cc) runs every node, so it is
/// the one place that times them:
///  - Forward: tensor::MaterializeTensor times each node from before it
///    allocates the output until the kernel wrote it, and reports the
///    span through RecordForward.
///  - Backward: tensor::ExecuteNodeBackward times each node's gradient
///    step and reports it through RecordBackward.
///  - The fused ops PairMatMul, BiasRelu and LeakyPairScore are
///    attributed under their own names, not under the ops they replace.
/// A node's span covers that node alone: no op runs inside another.
///
/// Hot-path cost model (the part that must not perturb kernels):
///  - disabled: one relaxed atomic load per tape execution or backward
///    pass, nothing per op;
///  - enabled: two NowNanos reads per node plus relaxed fetch_adds into
///    a fixed lock-free slot table. No mutexes and no per-sample
///    allocation, so thread-pool workers scoring pairs concurrently
///    aggregate into the same table without synchronization beyond the
///    relaxed atomics.
/// Timing never touches tensor data: results are bit-identical with
/// timing on or off.

namespace internal {
extern std::atomic<bool> g_kernel_timing_enabled;
}  // namespace internal

/// True when per-op kernel timing is recording. One relaxed load.
inline bool KernelTimingEnabled() {
  return internal::g_kernel_timing_enabled.load(std::memory_order_relaxed);
}

/// Turns per-op timing on or off process-wide. Off is the default.
void SetKernelTimingEnabled(bool enabled);

/// Monotonic timestamp in nanoseconds: core::MonotonicClock(), never
/// the ActiveClock seam, so a test's ManualClock cannot freeze
/// observational time. Every span timer (Timer, ScopedTimer, this
/// attribution table, the tape executor) reads it;
/// scripts/lint.py rule 10 keeps every other std::chrono clock read
/// out of the tree.
uint64_t NowNanos();

/// Records `nanos` of forward time for `op`: tensor::MaterializeTensor
/// times each node it executes. No-op when disabled.
void RecordForward(const char* op, uint64_t nanos);

/// Records `nanos` of backward time for `op`:
/// tensor::ExecuteNodeBackward times each node's gradient step. No-op
/// when disabled.
void RecordBackward(const char* op, uint64_t nanos);

/// Aggregated time of one operator, forward and backward.
struct OpTimeEntry {
  std::string op;
  uint64_t forward_calls = 0;
  double forward_ms = 0.0;
  uint64_t backward_calls = 0;
  double backward_ms = 0.0;
};

/// Snapshot of every op observed since the last ResetOpTimes, sorted by
/// descending total time.
std::vector<OpTimeEntry> OpTimeSnapshot();

void ResetOpTimes();

}  // namespace hygnn::obs

#endif  // HYGNN_OBS_OPTIME_H_
