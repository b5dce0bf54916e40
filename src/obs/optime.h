#ifndef HYGNN_OBS_OPTIME_H_
#define HYGNN_OBS_OPTIME_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace hygnn::obs {

/// Per-operator wall-time attribution for the tensor engine, keyed by
/// the same static `TensorImpl::op` tags NumericsGuard and GraphLint
/// use.
///  - Forward: the tape executor (tensor/tape.cc) calls OpStart before
///    it allocates a node's output and OpFinish once the kernel wrote
///    it; closure-based ops that compute eagerly (the losses in
///    tensor/loss.cc) bracket their own computation the same way.
///  - Backward: tensor::ExecuteNodeBackward (tensor/tape.cc) times
///    every node it runs, recorded or closure-based, and reports the
///    span through RecordBackward.
///  - The fused ops PairMatMul and BiasRelu are attributed under their
///    own names, not under the ops they replace.
/// Forward time is inclusive: a composite op that calls other ops
/// between its own start and finish includes their time.
///
/// Hot-path cost model (the part that must not perturb kernels):
///  - disabled: one relaxed atomic load per op, nothing else;
///  - enabled: two NowNanos reads plus relaxed fetch_adds into a
///    fixed lock-free slot table. No mutexes, no per-sample allocation
///    (the per-thread start stack reuses its capacity after warmup), so
///    thread-pool workers scoring pairs concurrently aggregate into the
///    same table without synchronization beyond the relaxed atomics.
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
/// attribution table, tensor::ExecuteNodeBackward) reads it;
/// scripts/lint.py rule 10 keeps every other std::chrono clock read
/// out of the tree.
uint64_t NowNanos();

/// Marks the start of the op that will produce `token` (the output
/// TensorImpl address — an opaque match key). No-op when disabled.
void OpStart(const void* token);

/// Closes the span opened by OpStart(token) and attributes the elapsed
/// time to `op` (a static string tag). Unmatched finishes (timing was
/// enabled mid-op) are dropped, never misattributed.
void OpFinish(const void* token, const char* op);

/// Records `nanos` of backward time for `op` directly:
/// tensor::ExecuteNodeBackward times each node's gradient step itself,
/// with no OpStart token.
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
