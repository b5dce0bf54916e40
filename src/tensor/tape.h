#ifndef HYGNN_TENSOR_TAPE_H_
#define HYGNN_TENSOR_TAPE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace hygnn::core {
class Rng;
}  // namespace hygnn::core

namespace hygnn::tensor {

/// Record-then-execute tape for the autograd engine (DESIGN.md §12).
///
/// The operator layer (tensor/ops.cc) no longer computes anything: each
/// op call records a pending TensorImpl carrying an OpRecord — the op
/// kind plus whatever payload the kernel dispatch needs — and returns
/// immediately. The first read of a pending tensor (Tensor::data / At /
/// item / Backward / ...) calls MaterializeTensor, which
///
///   1. *linearizes* the pending subgraph into a topologically-ordered
///      op tape (the same post-order DFS Tensor::Backward uses, so the
///      execution order is deterministic and independent of fusion);
///   2. runs the *fusion pass* (tensor/fuse.h) when enabled, merging
///      adjacent single-consumer elementwise ops into fused groups;
///   3. *executes* the tape through the kernel layer, one kernel
///      invocation per op — or per fused group.
///
/// Fused and unfused execution are bit-identical by construction: the
/// fused kernels chain the exact per-element scalar functions the
/// standalone kernels use, normalizing accumulate-into-zero writes the
/// same way (see kernels.h FusedChainForward). The backward pass keeps
/// the seed engine's node order and kernel calls exactly, so gradients
/// are memcmp-equal with fusion on or off, at any thread count.

struct FusedGroup;  // tensor/fuse.h

/// Operator kinds the executor dispatches on — one per op in
/// tensor/ops.h that records a tape node.
enum class OpKind : uint8_t {
  kMatMul,
  kAdd,
  kAddRowBroadcast,
  kSub,
  kMul,
  kScale,
  kMulColumnBroadcast,
  kConcatCols,
  kIndexSelectRows,
  kSegmentSoftmax,
  kSegmentSum,
  kRowwiseDot,
  kReduceSum,
  kRelu,
  kLeakyRelu,
  kSigmoid,
  kTanh,
  kExp,
  kLog,
  kDropout,
  kL2NormalizeRows,
  kRowSoftmax,
  kTranspose,
};

/// Payload of one recorded op. Inputs are implicit: `parents` on the
/// owning TensorImpl, in the operand order the kernels expect.
struct OpRecord {
  OpKind kind = OpKind::kAdd;
  /// Scalar parameter: Scale factor, LeakyRelu slope, Log /
  /// L2NormalizeRows epsilon. Unused otherwise.
  float alpha = 0.0f;
  /// Integer payload: IndexSelectRows indices, Segment* segment ids.
  std::vector<int32_t> ibuf;
  /// Float payload: the Dropout mask (drawn at record time so the RNG
  /// stream order matches eager execution), or the L2NormalizeRows
  /// norms cache (filled at execution time for the backward pass).
  std::shared_ptr<std::vector<float>> fbuf;
  int64_t num_segments = 0;
  /// Set on the tail node of a fused group; the executor runs the whole
  /// chain as one kernel invocation when it reaches the tail.
  std::shared_ptr<FusedGroup> group;
  /// True on non-tail members of a fused group: the node's value is
  /// never written (its data stays empty) because the chain recomputes
  /// intermediates per element.
  bool fused_member = false;
};

/// Allocates a pending tape node: shape, static op name, kind, and
/// parents (always stored — the executor needs them even for no-grad
/// nodes; they are released after execution when requires_grad is
/// false). `detached` forces requires_grad off regardless of parents
/// (TransposeNoGrad). No data is allocated and no kernel runs.
std::shared_ptr<TensorImpl> RecordOp(
    const char* op, OpKind kind, int64_t rows, int64_t cols,
    std::vector<std::shared_ptr<TensorImpl>> parents, bool detached = false);

/// Final step of every recorded op: wraps the node into a Tensor. When
/// NumericsGuard is enabled the node is materialized immediately so the
/// guard attributes the first NaN/Inf to the op in program order, the
/// same behavior the eager engine had (fusion is effectively disabled
/// under the guard — each op materializes alone).
Tensor FinishRecord(std::shared_ptr<TensorImpl> out);

/// Runs one node's backward step: the legacy backward_fn closure when
/// present, otherwise the OpRecord kind dispatch (or the fused-chain
/// backward on a group tail). Called by Tensor::Backward in reverse
/// topological order; `time_ops` routes per-node wall time into the obs
/// per-op attribution table (fused groups report under their
/// constituent-op name, e.g. "Fused[Dropout|Relu|Scale]").
void ExecuteNodeBackward(TensorImpl* node, bool time_ops);

/// Enables/disables the elementwise fusion pass process-wide. Defaults
/// to the HYGNN_FUSE environment flag (itself defaulting on); the
/// trainer overrides it from TrainConfig::fuse / --fuse.
void SetFusionEnabled(bool enabled);
bool FusionEnabled();

/// Executor counters since the last ResetExecStats, safe to read
/// concurrently and intended for tests and benches. A buffer counted
/// in buffers_allocated may be recycled storage (buffers_recycled
/// counts those), but it always arrives zero-filled.
struct ExecStatsSnapshot {
  uint64_t ops_executed = 0;       // kernel-level invocations (fused = 1)
  uint64_t fused_groups = 0;       // groups executed as one invocation
  uint64_t buffers_allocated = 0;  // output data buffers allocated
  uint64_t buffers_recycled = 0;   // zero-fills (AssignZeros,
                                   // EnsureGrad) served from held storage
  uint64_t bytes_held = 0;  // storage held for reuse now; a level that
                            // ResetExecStats leaves alone
};
ExecStatsSnapshot ExecStats();
void ResetExecStats();

/// Frees every buffer the recycler holds (see ~TensorImpl in tape.cc).
void ReleaseHeldBuffers();

/// Calls ReleaseHeldBuffers when it goes out of scope. Each of the
/// library's training loops declares one before its first tensor, so
/// it runs after every local tensor is gone: the loop returns by any
/// path with nothing held, and a process that trains and then serves
/// keeps no training-sized storage.
class ReleaseHeldBuffersOnReturn {
 public:
  ReleaseHeldBuffersOnReturn() = default;
  ~ReleaseHeldBuffersOnReturn() { ReleaseHeldBuffers(); }

  ReleaseHeldBuffersOnReturn(const ReleaseHeldBuffersOnReturn&) = delete;
  ReleaseHeldBuffersOnReturn& operator=(const ReleaseHeldBuffersOnReturn&) =
      delete;
};

/// Bounds-check helper so the recording layer can validate indices
/// without a raw kernel call (lint rule 13): true iff every v[i] is in
/// [lo, hi).
bool IndicesInRange(const int32_t* v, int64_t n, int32_t lo, int32_t hi);

/// Draws the inverted-dropout mask at record time (index-order RNG
/// stream, matching eager execution and any thread count).
void DrawDropoutMask(core::Rng* rng, float p, float keep_scale, float* mask,
                     int64_t n);

}  // namespace hygnn::tensor

#endif  // HYGNN_TENSOR_TAPE_H_
