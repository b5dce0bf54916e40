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
/// The operator layer (tensor/ops.cc, and SpMM and the losses in
/// sparse.cc and loss.cc) computes nothing: each op call records a
/// pending TensorImpl carrying an OpRecord — the op kind plus whatever
/// payload the kernel dispatch needs — and returns immediately. The
/// first read of a pending tensor (Tensor::data / At / item / Backward
/// / ...) calls MaterializeTensor, which
///
///   1. *linearizes* the pending subgraph into a topologically-ordered
///      op tape (the same post-order DFS Tensor::Backward uses, so the
///      execution order is deterministic);
///   2. *executes* the tape through the kernel layer, one kernel
///      invocation per op.
///
/// Backward runs through the same executor: ExecuteNodeBackward
/// dispatches on the node's OpKind. There is no other way to run a
/// node, forward or backward.
///
/// Four ops stand for a composition of others on the hot paths: on the
/// decoder's, PairMatMul for MatMul of ConcatCols of two IndexSelectRows
/// of one table, and BiasRelu for Relu of AddRowBroadcast; on the
/// encoder's, LeakyPairScore for MatMul of LeakyRelu of ConcatCols of a
/// tensor and an IndexSelectRows, and WeightedSegmentSum for SegmentSum
/// of MulColumnBroadcast. Their kernels write the same bits, values and
/// gradients, as the compositions they replace (see DESIGN.md §12). The
/// backward pass keeps the seed engine's node order, so gradients are
/// memcmp-equal at any thread count.

class CsrMatrix;
class SegmentIndex;

/// Operator kinds the executor dispatches on — one per op that records
/// a tape node: tensor/ops.h, SpMM (sparse.h) and the losses (loss.h).
enum class OpKind : uint8_t {
  kMatMul,
  kAdd,
  kAddRowBroadcast,
  kMulColumnBroadcast,
  kConcatCols,
  kIndexSelectRows,
  kPairMatMul,
  kLeakyPairScore,
  kSegmentSoftmax,
  kSegmentSum,
  kWeightedSegmentSum,
  kRowwiseDot,
  kReduceSum,
  kRelu,
  kBiasRelu,
  kLeakyRelu,
  kDropout,
  kSpMM,
  kBceWithLogitsLoss,
  kSoftmaxCrossEntropyLoss,
};

/// Payload of one recorded op. Inputs are implicit: `parents` on the
/// owning TensorImpl, in the operand order the kernels expect.
struct OpRecord {
  OpKind kind = OpKind::kAdd;
  /// Scalar parameter: the LeakyRelu or LeakyPairScore slope. Unused
  /// otherwise.
  float alpha = 0.0f;
  /// Integer payload: PairMatMul's a indices followed by its b indices,
  /// or the SoftmaxCrossEntropyLoss labels.
  std::vector<int32_t> ibuf;
  /// The index of IndexSelectRows, LeakyPairScore and the three Segment
  /// ops, shared with the caller and with every other op that reads it
  /// (tensor/segment_index.h).
  std::shared_ptr<const SegmentIndex> index;
  /// Float payload: the Dropout mask (drawn at record time so the RNG
  /// stream order matches program order), the BceWithLogitsLoss
  /// targets, or the SoftmaxCrossEntropyLoss softmax cache (filled at
  /// execution time for the backward pass).
  std::shared_ptr<std::vector<float>> fbuf;
  /// The constant sparse matrix SpMM multiplies by.
  std::shared_ptr<const CsrMatrix> csr;
};

/// Allocates a pending tape node: shape, static op name, kind, and
/// parents (always stored — the executor needs them even for no-grad
/// nodes; they are released after execution when requires_grad is
/// false). No data is allocated and no kernel runs.
std::shared_ptr<TensorImpl> RecordOp(
    const char* op, OpKind kind, int64_t rows, int64_t cols,
    std::vector<std::shared_ptr<TensorImpl>> parents);

/// Final step of every recorded op: wraps the node into a Tensor. When
/// NumericsGuard is enabled the node is materialized immediately so the
/// guard attributes the first NaN/Inf to the op in program order.
Tensor FinishRecord(std::shared_ptr<TensorImpl> out);

/// Runs one node's backward step by its OpRecord kind; leaves and
/// nodes without a record have none. Called by Tensor::Backward in
/// reverse topological order; `time_ops` routes per-node wall time into
/// the obs per-op attribution table.
void ExecuteNodeBackward(TensorImpl* node, bool time_ops);

/// Always true: PairMatMul, BiasRelu, LeakyPairScore and
/// WeightedSegmentSum, the engine's fused ops, have no unfused mode.
/// Kept for the benchmark's run header.
inline bool FusionEnabled() { return true; }

/// Executor counters since the last ResetExecStats, safe to read
/// concurrently and intended for tests and benches. A buffer counted
/// in buffers_allocated may be recycled storage (buffers_recycled
/// counts those). It arrives zero-filled when its kernel adds into it;
/// otherwise recycled storage keeps its old values until the kernel
/// overwrites them.
struct ExecStatsSnapshot {
  uint64_t ops_executed = 0;       // kernel-level invocations
  uint64_t fused_groups = 0;       // PairMatMul, BiasRelu,
                                   // LeakyPairScore and
                                   // WeightedSegmentSum forwards
  uint64_t buffers_allocated = 0;  // output data buffers allocated
  uint64_t buffers_recycled = 0;   // output and gradient buffers, filled
                                   // or not, served from held storage
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
/// stream, so the draws follow program order at any thread count).
void DrawDropoutMask(core::Rng* rng, float p, float keep_scale, float* mask,
                     int64_t n);

}  // namespace hygnn::tensor

#endif  // HYGNN_TENSOR_TAPE_H_
