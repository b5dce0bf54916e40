#ifndef HYGNN_TENSOR_KERNELS_KERNELS_H_
#define HYGNN_TENSOR_KERNELS_KERNELS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/thread_pool.h"

namespace hygnn::core {
class Rng;
}  // namespace hygnn::core

/// Pure numeric kernel layer. Every function works on raw row-major
/// float buffers — no Tensor, no autograd, no graph wiring — so the
/// autograd layer (tensor/ops.cc) reduces to shape checks and
/// forward/backward dispatch, and alternative backends (SIMD, blocked,
/// sharded) can swap in underneath without touching the graph code.
///
/// Determinism contract: parallel kernels partition work so that every
/// output element is written by exactly one chunk and accumulated in
/// the same order as the sequential (threads = 1) execution. Results
/// are therefore bit-identical at any thread count. Accumulating
/// kernels (named *Accumulate or *Backward, plus the MatMul family and
/// Axpy) add into their destination; callers pass zero-filled buffers
/// to get plain assignment. The tensor engine's buffers come from
/// tensor::AssignZeros and TensorImpl::EnsureGrad: a buffer may be
/// recycled storage, but it always arrives zero-filled.
namespace hygnn::tensor::kernels {

/// Chunk sizes for core::ParallelFor. Fixed constants — never derived
/// from the thread count — so the partition (and thus any per-chunk
/// rounding behavior) is identical no matter how many workers run.
inline constexpr int64_t kElementGrain = 4096;  // cheap per-element maps
inline constexpr int64_t kRowGrain = 4;         // O(cols)+ work per row
inline constexpr int64_t kSegmentGrain = 16;    // per-segment reductions
/// Columns per chunk of a column-parallel reduction: 16 floats are one
/// 64-byte cache line, so each chunk reads whole lines of every row.
inline constexpr int64_t kLineGrain = 16;

// ---------------------------------------------------------------------------
// matmul.cc — dense products and layout transforms
//
// Rounding contract: each element of c gets the same float operations,
// in the same order, at any shape, tile or thread count.
//   MatMul, MatMulTN: for t ascending, c = MulAdd(a, b, c) wherever
//     a != 0. MulAdd rounds once (std::fma) when the target has FMA
//     (__FMA__) and twice (c + a*b) otherwise. An a of ±0 is skipped,
//     so c keeps its bits: -0 stays -0, and an inf or NaN in b never
//     meets a zero. The zeros come from ReLU outputs and their
//     gradients, e.g. the decoder's hidden layer and its backward pass.
//   MatMulNT: s = +0, then s = s + round(a*b) for t ascending with no
//     zero skip, then c = c + s.
// matmul.cc alone builds with -ffp-contract=off. Without it the
// compiler may fuse any a*b + c it sees into one FMA, and where it does
// depends on how it vectorizes a loop; with it, the source decides.
//
// All three run one register-tiled microkernel: a 4-row × 64-column
// tile of c accumulates in registers while t walks forward. MatMul
// reads a by rows, MatMulTN by columns (no transposed copy), MatMulNT
// packs bᵀ once per call, and a one-column c takes a matrix-vector
// tile with one accumulator per row.
// ---------------------------------------------------------------------------

/// c[n,m] += a[n,k] · b[k,m]. Parallel over rows of c.
void MatMul(const float* a, const float* b, float* c, int64_t n, int64_t k,
            int64_t m);

/// c[n,m] += a[n,k] · b[m,k]ᵀ — the transposed-B product used by
/// MatMul's dA backward. Parallel over rows of c. Packs bᵀ into a
/// per-thread buffer of k·m floats that is kept for the next call.
void MatMulNT(const float* a, const float* b, float* c, int64_t n, int64_t k,
              int64_t m);

/// c[k,m] += a[n,k]ᵀ · b[n,m] — the transposed-A product used by
/// MatMul's dB backward without materializing a transposed copy.
/// Parallel over rows of c (columns of a); each element accumulates
/// over i ascending.
void MatMulTN(const float* a, const float* b, float* c, int64_t n, int64_t k,
              int64_t m);

/// out[d,n] = xᵀ for x[n,d]. Parallel over output rows.
void Transpose(const float* x, int64_t n, int64_t d, float* out);

// ---------------------------------------------------------------------------
// elementwise.cc — maps, broadcasts, copies, reductions
// ---------------------------------------------------------------------------

/// c[i] = a[i] + b[i].
void Add(const float* a, const float* b, float* c, int64_t n);

/// c[i] = a[i] - b[i].
void Sub(const float* a, const float* b, float* c, int64_t n);

/// y[i] += alpha * x[i].
void Axpy(float alpha, const float* x, float* y, int64_t n);

/// c[i] += a[i] * b[i].
void MulAccumulate(const float* a, const float* b, float* c, int64_t n);

/// y[i] += value.
void AccumulateConstant(float value, float* y, int64_t n);

/// Ordered sequential sum of x[0..n) (left-to-right float addition —
/// intentionally not parallel so the result is the canonical ordered
/// reduction).
float Sum(const float* x, int64_t n);

/// out[i,j] = x[i,j] + bias[j] for x[n,d], bias[1,d]. Parallel rows.
void AddRowBroadcast(const float* x, const float* bias, float* out, int64_t n,
                     int64_t d);

/// out[j] += sum_i g[i,j] for g[n,d]. Parallel over chunks of
/// kLineGrain columns, each walking every row; each column accumulates
/// over i ascending (sequential order).
void ColumnSumAccumulate(const float* g, int64_t n, int64_t d, float* out);

/// out[i,j] = ScalarRelu(x[i,j] + bias[j]) for x[n,d], bias[1,d]: the
/// values AddRowBroadcast and then Relu write. Parallel rows.
void BiasRelu(const float* x, const float* bias, float* out, int64_t n,
              int64_t d);

/// Backward of BiasRelu from its output y[n,d] and incoming gradient
/// g[n,d], in one pass. The masked gradient t = 0 + g * (y > 0 ? 1 : 0)
/// is the value Relu's backward writes into AddRowBroadcast's zeroed
/// gradient: y > 0 exactly where ScalarReluGrad of the pre-activation
/// is 1, ±0 and NaN included. Then dx[i,j] += t and dbias[j] += t over
/// i ascending, as AddRowBroadcast's backward adds it; either output
/// may be null. Parallel over chunks of kLineGrain columns, each
/// walking every row.
void BiasReluBackward(const float* y, const float* g, int64_t n, int64_t d,
                      float* dx, float* dbias);

/// out[i,j] += s[i] * x[i,j] for x[n,d], s[n,1]. Parallel rows. Serves
/// MulColumnBroadcast forward (zeroed out) and its / RowwiseDot's
/// backward passes.
void RowScaleAccumulate(const float* s, const float* x, float* out, int64_t n,
                        int64_t d);

/// out[i] += a_i · b_i (row dot) for a,b[n,d], out[n,1]. Parallel rows.
void RowwiseDotAccumulate(const float* a, const float* b, float* out,
                          int64_t n, int64_t d);

/// dst[i, dst_off + j] = src[i, src_off + j] for j < width; src has
/// src_d columns, dst has dst_d. Parallel rows. Serves ConcatCols.
void CopyColumnBlock(const float* src, int64_t n, int64_t src_d,
                     int64_t src_off, float* dst, int64_t dst_d,
                     int64_t dst_off, int64_t width);

/// Accumulating variant of CopyColumnBlock (dst += src block).
void AccumulateColumnBlock(const float* src, int64_t n, int64_t src_d,
                           int64_t src_off, float* dst, int64_t dst_d,
                           int64_t dst_off, int64_t width);

/// dst[i] = src[indices[i]] (row gather, d columns). Parallel rows.
void GatherRows(const float* src, int64_t d, const int32_t* indices,
                int64_t n, float* dst);

/// dst[i] = src[a[i]] ‖ src[b[i]] for dst[n, 2d]: PairConcat's forward,
/// both rows of a pair gathered into one output row. Parallel rows. The
/// backward is SegmentSumAccumulate over each half (see tape.cc).
void GatherRowPairs(const float* src, int64_t d, const int32_t* a,
                    const int32_t* b, int64_t n, float* dst);

/// True iff every v[i] is in [lo, hi). Validation helper so the
/// autograd layer can bounds-check indices without its own loop.
bool AllInRange(const int32_t* v, int64_t n, int32_t lo, int32_t hi);

/// Inverted-dropout mask: mask[i] = keep_scale with probability 1 - p,
/// else 0. Sequential by construction — the RNG stream must be drawn
/// in index order for seed-reproducibility at any thread count.
void DropoutMask(core::Rng* rng, float p, float keep_scale, float* mask,
                 int64_t n);

/// out_i = x_i / max(||x_i||, eps) per row; norms[i] receives the
/// clamped norm for the backward pass. Parallel rows.
void L2NormalizeRows(const float* x, int64_t n, int64_t d, float eps,
                     float* out, float* norms);

/// dx_i += (g_i - y_i * (g_i · y_i)) / norms[i]. Parallel rows.
void L2NormalizeRowsBackward(const float* g, const float* y,
                             const float* norms, int64_t n, int64_t d,
                             float* dx);

/// Numerically-stabilized softmax over each row of x[n,k]. Parallel
/// rows.
void RowSoftmax(const float* x, int64_t n, int64_t k, float* out);

/// dx_i += y_i ⊙ (g_i - (g_i · y_i)) per row. Parallel rows.
void RowSoftmaxBackward(const float* g, const float* y, int64_t n, int64_t k,
                        float* dx);

/// out[i] = fn(x[i]) — the shared forward for activation / pointwise
/// ops (Relu, Sigmoid, Tanh, Exp, Log, ...). Parallel over elements.
template <typename Fn>
void RowwiseMap(const float* x, float* out, int64_t n, Fn fn) {
  core::ParallelFor(0, n, kElementGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) out[i] = fn(x[i]);
  });
}

/// dx[i] += g[i] * dydx(x[i], y[i]) — the shared backward for
/// RowwiseMap ops. Parallel over elements.
template <typename Dydx>
void RowwiseMapGradAccumulate(const float* x, const float* y, const float* g,
                              float* dx, int64_t n, Dydx dydx) {
  core::ParallelFor(0, n, kElementGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) dx[i] += g[i] * dydx(x[i], y[i]);
  });
}

// ---------------------------------------------------------------------------
// Scalar activation bodies — shared by the RowwiseMap ops and BiasRelu,
// so the one-op and the two-op forms round alike.
// ---------------------------------------------------------------------------

inline float ScalarRelu(float v) { return v > 0.0f ? v : 0.0f; }
inline float ScalarReluGrad(float x) { return x > 0.0f ? 1.0f : 0.0f; }

inline float ScalarLeakyRelu(float v, float slope) {
  return v >= 0.0f ? v : slope * v;
}
inline float ScalarLeakyReluGrad(float x, float slope) {
  return x >= 0.0f ? 1.0f : slope;
}

/// Numerically-stable two-branch logistic (never exponentiates a
/// positive argument).
inline float ScalarSigmoid(float v) {
  if (v >= 0.0f) {
    const float z = std::exp(-v);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(v);
  return z / (1.0f + z);
}
inline float ScalarSigmoidGrad(float y) { return y * (1.0f - y); }

inline float ScalarTanh(float v) { return std::tanh(v); }
inline float ScalarTanhGrad(float y) { return 1.0f - y * y; }

inline float ScalarExp(float v) { return std::exp(v); }

inline float ScalarLog(float v, float eps) {
  return std::log(std::max(v, eps));
}
inline float ScalarLogGrad(float x, float eps) {
  return 1.0f / std::max(x, eps);
}

// ---------------------------------------------------------------------------
// segment.cc — per-segment attention primitives
// ---------------------------------------------------------------------------

/// Softmax of scores[n,1] within each segment (see ops.h
/// SegmentSoftmax). Rows are grouped by segment internally (a stable
/// counting sort), then segments are processed in parallel; each
/// segment's rows are visited in ascending row order so sums match the
/// sequential accumulation bit-for-bit. Empty segments are fine.
/// Requires every seg[i] in [0, num_segments).
void SegmentSoftmax(const float* scores, const int32_t* seg, int64_t n,
                    int64_t num_segments, float* out);

/// dscores[i] += y_i * (g_i - sum_{j in seg(i)} g_j y_j). Parallel
/// over segments with the same grouping/order contract as the forward.
void SegmentSoftmaxBackward(const float* g, const float* y,
                            const int32_t* seg, int64_t n,
                            int64_t num_segments, float* dscores);

/// out[s] += sum_{i: seg[i]==s} x[i] for n rows of d floats, row i at
/// x + i * x_stride (x_stride >= d), and out[num_segments,d]. Parallel
/// over segments; rows of a segment accumulate in ascending row order.
/// With seg = gather indices it is the gather's backward: every source
/// row accumulates in the sequential scatter order, dst[idx[i]] +=
/// src[i] for i ascending.
void SegmentSumAccumulate(const float* x, int64_t x_stride,
                          const int32_t* seg, int64_t n, int64_t d,
                          float* out, int64_t num_segments);

/// dx[i] += g[seg[i]] (broadcast of the segment gradient back to every
/// member row). Parallel over rows — writes are disjoint.
void SegmentSumBackward(const float* g, const int32_t* seg, int64_t n,
                        int64_t d, float* dx);

}  // namespace hygnn::tensor::kernels

#endif  // HYGNN_TENSOR_KERNELS_KERNELS_H_
