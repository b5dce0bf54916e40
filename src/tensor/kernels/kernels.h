#ifndef HYGNN_TENSOR_KERNELS_KERNELS_H_
#define HYGNN_TENSOR_KERNELS_KERNELS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/thread_pool.h"

namespace hygnn::core {
class Rng;
struct Csr;
}  // namespace hygnn::core

/// Pure numeric kernel layer. Every function works on raw row-major
/// float buffers — no Tensor, no autograd, no graph wiring. The
/// recording layer (ops.cc, loss.cc, sparse.cc) only records tape
/// nodes, and the tape executor (tape.cc) is the one caller that
/// dispatches them here, forward and backward, so alternative backends
/// (SIMD, blocked, sharded) can swap in underneath without touching
/// the graph code.
///
/// Determinism contract: parallel kernels partition work so that every
/// output element is written by exactly one chunk and accumulated in
/// the same order as the sequential (threads = 1) execution. Results
/// are therefore bit-identical at any thread count. Bit-identity covers
/// every value except a NaN's sign and payload: where two NaNs meet in
/// an add, x86 keeps the first operand's NaN, and the compiler picks
/// the operand order, so which NaN survives is not part of any
/// contract here. Accumulating
/// kernels (named *Accumulate or *Backward, plus MatMulTN and Axpy) add
/// into their destination; callers pass zero-filled buffers to get
/// plain assignment. MatMul and every kernel that writes with `=`
/// overwrite each element without reading it, and MatMulNT does either,
/// as its caller states. The tensor engine zero-fills a buffer
/// (tensor::AssignZeros, TensorImpl::EnsureGrad) only for a kernel that
/// adds into it; storage for an overwriting kernel may arrive holding
/// old values, or NaN in DCHECK builds.
namespace hygnn::tensor::kernels {

/// Chunk sizes for core::ParallelFor. Fixed constants — never derived
/// from the thread count — so the partition (and thus any per-chunk
/// rounding behavior) is identical no matter how many workers run. The
/// dense products (matmul.cc) size their chunks from the product's
/// shape instead, by the same rule.
inline constexpr int64_t kElementGrain = 4096;  // cheap per-element maps
inline constexpr int64_t kRowGrain = 4;         // O(cols)+ work per row
inline constexpr int64_t kSegmentGrain = 16;    // per-segment reductions
/// Columns per chunk of a column-parallel reduction: 16 floats are one
/// 64-byte cache line, so each chunk reads whole lines of every row.
inline constexpr int64_t kLineGrain = 16;

/// c + a·b as the kernels round a multiply-add: once, fused (std::fma),
/// on targets with FMA; elsewhere a rounded product and then a rounded
/// sum, which a target without FMA cannot fuse even in a file built with
/// contraction on. The one spelling of every contraction the rounding
/// contracts below name.
inline float MulAdd(float a, float b, float c) {
#if defined(__FMA__)
  return std::fma(a, b, c);
#else
  return c + a * b;
#endif
}

// ---------------------------------------------------------------------------
// matmul.cc — dense products and layout transforms
//
// Rounding contract: each element of c gets the same float operations,
// in the same order, at any shape, tile, chunk, block or thread count.
//   MatMul, MatMulTN: for t ascending, acc = MulAdd(a, b, acc) wherever
//     a != 0, from acc = +0 (MatMul) or acc = c (MatMulTN), then
//     c = acc. MulAdd rounds once (std::fma) when the target has FMA
//     (__FMA__) and twice (acc + a*b) otherwise. An a of ±0 is skipped,
//     so acc keeps its bits: -0 stays -0, and an inf or NaN in b never
//     meets a zero. The zeros come from ReLU outputs and their
//     gradients, e.g. the decoder's hidden layer and its backward pass.
//     MatMul's literal +0 start gives the bits that MatMulTN's start
//     gives on a zero-filled c.
//   MatMulNT: s = +0, then s = s + round(a*b) for t ascending with no
//     zero skip, then c = s (Store::kOverwrite) or c = c + s
//     (Store::kAccumulate). A sum that starts at +0 is never -0, so
//     +0 + s is s bit for bit, and the two modes agree on a c of +0.
// As in the determinism contract above, a NaN's sign and payload are
// outside this contract: an element that is NaN stays NaN, but which
// of two NaNs survives an add is the compiler's operand order.
// matmul.cc alone builds with -ffp-contract=off. Without it the
// compiler may fuse any a*b + c it sees into one FMA, and where it does
// depends on how it vectorizes a loop; with it, the source decides.
//
// All three share one register tiling: a 4-row × 64-column tile of c
// accumulates in registers while t walks forward. MatMul reads a by
// rows, MatMulTN by columns (no transposed copy), MatMulNT packs bᵀ
// once per call, and a one-column c takes a 16-row matrix-vector tile
// with one accumulator per row. The target ISA fixes at build time
// which tile runs a full 64-column block (HYGNN_DENSE_TILE_AVX512
// below). With AVX-512F and FMA it is VectorTile: sixteen explicit
// 512-bit accumulators, b's row loaded once per t for all four rows,
// and MulAdd's zero skip as a mask of a != 0 instead of a branch.
// Elsewhere it is the portable Tile, whose register width the compiler
// picks. The last, narrower column block and the one-column tile are
// portable on every target. Both tiles give each element the float
// operations above, in the same order, so they write the same bits.
//
// A tile may read a row of its left operand, of c or of the row its
// sums start from through an index, and MatMulTN's reduction rows
// through an index. That changes where the operands come from, not
// what any element computes, so PairMatMul keeps the bits of the
// products it replaces:
//   forward: U = h·w[:d] over the rows of h that a names, then row i
//     of z continues U[a[i]]'s MulAdd chains over h[b[i]]·w[d:], which
//     are the steps the [n, 2d] pair input's row would take after its
//     first d.
//   dw: MatMulTN of the pair input, its reduction row t fetched as
//     h[a[t]] for rows [0, d) of dw and as h[b[t]] for rows [d, 2d).
//   dh: each pair's half of g·wᵀ as MatMulNT rounds it, added into
//     dh's row one pair at a time: for each row, its b-half pairs in
//     ascending order, then its a-half pairs, as the gathers' backward
//     adds them. How the pairs are blocked, grouped and chunked on the
//     way changes no row's order.
// LeakyPairScore keeps the bits of
// MatMul(LeakyRelu(ConcatCols(x, IndexSelectRows(table, idx))), w) for a
// one-column w the same way. Row i of its input is x's row i followed by
// table's row idx[i], each value LeakyRelu'd (ScalarLeakyRelu) as it is
// read:
//   forward: MatMul's one-column chain: +0, then MulAddUnlessZero over
//     LR(x[i][t])·w[t] for t < dx, then over LR(table[idx[i]][t])·w[dx+t].
//     Sixteen rows run side by side, one chain per lane, on values
//     transposed in registers (AVX-512) or on the stack (portable).
//   dw: MatMulTN's chain from dw's value over LR(·)·g[i], i ascending,
//     rows [0, dx) reading x and rows [dx, dx+dt) table through idx.
//   dx, dtable: per element, dv = +0 + round(g[i]·w[t]) (MatMulNT's
//     overwrite value), then d = +0 + round(dv·ScalarLeakyReluGrad(·)):
//     LeakyRelu's backward into a zero-filled gradient, whose
//     `dx += g * dydx` GCC does not fuse (it selects g or g·slope, then
//     adds; objdump of tape.cc.o shows vmulps, a blend and vaddps). Then
//     dx[i][t] = dx[i][t] + d, as ConcatCols's backward adds it, and
//     dtable[idx[i]][t] = dtable[idx[i]][t] + (+0 + d) for each table
//     row's pairs in ascending order, as the gather's scatter adds its
//     zero-filled copy. The slope factor is applied per pair, before
//     the scatter.
//
// Chunks come from the shape, never the thread count. A MatMul or
// MatMulNT chunk is the fewest whole 4-row tiles of at least 2¹⁴
// multiply-adds, so the decoder's m = 1 and k = 1 products run 256-row
// chunks. A MatMulTN chunk is 32 rows of c, and it walks the reduction
// in blocks of 64 rows of a and b, running all its tiles over one block
// before the next. Between blocks a tile spills its accumulators to c;
// they are floats, so the spill rounds nothing. MatMulNT is not
// blocked, because its s starts at +0 and is added into c only once.
// ---------------------------------------------------------------------------

/// 1 when matmul.cc runs each full 64-column tile in explicit 16-lane
/// registers: the target has AVX-512F, and FMA, without which MulAdd
/// rounds twice. 0 on every other target, where the portable tile runs.
/// bench_micro_ops reports this decision next to its timings.
#if defined(__AVX512F__) && defined(__FMA__)
#define HYGNN_DENSE_TILE_AVX512 1
#else
#define HYGNN_DENSE_TILE_AVX512 0
#endif

/// c[n,m] = a[n,k] · b[k,m]. Parallel over rows of c. Never reads c.
void MatMul(const float* a, const float* b, float* c, int64_t n, int64_t k,
            int64_t m);

/// How MatMulNT writes c.
enum class Store : uint8_t {
  kOverwrite,   // c = s; c is never read
  kAccumulate,  // c = c + s
};

/// c[n,m] = a[n,k] · b[m,k]ᵀ, or c += it, as `store` says — the
/// transposed-B product used by MatMul's dA backward, which overwrites
/// a gradient it creates and adds into one another consumer started.
/// Parallel over rows of c. Packs bᵀ into a per-thread buffer of k·m
/// floats that is kept for the next call.
void MatMulNT(const float* a, const float* b, float* c, int64_t n, int64_t k,
              int64_t m, Store store);

/// c[k,m] += a[n,k]ᵀ · b[n,m] — the transposed-A product used by
/// MatMul's dB backward without materializing a transposed copy.
/// Parallel over rows of c (columns of a); each element accumulates
/// over i ascending, 64 rows of a and b at a time.
void MatMulTN(const float* a, const float* b, float* c, int64_t n, int64_t k,
              int64_t m);

/// z[n,m] = (h[a[i]] ‖ h[b[i]])_i · w[2d,m] for h[rows,d], without the
/// [n, 2d] pair input: the bits MatMul writes for that product (see the
/// rounding contract). Parallel over rows of z. Never reads z.
void PairMatMul(const float* h, int64_t rows, int64_t d, const int32_t* a,
                const int32_t* b, int64_t n, const float* w, int64_t m,
                float* z);

/// Backward of PairMatMul from the incoming gradient g[n,m]: dw[2d,m]
/// += the pair inputᵀ · g, then dh[rows,d] += each pair's halves of
/// g · wᵀ, b half first. The bits MatMulTN, MatMulNT and the gathers'
/// segment sums give over the pair input; dw and dh are each skipped
/// when null. Parallel over rows of dw, then over rows of dh.
void PairMatMulBackward(const float* h, int64_t rows, int64_t d,
                        const int32_t* a, const int32_t* b, int64_t n,
                        const float* w, int64_t m, const float* g, float* dh,
                        float* dw);

/// z[n,1] = LeakyRelu(x[i] ‖ table[idx[i]], slope) · w for x[n,dx],
/// table[·,dt] and a one-column w[dx+dt,1], without the [n, dx+dt]
/// input: the bits MatMul writes for that product (see the rounding
/// contract). Parallel over rows of z. Never reads z.
void LeakyPairScore(const float* x, int64_t n, int64_t dx, const float* table,
                    int64_t dt, const int32_t* idx, const float* w,
                    float slope, float* z);

/// Backward of LeakyPairScore from the incoming gradient g[n,1]:
/// grad_w += the LeakyRelu'd inputᵀ · g, then grad_x and grad_table +=
/// each pair's halves of the input gradient, the bits MatMul's,
/// LeakyRelu's, ConcatCols's and the gather's backward give in that
/// order (see the rounding contract). `table_groups` is idx grouped by
/// table row (its num_keys() rows); grad_table's rows add their pairs in
/// its order. Each gradient is skipped when null. Parallel over rows of
/// grad_w, then of grad_x, then of grad_table.
void LeakyPairScoreBackward(const float* x, int64_t n, int64_t dx,
                            const float* table, int64_t dt,
                            const int32_t* idx, const core::Csr& table_groups,
                            const float* w, float slope, const float* g,
                            float* grad_x, float* grad_table, float* grad_w);

// ---------------------------------------------------------------------------
// elementwise.cc — maps, broadcasts, copies, reductions and the losses
// ---------------------------------------------------------------------------

/// c[i] = a[i] + b[i].
void Add(const float* a, const float* b, float* c, int64_t n);

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

/// out[i] += RowDot(a_i, b_i, d) for a,b[n,d], out[n,1]. Parallel rows.
void RowwiseDotAccumulate(const float* a, const float* b, float* out,
                          int64_t n, int64_t d);

/// a · b over d floats: `acc += a[j] * b[j]` from +0, j ascending,
/// rounded as the compiler builds elementwise.cc, where contraction is
/// its choice. GCC 12 at -O3 on an FMA target rounds each product of
/// the vectorized body (vmulps, 8 lanes, then 4) and adds the lanes in
/// order (vaddss), and fuses only the last d mod 4 steps (vfmadd231ss);
/// without FMA every step rounds twice. Out of line and never inlined,
/// so RowwiseDotAccumulate and WeightedSegmentSumBackward run one
/// instruction sequence and their dots round alike at every d.
float RowDot(const float* a, const float* b, int64_t d);

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

/// True iff every v[i] is in [lo, hi). Validation helper so the
/// autograd layer can bounds-check indices without its own loop.
bool AllInRange(const int32_t* v, int64_t n, int32_t lo, int32_t hi);

/// Inverted-dropout mask: mask[i] = keep_scale with probability 1 - p,
/// else 0. Sequential by construction — the RNG stream must be drawn
/// in index order for seed-reproducibility at any thread count.
void DropoutMask(core::Rng* rng, float p, float keep_scale, float* mask,
                 int64_t n);

// The two losses are sequential by construction: each sums its terms
// in double, in index order, and that order is part of the bits. Like
// every file here but matmul.cc, elementwise.cc builds with the default
// FP contraction, so the compiler fuses these loops' a*b + c terms into
// FMAs where the target has them.

/// Mean binary cross-entropy on logits z[n] against targets y[n]:
/// mean_i [max(z,0) - z*y + log1p(exp(-|z|))], the double sum rounded
/// to float once, after the division.
float BceWithLogits(const float* z, const float* y, int64_t n);

/// dz[i] += (g / n) * (ScalarSigmoid(z[i]) - y[i]) for the loss's
/// incoming gradient g.
void BceWithLogitsBackward(const float* z, const float* y, int64_t n, float g,
                           float* dz);

/// Mean softmax cross-entropy of logits z[n,k] against class indices
/// labels[n], each in [0, k). Writes each row's softmax into
/// softmax[n,k] for the backward pass (exp and the denominator in
/// double, the quotient in float) and returns the mean of
/// -log(max(softmax[label], 1e-30)).
float SoftmaxCrossEntropy(const float* z, const int32_t* labels, int64_t n,
                          int64_t k, float* softmax);

/// dz[i,j] += (g / n) * (softmax[i,j] - [j == labels[i]]) for the
/// loss's incoming gradient g.
void SoftmaxCrossEntropyBackward(const float* softmax, const int32_t* labels,
                                 int64_t n, int64_t k, float g, float* dz);

/// out[i] = fn(x[i]) — the shared forward for the pointwise ops (Relu,
/// LeakyRelu). Parallel over elements.
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
// Scalar activation bodies — shared by the RowwiseMap ops, BiasRelu and
// the BCE backward, so every form of one function rounds alike.
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

// ---------------------------------------------------------------------------
// segment.cc — per-segment attention primitives
//
// The reductions take their rows grouped by segment: `groups` is a
// core::Csr of row positions, ascending within each segment (a
// tensor::SegmentIndex's groups(), or one GroupBy call), with one key
// per segment. Segments run in parallel and each visits its rows in
// ascending order, the order a sequential loop over the rows adds them
// in, so every sum keeps its bits at any thread count. Empty segments
// are fine.
//
// WeightedSegmentSum keeps the bits of SegmentSum(MulColumnBroadcast(x,
// w)), whose kernels (RowScaleAccumulate into a zeroed product, then
// SegmentSumAccumulate and its backward) GCC compiles with the
// contractions noted here:
//   forward: out[s][j] = +0, then out[s][j] + MulAdd(w[i], x[i][j], +0)
//     for each row i of s, ascending: the product as RowScaleAccumulate
//     rounds it (vfmadd onto the zeroed product), added as the segment
//     sum adds it.
//   dx: t[j] = +0 + g[seg[i]][j] (SegmentSum's backward into the
//     product's zeroed gradient), then dx[i][j] = MulAdd(w[i], t[j],
//     dx[i][j]) (RowScaleAccumulate, vfmadd).
//   dw: dw[i] = dw[i] + RowDot(t, x[i], d) (RowwiseDotAccumulate).
// ---------------------------------------------------------------------------

/// Softmax of scores[n,1] within each segment (see ops.h
/// SegmentSoftmax), for the rows grouped in `groups`.
void SegmentSoftmax(const float* scores, const core::Csr& groups,
                    float* out);

/// dscores[i] += y_i * (g_i - sum_{j in seg(i)} g_j y_j). Parallel
/// over segments, rows in ascending order, as the forward.
void SegmentSoftmaxBackward(const float* g, const float* y,
                            const core::Csr& groups, float* dscores);

/// out[s] += sum of x's rows of segment s, d floats each, for
/// out[groups.num_keys(), d]. Parallel over segments; rows of a segment
/// accumulate in ascending row order. Grouped by gather indices it is
/// the gather's backward: every source row accumulates in the
/// sequential scatter order, dst[idx[i]] += src[i] for i ascending.
void SegmentSumAccumulate(const float* x, const core::Csr& groups, int64_t d,
                          float* out);

/// dx[i] += g[seg[i]] (broadcast of the segment gradient back to every
/// member row). Parallel over rows — writes are disjoint.
void SegmentSumBackward(const float* g, const int32_t* seg, int64_t n,
                        int64_t d, float* dx);

/// out[s] = sum of w[i] · x[i] over segment s's rows, ascending, for
/// x[n,d], w[n,1] and out[groups.num_keys(), d]: SegmentSum of
/// MulColumnBroadcast's bits (see above) without the [n,d] product.
/// Parallel over segments. Never reads out.
void WeightedSegmentSum(const float* x, const float* w,
                        const core::Csr& groups, int64_t d, float* out);

/// Backward of WeightedSegmentSum from the incoming gradient g[S,d],
/// row i reading g's row seg[i]: dx[n,d] and dw[n,1] take the bits
/// SegmentSum's and then MulColumnBroadcast's backward give (see
/// above), without the product's gradient. Each is skipped when null.
/// Parallel over rows — writes are disjoint.
void WeightedSegmentSumBackward(const float* x, const float* w,
                                const int32_t* seg, int64_t n, int64_t d,
                                const float* g, float* dx, float* dw);

}  // namespace hygnn::tensor::kernels

#endif  // HYGNN_TENSOR_KERNELS_KERNELS_H_
