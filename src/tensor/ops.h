#ifndef HYGNN_TENSOR_OPS_H_
#define HYGNN_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "tensor/segment_index.h"
#include "tensor/tensor.h"

namespace hygnn::tensor {

/// All operators build the dynamic autograd graph: the result requires
/// grad iff any input does, and carries a tape record (tensor/tape.h)
/// that the executor runs forward on the first read and backward when
/// `Tensor::Backward()` runs on a downstream scalar.
///
/// This is the *recording layer*: shape checks and graph wiring only.
/// The numeric work (forward and backward) is the executor's, through
/// the raw float kernels in tensor/kernels/kernels.h, which parallelize
/// over the global core::ThreadPool with bit-identical results at any
/// thread count (see DESIGN.md §7).
///
/// The ops that read an index (IndexSelectRows, LeakyPairScore and the
/// Segment ops) record it as a SegmentIndex (tensor/segment_index.h).
/// They take it as a vector, which they validate and wrap in an object
/// of their own, or, the encoder's four, also as a SegmentIndexPtr the
/// caller built once, so a fixed index such as the incidence pairs is
/// validated and grouped once, not on every call.

/// Dense matrix product: [n,k] x [k,m] -> [n,m].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Elementwise sum of same-shape tensors.
Tensor Add(const Tensor& a, const Tensor& b);

/// Adds a [1,d] bias row to every row of a [n,d] tensor.
Tensor AddRowBroadcast(const Tensor& x, const Tensor& bias);

/// Multiplies row i of x [n,d] by the scalar w[i] (w is [n,1]):
/// out_i = w_i * x_i. WeightedSegmentSum is this op and a SegmentSum in
/// one, without the [n,d] product.
Tensor MulColumnBroadcast(const Tensor& x, const Tensor& w);

/// Concatenates along columns: [n,d1] ++ [n,d2] -> [n,d1+d2].
Tensor ConcatCols(const Tensor& a, const Tensor& b);

/// Gathers rows: out[i] = x[indices[i]]. Gradients scatter-add back,
/// through the index's grouping. The index has x.rows() segments.
Tensor IndexSelectRows(const Tensor& x, const std::vector<int32_t>& indices);
Tensor IndexSelectRows(const Tensor& x, SegmentIndexPtr indices);

/// The pair decoders' first product: out[i] = (h[a[i]] ‖ h[b[i]]) · w
/// for h [rows, d] and w [2d, m], giving [n, m] for n = a.size() =
/// b.size(). Values and gradients are bit-identical to
/// MatMul(ConcatCols(IndexSelectRows(h, a), IndexSelectRows(h, b)), w)
/// when w is a leaf, without the [n, 2d] pair input or its gradient:
/// the kernels read h's rows through a and b.
Tensor PairMatMul(const Tensor& h, const std::vector<int32_t>& a,
                  const std::vector<int32_t>& b, const Tensor& w);

/// The encoder's node-level attention score: out[i] =
/// LeakyRelu(x[i] ‖ table[idx[i]], slope) · w for x [n, dx], table
/// [rows, dt] and a one-column w [dx + dt, 1], giving [n, 1] for
/// n = idx.size(). Values and gradients are bit-identical to
/// MatMul(LeakyRelu(ConcatCols(x, IndexSelectRows(table, idx)), slope), w)
/// without the [n, dx + dt] input or its gradient: the kernels read
/// table's rows through idx, which has table.rows() segments.
Tensor LeakyPairScore(const Tensor& x, const Tensor& table,
                      const std::vector<int32_t>& idx, const Tensor& w,
                      float slope);
Tensor LeakyPairScore(const Tensor& x, const Tensor& table,
                      SegmentIndexPtr idx, const Tensor& w, float slope);

/// Softmax of a [n,1] score column computed independently within each
/// segment: out_i = exp(s_i) / sum_{j: seg[j]==seg[i]} exp(s_j).
/// Numerically stabilized by per-segment max subtraction. Empty segments
/// are allowed (they simply have no rows).
Tensor SegmentSoftmax(const Tensor& scores,
                      const std::vector<int32_t>& segment_ids,
                      int64_t num_segments);
Tensor SegmentSoftmax(const Tensor& scores, SegmentIndexPtr segments);

/// Sums rows of x [n,d] into per-segment accumulators:
/// out[s] = sum_{i: seg[i]==s} x[i]; result is [num_segments, d].
Tensor SegmentSum(const Tensor& x, const std::vector<int32_t>& segment_ids,
                  int64_t num_segments);

/// The attention-weighted message sum: out[s] = sum_{i: seg[i]==s}
/// w[i] * x[i] for x [n,d] and w [n,1], rows added in ascending order;
/// result is [num_segments, d]. Values and gradients are bit-identical
/// to SegmentSum(MulColumnBroadcast(x, w), ...) without the [n,d]
/// product or its gradient.
Tensor WeightedSegmentSum(const Tensor& x, const Tensor& w,
                          const std::vector<int32_t>& segment_ids,
                          int64_t num_segments);
Tensor WeightedSegmentSum(const Tensor& x, const Tensor& w,
                          SegmentIndexPtr segments);

/// Row-wise dot product of same-shape [n,d] tensors -> [n,1].
Tensor RowwiseDot(const Tensor& a, const Tensor& b);

/// Sum of all elements -> scalar [1,1].
Tensor ReduceSum(const Tensor& x);

/// Elementwise max(x, 0).
Tensor Relu(const Tensor& x);

/// Relu(AddRowBroadcast(z, bias)) as one op, for a [1,d] bias: one pass
/// forward and one backward, which also sums the bias gradient. Values
/// and gradients are bit-identical to the two-op form. z and bias must
/// be different tensors.
Tensor BiasRelu(const Tensor& z, const Tensor& bias);

/// Elementwise x >= 0 ? x : slope * x.
Tensor LeakyRelu(const Tensor& x, float slope = 0.01f);

/// Inverted dropout: when `training`, zeroes each element with
/// probability p and scales survivors by 1/(1-p); identity otherwise.
Tensor Dropout(const Tensor& x, float p, bool training, core::Rng* rng);

}  // namespace hygnn::tensor

#endif  // HYGNN_TENSOR_OPS_H_
