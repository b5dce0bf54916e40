#ifndef HYGNN_TENSOR_OPS_H_
#define HYGNN_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "tensor/tensor.h"

namespace hygnn::tensor {

/// All operators build the dynamic autograd graph: the result requires
/// grad iff any input does, and carries a closure that back-propagates
/// into its inputs when `Tensor::Backward()` runs on a downstream scalar.
///
/// This is the *autograd layer*: shape checks and graph wiring only.
/// The numeric work (forward and backward) is delegated to the raw
/// float kernels in tensor/kernels/kernels.h, which parallelize over
/// the global core::ThreadPool with bit-identical results at any
/// thread count (see DESIGN.md §7).

/// Dense matrix product: [n,k] x [k,m] -> [n,m].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Elementwise sum of same-shape tensors.
Tensor Add(const Tensor& a, const Tensor& b);

/// Adds a [1,d] bias row to every row of a [n,d] tensor.
Tensor AddRowBroadcast(const Tensor& x, const Tensor& bias);

/// Elementwise difference of same-shape tensors.
Tensor Sub(const Tensor& a, const Tensor& b);

/// Elementwise (Hadamard) product of same-shape tensors.
Tensor Mul(const Tensor& a, const Tensor& b);

/// Multiplies every element by the constant `s`.
Tensor Scale(const Tensor& x, float s);

/// Multiplies row i of x [n,d] by the scalar w[i] (w is [n,1]). This is
/// the attention-weighting primitive: out_i = w_i * x_i.
Tensor MulColumnBroadcast(const Tensor& x, const Tensor& w);

/// Concatenates along columns: [n,d1] ++ [n,d2] -> [n,d1+d2].
Tensor ConcatCols(const Tensor& a, const Tensor& b);

/// Gathers rows: out[i] = x[indices[i]]. Gradients scatter-add back.
Tensor IndexSelectRows(const Tensor& x, const std::vector<int32_t>& indices);

/// Gathers a pair of rows into one: out[i] = x[a[i]] ‖ x[b[i]], giving
/// [n, 2d] for n = a.size() = b.size(). Values and gradients are
/// bit-identical to ConcatCols(IndexSelectRows(x, a),
/// IndexSelectRows(x, b)), without the two [n, d] intermediates. The
/// pair decoders' input.
Tensor PairConcat(const Tensor& x, const std::vector<int32_t>& a,
                  const std::vector<int32_t>& b);

/// Softmax of a [n,1] score column computed independently within each
/// segment: out_i = exp(s_i) / sum_{j: seg[j]==seg[i]} exp(s_j).
/// Numerically stabilized by per-segment max subtraction. Empty segments
/// are allowed (they simply have no rows).
Tensor SegmentSoftmax(const Tensor& scores,
                      const std::vector<int32_t>& segment_ids,
                      int64_t num_segments);

/// Sums rows of x [n,d] into per-segment accumulators:
/// out[s] = sum_{i: seg[i]==s} x[i]; result is [num_segments, d].
Tensor SegmentSum(const Tensor& x, const std::vector<int32_t>& segment_ids,
                  int64_t num_segments);

/// Row-wise dot product of same-shape [n,d] tensors -> [n,1].
Tensor RowwiseDot(const Tensor& a, const Tensor& b);

/// Sum of all elements -> scalar [1,1].
Tensor ReduceSum(const Tensor& x);

/// Mean of all elements -> scalar [1,1].
Tensor ReduceMean(const Tensor& x);

/// Elementwise max(x, 0).
Tensor Relu(const Tensor& x);

/// Relu(AddRowBroadcast(z, bias)) as one op, for a [1,d] bias: one pass
/// forward and one backward, which also sums the bias gradient. Values
/// and gradients are bit-identical to the two-op form. z and bias must
/// be different tensors.
Tensor BiasRelu(const Tensor& z, const Tensor& bias);

/// Elementwise x >= 0 ? x : slope * x.
Tensor LeakyRelu(const Tensor& x, float slope = 0.01f);

/// Elementwise logistic sigmoid.
Tensor Sigmoid(const Tensor& x);

/// Elementwise hyperbolic tangent.
Tensor Tanh(const Tensor& x);

/// Elementwise exponential.
Tensor Exp(const Tensor& x);

/// Elementwise natural log of max(x, eps) for numerical safety.
Tensor Log(const Tensor& x, float eps = 1e-12f);

/// Inverted dropout: when `training`, zeroes each element with
/// probability p and scales survivors by 1/(1-p); identity otherwise.
Tensor Dropout(const Tensor& x, float p, bool training, core::Rng* rng);

/// Row-wise L2 normalization: out_i = x_i / max(||x_i||, eps).
Tensor L2NormalizeRows(const Tensor& x, float eps = 1e-12f);

/// Row-wise softmax of a [n, k] tensor (numerically stabilized).
Tensor RowSoftmax(const Tensor& x);

/// Transpose without autograd support (helper for inference paths).
Tensor TransposeNoGrad(const Tensor& x);

}  // namespace hygnn::tensor

#endif  // HYGNN_TENSOR_OPS_H_
