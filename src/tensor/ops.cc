// Operator layer: shape checks and graph wiring ONLY. Every op records
// a pending tape node (tensor/tape.h) and returns without computing —
// the executor in tape.cc owns all kernel dispatch, forward and
// backward. scripts/lint.py enforces both halves of the seam: this
// file contains no raw compute loops (rule 6) and no direct kernel
// invocations (rule 13), which keeps the backend seam (threading,
// SIMD, fused ops, alternative kernels) entirely below the op API.

#include "tensor/ops.h"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "core/logging.h"
#include "tensor/tape.h"

namespace hygnn::tensor {

Tensor MatMul(const Tensor& a, const Tensor& b) {
  HYGNN_CHECK(a.defined() && b.defined());
  HYGNN_CHECK_EQ(a.cols(), b.rows());
  auto out = RecordOp("MatMul", OpKind::kMatMul, a.rows(), b.cols(),
                      {a.impl(), b.impl()});
  return FinishRecord(std::move(out));
}

Tensor Add(const Tensor& a, const Tensor& b) {
  HYGNN_CHECK(a.defined() && b.defined());
  HYGNN_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  auto out =
      RecordOp("Add", OpKind::kAdd, a.rows(), a.cols(), {a.impl(), b.impl()});
  return FinishRecord(std::move(out));
}

Tensor AddRowBroadcast(const Tensor& x, const Tensor& bias) {
  HYGNN_CHECK(x.defined() && bias.defined());
  HYGNN_CHECK_EQ(bias.rows(), 1);
  HYGNN_CHECK_EQ(bias.cols(), x.cols());
  auto out = RecordOp("AddRowBroadcast", OpKind::kAddRowBroadcast, x.rows(),
                      x.cols(), {x.impl(), bias.impl()});
  return FinishRecord(std::move(out));
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  HYGNN_CHECK(a.defined() && b.defined());
  HYGNN_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  auto out =
      RecordOp("Sub", OpKind::kSub, a.rows(), a.cols(), {a.impl(), b.impl()});
  return FinishRecord(std::move(out));
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  HYGNN_CHECK(a.defined() && b.defined());
  HYGNN_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  auto out =
      RecordOp("Mul", OpKind::kMul, a.rows(), a.cols(), {a.impl(), b.impl()});
  return FinishRecord(std::move(out));
}

Tensor Scale(const Tensor& x, float s) {
  HYGNN_CHECK(x.defined());
  HYGNN_DCHECK(std::isfinite(s)) << "Scale by non-finite constant " << s;
  auto out = RecordOp("Scale", OpKind::kScale, x.rows(), x.cols(), {x.impl()});
  out->rec->alpha = s;
  return FinishRecord(std::move(out));
}

Tensor MulColumnBroadcast(const Tensor& x, const Tensor& w) {
  HYGNN_CHECK(x.defined() && w.defined());
  HYGNN_CHECK_EQ(w.cols(), 1);
  HYGNN_CHECK_EQ(w.rows(), x.rows());
  auto out = RecordOp("MulColumnBroadcast", OpKind::kMulColumnBroadcast,
                      x.rows(), x.cols(), {x.impl(), w.impl()});
  return FinishRecord(std::move(out));
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  HYGNN_CHECK(a.defined() && b.defined());
  HYGNN_CHECK_EQ(a.rows(), b.rows());
  auto out = RecordOp("ConcatCols", OpKind::kConcatCols, a.rows(),
                      a.cols() + b.cols(), {a.impl(), b.impl()});
  return FinishRecord(std::move(out));
}

Tensor IndexSelectRows(const Tensor& x, const std::vector<int32_t>& indices) {
  HYGNN_CHECK(x.defined());
  const int64_t n = static_cast<int64_t>(indices.size());
  HYGNN_CHECK_GT(n, 0);
  HYGNN_CHECK(
      IndicesInRange(indices.data(), n, 0, static_cast<int32_t>(x.rows())))
      << "IndexSelectRows index out of range [0, " << x.rows() << ")";
  auto out = RecordOp("IndexSelectRows", OpKind::kIndexSelectRows, n, x.cols(),
                      {x.impl()});
  out->rec->ibuf = indices;
  return FinishRecord(std::move(out));
}

Tensor PairConcat(const Tensor& x, const std::vector<int32_t>& a,
                  const std::vector<int32_t>& b) {
  HYGNN_CHECK(x.defined());
  const int64_t n = static_cast<int64_t>(a.size());
  HYGNN_CHECK_GT(n, 0);
  HYGNN_CHECK_EQ(static_cast<int64_t>(b.size()), n);
  const auto rows = static_cast<int32_t>(x.rows());
  HYGNN_CHECK(IndicesInRange(a.data(), n, 0, rows) &&
              IndicesInRange(b.data(), n, 0, rows))
      << "PairConcat index out of range [0, " << x.rows() << ")";
  auto out = RecordOp("PairConcat", OpKind::kPairConcat, n, 2 * x.cols(),
                      {x.impl()});
  out->rec->ibuf.reserve(static_cast<size_t>(2 * n));
  out->rec->ibuf.assign(a.begin(), a.end());
  out->rec->ibuf.insert(out->rec->ibuf.end(), b.begin(), b.end());
  return FinishRecord(std::move(out));
}

Tensor SegmentSoftmax(const Tensor& scores,
                      const std::vector<int32_t>& segment_ids,
                      int64_t num_segments) {
  HYGNN_CHECK(scores.defined());
  HYGNN_CHECK_EQ(scores.cols(), 1);
  HYGNN_CHECK_EQ(scores.rows(), static_cast<int64_t>(segment_ids.size()));
  const int64_t n = scores.rows();
  HYGNN_CHECK(IndicesInRange(segment_ids.data(), n, 0,
                             static_cast<int32_t>(num_segments)))
      << "SegmentSoftmax segment id out of range [0, " << num_segments << ")";
  auto out =
      RecordOp("SegmentSoftmax", OpKind::kSegmentSoftmax, n, 1, {scores.impl()});
  out->rec->ibuf = segment_ids;
  out->rec->num_segments = num_segments;
  return FinishRecord(std::move(out));
}

Tensor SegmentSum(const Tensor& x, const std::vector<int32_t>& segment_ids,
                  int64_t num_segments) {
  HYGNN_CHECK(x.defined());
  HYGNN_CHECK_EQ(x.rows(), static_cast<int64_t>(segment_ids.size()));
  const int64_t n = x.rows();
  HYGNN_CHECK(IndicesInRange(segment_ids.data(), n, 0,
                             static_cast<int32_t>(num_segments)))
      << "SegmentSum segment id out of range [0, " << num_segments << ")";
  auto out = RecordOp("SegmentSum", OpKind::kSegmentSum, num_segments, x.cols(),
                      {x.impl()});
  out->rec->ibuf = segment_ids;
  out->rec->num_segments = num_segments;
  return FinishRecord(std::move(out));
}

Tensor RowwiseDot(const Tensor& a, const Tensor& b) {
  HYGNN_CHECK(a.defined() && b.defined());
  HYGNN_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  auto out = RecordOp("RowwiseDot", OpKind::kRowwiseDot, a.rows(), 1,
                      {a.impl(), b.impl()});
  return FinishRecord(std::move(out));
}

Tensor ReduceSum(const Tensor& x) {
  HYGNN_CHECK(x.defined());
  auto out = RecordOp("ReduceSum", OpKind::kReduceSum, 1, 1, {x.impl()});
  return FinishRecord(std::move(out));
}

Tensor ReduceMean(const Tensor& x) {
  const float inv = 1.0f / static_cast<float>(x.size());
  return Scale(ReduceSum(x), inv);
}

Tensor Relu(const Tensor& x) {
  HYGNN_CHECK(x.defined());
  auto out = RecordOp("Relu", OpKind::kRelu, x.rows(), x.cols(), {x.impl()});
  return FinishRecord(std::move(out));
}

Tensor BiasRelu(const Tensor& z, const Tensor& bias) {
  HYGNN_CHECK(z.defined() && bias.defined());
  HYGNN_CHECK_EQ(bias.rows(), 1);
  HYGNN_CHECK_EQ(bias.cols(), z.cols());
  // The backward writes z's and the bias's gradients in one pass, which
  // needs two buffers.
  HYGNN_CHECK(z.impl() != bias.impl()) << "BiasRelu of a tensor with itself";
  auto out = RecordOp("BiasRelu", OpKind::kBiasRelu, z.rows(), z.cols(),
                      {z.impl(), bias.impl()});
  return FinishRecord(std::move(out));
}

Tensor LeakyRelu(const Tensor& x, float slope) {
  HYGNN_CHECK(x.defined());
  HYGNN_DCHECK(std::isfinite(slope));
  auto out =
      RecordOp("LeakyRelu", OpKind::kLeakyRelu, x.rows(), x.cols(), {x.impl()});
  out->rec->alpha = slope;
  return FinishRecord(std::move(out));
}

Tensor Sigmoid(const Tensor& x) {
  HYGNN_CHECK(x.defined());
  auto out =
      RecordOp("Sigmoid", OpKind::kSigmoid, x.rows(), x.cols(), {x.impl()});
  return FinishRecord(std::move(out));
}

Tensor Tanh(const Tensor& x) {
  HYGNN_CHECK(x.defined());
  auto out = RecordOp("Tanh", OpKind::kTanh, x.rows(), x.cols(), {x.impl()});
  return FinishRecord(std::move(out));
}

Tensor Exp(const Tensor& x) {
  HYGNN_CHECK(x.defined());
  auto out = RecordOp("Exp", OpKind::kExp, x.rows(), x.cols(), {x.impl()});
  return FinishRecord(std::move(out));
}

Tensor Log(const Tensor& x, float eps) {
  HYGNN_CHECK(x.defined());
  HYGNN_DCHECK_GE(eps, 0.0f);
  auto out = RecordOp("Log", OpKind::kLog, x.rows(), x.cols(), {x.impl()});
  out->rec->alpha = eps;
  return FinishRecord(std::move(out));
}

Tensor Dropout(const Tensor& x, float p, bool training, core::Rng* rng) {
  HYGNN_CHECK(x.defined());
  HYGNN_CHECK(p >= 0.0f && p < 1.0f);
  if (!training || p == 0.0f) return x;
  HYGNN_CHECK(rng != nullptr);
  auto out =
      RecordOp("Dropout", OpKind::kDropout, x.rows(), x.cols(), {x.impl()});
  const int64_t total = out->size();
  const float keep_scale = 1.0f / (1.0f - p);
  // The mask is drawn NOW, at record time, so the RNG stream advances
  // in program order — identical draws whether or not execution is
  // deferred, at any thread count.
  out->rec->fbuf = std::make_shared<std::vector<float>>(
      static_cast<size_t>(total), 0.0f);
  DrawDropoutMask(rng, p, keep_scale, out->rec->fbuf->data(), total);
  return FinishRecord(std::move(out));
}

Tensor L2NormalizeRows(const Tensor& x, float eps) {
  HYGNN_CHECK(x.defined());
  HYGNN_DCHECK_GT(eps, 0.0f);
  auto out = RecordOp("L2NormalizeRows", OpKind::kL2NormalizeRows, x.rows(),
                      x.cols(), {x.impl()});
  out->rec->alpha = eps;
  return FinishRecord(std::move(out));
}

Tensor RowSoftmax(const Tensor& x) {
  HYGNN_CHECK(x.defined());
  auto out = RecordOp("RowSoftmax", OpKind::kRowSoftmax, x.rows(), x.cols(),
                      {x.impl()});
  return FinishRecord(std::move(out));
}

Tensor TransposeNoGrad(const Tensor& x) {
  HYGNN_CHECK(x.defined());
  auto out = RecordOp("TransposeNoGrad", OpKind::kTranspose, x.cols(),
                      x.rows(), {x.impl()}, /*detached=*/true);
  return FinishRecord(std::move(out));
}

}  // namespace hygnn::tensor
