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
  return IndexSelectRows(x, std::make_shared<SegmentIndex>(indices, x.rows()));
}

Tensor IndexSelectRows(const Tensor& x, SegmentIndexPtr indices) {
  HYGNN_CHECK(x.defined() && indices != nullptr);
  HYGNN_CHECK_EQ(indices->num_segments(), x.rows())
      << "IndexSelectRows index is not over x's rows";
  auto out = RecordOp("IndexSelectRows", OpKind::kIndexSelectRows,
                      indices->size(), x.cols(), {x.impl()});
  out->rec->index = std::move(indices);
  return FinishRecord(std::move(out));
}

Tensor PairMatMul(const Tensor& h, const std::vector<int32_t>& a,
                  const std::vector<int32_t>& b, const Tensor& w) {
  HYGNN_CHECK(h.defined() && w.defined());
  HYGNN_CHECK_EQ(w.rows(), 2 * h.cols());
  const int64_t n = static_cast<int64_t>(a.size());
  HYGNN_CHECK_GT(n, 0);
  HYGNN_CHECK_EQ(static_cast<int64_t>(b.size()), n);
  const auto rows = static_cast<int32_t>(h.rows());
  HYGNN_CHECK(IndicesInRange(a.data(), n, 0, rows) &&
              IndicesInRange(b.data(), n, 0, rows))
      << "PairMatMul index out of range [0, " << h.rows() << ")";
  auto out = RecordOp("PairMatMul", OpKind::kPairMatMul, n, w.cols(),
                      {h.impl(), w.impl()});
  out->rec->ibuf.reserve(static_cast<size_t>(2 * n));
  out->rec->ibuf.assign(a.begin(), a.end());
  out->rec->ibuf.insert(out->rec->ibuf.end(), b.begin(), b.end());
  return FinishRecord(std::move(out));
}

Tensor LeakyPairScore(const Tensor& x, const Tensor& table,
                      const std::vector<int32_t>& idx, const Tensor& w,
                      float slope) {
  HYGNN_CHECK(table.defined());
  return LeakyPairScore(x, table,
                        std::make_shared<SegmentIndex>(idx, table.rows()), w,
                        slope);
}

Tensor LeakyPairScore(const Tensor& x, const Tensor& table,
                      SegmentIndexPtr idx, const Tensor& w, float slope) {
  HYGNN_CHECK(x.defined() && table.defined() && w.defined() &&
              idx != nullptr);
  HYGNN_CHECK_EQ(w.rows(), x.cols() + table.cols());
  HYGNN_CHECK_EQ(w.cols(), 1);
  HYGNN_CHECK_EQ(idx->size(), x.rows());
  HYGNN_CHECK_EQ(idx->num_segments(), table.rows())
      << "LeakyPairScore index is not over table's rows";
  HYGNN_DCHECK(std::isfinite(slope));
  auto out = RecordOp("LeakyPairScore", OpKind::kLeakyPairScore, x.rows(), 1,
                      {x.impl(), table.impl(), w.impl()});
  out->rec->index = std::move(idx);
  out->rec->alpha = slope;
  return FinishRecord(std::move(out));
}

Tensor SegmentSoftmax(const Tensor& scores,
                      const std::vector<int32_t>& segment_ids,
                      int64_t num_segments) {
  return SegmentSoftmax(
      scores, std::make_shared<SegmentIndex>(segment_ids, num_segments));
}

Tensor SegmentSoftmax(const Tensor& scores, SegmentIndexPtr segments) {
  HYGNN_CHECK(scores.defined() && segments != nullptr);
  HYGNN_CHECK_EQ(scores.cols(), 1);
  HYGNN_CHECK_EQ(scores.rows(), segments->size());
  auto out = RecordOp("SegmentSoftmax", OpKind::kSegmentSoftmax, scores.rows(),
                      1, {scores.impl()});
  out->rec->index = std::move(segments);
  return FinishRecord(std::move(out));
}

Tensor SegmentSum(const Tensor& x, const std::vector<int32_t>& segment_ids,
                  int64_t num_segments) {
  HYGNN_CHECK(x.defined());
  HYGNN_CHECK_EQ(x.rows(), static_cast<int64_t>(segment_ids.size()));
  auto out = RecordOp("SegmentSum", OpKind::kSegmentSum, num_segments,
                      x.cols(), {x.impl()});
  out->rec->index = std::make_shared<SegmentIndex>(segment_ids, num_segments);
  return FinishRecord(std::move(out));
}

Tensor WeightedSegmentSum(const Tensor& x, const Tensor& w,
                          const std::vector<int32_t>& segment_ids,
                          int64_t num_segments) {
  return WeightedSegmentSum(
      x, w, std::make_shared<SegmentIndex>(segment_ids, num_segments));
}

Tensor WeightedSegmentSum(const Tensor& x, const Tensor& w,
                          SegmentIndexPtr segments) {
  HYGNN_CHECK(x.defined() && w.defined() && segments != nullptr);
  HYGNN_CHECK_EQ(w.cols(), 1);
  HYGNN_CHECK_EQ(w.rows(), x.rows());
  HYGNN_CHECK_EQ(x.rows(), segments->size());
  auto out = RecordOp("WeightedSegmentSum", OpKind::kWeightedSegmentSum,
                      segments->num_segments(), x.cols(),
                      {x.impl(), w.impl()});
  out->rec->index = std::move(segments);
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

}  // namespace hygnn::tensor
