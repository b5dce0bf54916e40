// Loss recording: shape and label checks, then one tape node each. The
// loss loops are kernels (tensor/kernels/elementwise.cc) that the
// executor in tape.cc dispatches, forward and backward. Like ops.cc,
// this file holds no raw loops (lint rule 6) and calls no kernel
// (rule 13).

#include "tensor/loss.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/logging.h"
#include "tensor/tape.h"

namespace hygnn::tensor {

Tensor BceWithLogitsLoss(const Tensor& logits,
                         const std::vector<float>& targets) {
  HYGNN_CHECK(logits.defined());
  HYGNN_CHECK_EQ(logits.cols(), 1);
  HYGNN_CHECK_EQ(logits.rows(), static_cast<int64_t>(targets.size()));
  HYGNN_DCHECK(std::all_of(targets.begin(), targets.end(),
                           [](float y) { return y >= 0.0f && y <= 1.0f; }))
      << "BceWithLogitsLoss target outside [0, 1]";
  auto out = RecordOp("BceWithLogitsLoss", OpKind::kBceWithLogitsLoss, 1, 1,
                      {logits.impl()});
  out->rec->fbuf = std::make_shared<std::vector<float>>(targets);
  return FinishRecord(std::move(out));
}

Tensor SoftmaxCrossEntropyLoss(const Tensor& logits,
                               const std::vector<int32_t>& labels) {
  HYGNN_CHECK(logits.defined());
  const int64_t n = logits.rows(), k = logits.cols();
  HYGNN_CHECK_EQ(n, static_cast<int64_t>(labels.size()));
  HYGNN_CHECK(IndicesInRange(labels.data(), n, 0, static_cast<int32_t>(k)))
      << "SoftmaxCrossEntropyLoss label out of range [0, " << k << ")";
  auto out = RecordOp("SoftmaxCrossEntropyLoss",
                      OpKind::kSoftmaxCrossEntropyLoss, 1, 1, {logits.impl()});
  out->rec->ibuf = labels;
  return FinishRecord(std::move(out));
}

}  // namespace hygnn::tensor
