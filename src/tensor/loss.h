#ifndef HYGNN_TENSOR_LOSS_H_
#define HYGNN_TENSOR_LOSS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace hygnn::tensor {

/// Both losses record a tape node (tensor/tape.h) like every op in
/// tensor/ops.h: the value is computed when the loss is first read
/// (item(), Backward()), by the kernels in tensor/kernels/kernels.h.

/// Numerically stable binary cross-entropy on raw scores (logits):
///   loss = mean_i [ max(z,0) - z*y + log(1 + exp(-|z|)) ]
/// This is eq. (12) of the HyGNN paper (summed form there; we use the
/// mean so the learning rate is independent of batch size) fused with the
/// decoder's sigmoid for stability.
///
/// `logits` is [n,1]; `targets` holds n labels in {0, 1}.
Tensor BceWithLogitsLoss(const Tensor& logits,
                         const std::vector<float>& targets);

/// Fused softmax + cross-entropy on raw class scores: `logits` is
/// [n, k], `labels` holds n class indices in [0, k). Mean over rows.
/// Used by the typed-DDI extension (multi-relational prediction).
Tensor SoftmaxCrossEntropyLoss(const Tensor& logits,
                               const std::vector<int32_t>& labels);

}  // namespace hygnn::tensor

#endif  // HYGNN_TENSOR_LOSS_H_
