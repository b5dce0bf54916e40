#ifndef HYGNN_HYGNN_SCORER_H_
#define HYGNN_HYGNN_SCORER_H_

#include <vector>

#include "tensor/tensor.h"

namespace hygnn::model {

/// Numerically stable logistic function: never exponentiates a positive
/// argument, so it cannot overflow for any finite logit.
float StableSigmoid(float z);

/// Applies StableSigmoid to every element of a logit column
/// [n, 1] -> n probabilities.
std::vector<float> SigmoidAll(const tensor::Tensor& logits);

}  // namespace hygnn::model

#endif  // HYGNN_HYGNN_SCORER_H_
