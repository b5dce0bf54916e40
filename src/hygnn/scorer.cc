#include "hygnn/scorer.h"

#include <cmath>

#include "core/logging.h"

namespace hygnn::model {

float StableSigmoid(float z) {
  return z >= 0.0f ? 1.0f / (1.0f + std::exp(-z))
                   : std::exp(z) / (1.0f + std::exp(z));
}

std::vector<float> SigmoidAll(const tensor::Tensor& logits) {
  HYGNN_CHECK(logits.defined());
  HYGNN_CHECK_EQ(logits.cols(), 1);
  std::vector<float> probabilities(static_cast<size_t>(logits.rows()));
  for (int64_t i = 0; i < logits.rows(); ++i) {
    probabilities[static_cast<size_t>(i)] = StableSigmoid(logits.data()[i]);
  }
  return probabilities;
}

}  // namespace hygnn::model
