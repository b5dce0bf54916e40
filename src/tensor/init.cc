#include "tensor/init.h"

#include <cmath>

#include "core/logging.h"

namespace hygnn::tensor {

Tensor XavierUniform(int64_t fan_in, int64_t fan_out, core::Rng* rng,
                     bool requires_grad) {
  const float a =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return UniformInit(fan_in, fan_out, -a, a, rng, requires_grad);
}

Tensor UniformInit(int64_t rows, int64_t cols, float lo, float hi,
                   core::Rng* rng, bool requires_grad) {
  HYGNN_CHECK(rng != nullptr);
  Tensor t = Tensor::Zeros(rows, cols, requires_grad);
  float* d = t.data();
  const int64_t total = rows * cols;
  for (int64_t i = 0; i < total; ++i) {
    d[i] = lo + (hi - lo) * rng->UniformFloat();
  }
  return t;
}

Tensor NormalInit(int64_t rows, int64_t cols, float stddev, core::Rng* rng,
                  bool requires_grad) {
  HYGNN_CHECK(rng != nullptr);
  Tensor t = Tensor::Zeros(rows, cols, requires_grad);
  float* d = t.data();
  const int64_t total = rows * cols;
  for (int64_t i = 0; i < total; ++i) {
    d[i] = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return t;
}

}  // namespace hygnn::tensor
