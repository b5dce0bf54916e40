#ifndef HYGNN_TENSOR_INIT_H_
#define HYGNN_TENSOR_INIT_H_

#include "core/rng.h"
#include "tensor/tensor.h"

namespace hygnn::tensor {

/// Glorot/Xavier uniform initialization: U(-a, a) with
/// a = sqrt(6 / (fan_in + fan_out)). Standard for attention/GNN weights.
Tensor XavierUniform(int64_t fan_in, int64_t fan_out, core::Rng* rng,
                     bool requires_grad = true);

/// Uniform initialization in [lo, hi).
Tensor UniformInit(int64_t rows, int64_t cols, float lo, float hi,
                   core::Rng* rng, bool requires_grad = true);

/// Gaussian initialization N(0, stddev^2).
Tensor NormalInit(int64_t rows, int64_t cols, float stddev, core::Rng* rng,
                  bool requires_grad = true);

}  // namespace hygnn::tensor

#endif  // HYGNN_TENSOR_INIT_H_
