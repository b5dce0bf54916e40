#ifndef HYGNN_NN_MLP_H_
#define HYGNN_NN_MLP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace hygnn::nn {

/// Multi-layer perceptron with ReLU activations between layers (the
/// paper's decoder/classifier activation) and a linear final layer.
class Mlp : public Module {
 public:
  /// `dims` = {in, hidden..., out}; must have >= 2 entries.
  Mlp(const std::vector<int64_t>& dims, core::Rng* rng,
      float dropout = 0.0f);

  /// Forward pass; dropout is active only when `training`.
  tensor::Tensor Forward(const tensor::Tensor& x, bool training,
                         core::Rng* rng) const;

  /// Inference-mode forward (no dropout).
  tensor::Tensor Forward(const tensor::Tensor& x) const;

  /// Forward over the pair inputs h[a[i]] ‖ h[b[i]] of an [N, in / 2]
  /// table h, without writing them: layer 0 runs as one
  /// tensor::PairMatMul. Bit-identical to Forward of the concatenated
  /// rows, values and gradients.
  tensor::Tensor ForwardPairs(const tensor::Tensor& h,
                              const std::vector<int32_t>& a,
                              const std::vector<int32_t>& b, bool training,
                              core::Rng* rng) const;

  std::vector<tensor::Tensor> Parameters() const override;

 private:
  /// Every layer after layer 0's product z = x · W0.
  tensor::Tensor FromFirstProduct(tensor::Tensor z, bool training,
                                  core::Rng* rng) const;

  std::vector<std::unique_ptr<Linear>> layers_;
  float dropout_;
};

}  // namespace hygnn::nn

#endif  // HYGNN_NN_MLP_H_
