#ifndef HYGNN_NN_LINEAR_H_
#define HYGNN_NN_LINEAR_H_

#include "core/rng.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace hygnn::nn {

/// Affine layer y = x W + b with Xavier-initialized W ([in, out]).
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, bool use_bias,
         core::Rng* rng);

  /// x is [n, in]; returns [n, out].
  tensor::Tensor Forward(const tensor::Tensor& x) const;

  std::vector<tensor::Tensor> Parameters() const override;

  const tensor::Tensor& weight() const { return weight_; }
  /// Undefined when the layer has no bias.
  const tensor::Tensor& bias() const { return bias_; }

 private:
  tensor::Tensor weight_;
  tensor::Tensor bias_;  // undefined when bias disabled
};

}  // namespace hygnn::nn

#endif  // HYGNN_NN_LINEAR_H_
