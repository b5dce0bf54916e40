#include "nn/mlp.h"

#include "core/logging.h"
#include "tensor/ops.h"

namespace hygnn::nn {

Mlp::Mlp(const std::vector<int64_t>& dims, core::Rng* rng, float dropout)
    : dropout_(dropout) {
  HYGNN_CHECK_GE(dims.size(), 2u);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1],
                                               /*use_bias=*/true, rng));
  }
}

tensor::Tensor Mlp::Forward(const tensor::Tensor& x, bool training,
                            core::Rng* rng) const {
  tensor::Tensor h = x;
  for (size_t i = 0; i + 1 < layers_.size(); ++i) {
    // Hidden layers: one BiasRelu in place of Linear's bias add and a
    // Relu, bit-identical to them.
    h = tensor::BiasRelu(tensor::MatMul(h, layers_[i]->weight()),
                         layers_[i]->bias());
    if (dropout_ > 0.0f) {
      h = tensor::Dropout(h, dropout_, training, rng);
    }
  }
  return layers_.back()->Forward(h);
}

tensor::Tensor Mlp::Forward(const tensor::Tensor& x) const {
  return Forward(x, /*training=*/false, nullptr);
}

std::vector<tensor::Tensor> Mlp::Parameters() const {
  std::vector<tensor::Tensor> parameters;
  for (const auto& layer : layers_) {
    auto params = layer->Parameters();
    parameters.insert(parameters.end(), params.begin(), params.end());
  }
  return parameters;
}

}  // namespace hygnn::nn
