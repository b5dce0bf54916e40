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
  return FromFirstProduct(tensor::MatMul(x, layers_.front()->weight()),
                          training, rng);
}

tensor::Tensor Mlp::Forward(const tensor::Tensor& x) const {
  return Forward(x, /*training=*/false, nullptr);
}

tensor::Tensor Mlp::ForwardPairs(const tensor::Tensor& h,
                                 const std::vector<int32_t>& a,
                                 const std::vector<int32_t>& b,
                                 bool training, core::Rng* rng) const {
  // The input is never dropped out, so layer 0's product may read the
  // pair rows straight from h.
  return FromFirstProduct(
      tensor::PairMatMul(h, a, b, layers_.front()->weight()), training, rng);
}

tensor::Tensor Mlp::FromFirstProduct(tensor::Tensor z, bool training,
                                     core::Rng* rng) const {
  for (size_t i = 0;; ++i) {
    const Linear& layer = *layers_[i];
    // The output layer adds its bias; every layer has one.
    if (i + 1 == layers_.size()) {
      return tensor::AddRowBroadcast(z, layer.bias());
    }
    // Hidden layers: one BiasRelu in place of Linear's bias add and a
    // Relu, bit-identical to them.
    tensor::Tensor h = tensor::BiasRelu(z, layer.bias());
    if (dropout_ > 0.0f) {
      h = tensor::Dropout(h, dropout_, training, rng);
    }
    z = tensor::MatMul(h, layers_[i + 1]->weight());
  }
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
