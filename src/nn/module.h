#ifndef HYGNN_NN_MODULE_H_
#define HYGNN_NN_MODULE_H_

#include <vector>

#include "tensor/tensor.h"

namespace hygnn::nn {

/// Base class for parameterized layers/models. Parameters() exposes the
/// trainable tensors for optimizer construction.
class Module {
 public:
  virtual ~Module() = default;

  /// The trainable parameters of this module (and its children).
  virtual std::vector<tensor::Tensor> Parameters() const = 0;
};

}  // namespace hygnn::nn

#endif  // HYGNN_NN_MODULE_H_
