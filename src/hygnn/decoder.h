#ifndef HYGNN_HYGNN_DECODER_H_
#define HYGNN_HYGNN_DECODER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.h"
#include "nn/mlp.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace hygnn::model {

/// Decoder interface (§III-C2): maps pairs of drug embeddings to a raw
/// interaction score (logit). The training loss and the evaluation
/// pipeline apply the sigmoid.
class Decoder : public nn::Module {
 public:
  /// `embeddings` is an [N, d'] table of drug embeddings; pair i pairs
  /// its rows a[i] and b[i] (a.size() == b.size()). Returns [n, 1]
  /// logits.
  virtual tensor::Tensor Score(const tensor::Tensor& embeddings,
                               const std::vector<int32_t>& a,
                               const std::vector<int32_t>& b, bool training,
                               core::Rng* rng) const = 0;
};

/// Dot-product decoder (eq. 10): gamma(q_x, q_y) = q_x . q_y.
/// Parameter-free.
class DotDecoder : public Decoder {
 public:
  tensor::Tensor Score(const tensor::Tensor& embeddings,
                       const std::vector<int32_t>& a,
                       const std::vector<int32_t>& b, bool training,
                       core::Rng* rng) const override;

  std::vector<tensor::Tensor> Parameters() const override { return {}; }
};

/// MLP decoder (eq. 11): gamma(q_x, q_y) = W2 phi(W1 (q_x || q_y)) with
/// a ReLU phi, following the paper's predictor. q_x || q_y is one
/// PairConcat of the embedding table.
class MlpDecoder : public Decoder {
 public:
  MlpDecoder(int64_t embedding_dim, int64_t hidden_dim, core::Rng* rng,
             float dropout = 0.0f);

  tensor::Tensor Score(const tensor::Tensor& embeddings,
                       const std::vector<int32_t>& a,
                       const std::vector<int32_t>& b, bool training,
                       core::Rng* rng) const override;

  std::vector<tensor::Tensor> Parameters() const override;

 private:
  nn::Mlp mlp_;
};

/// Decoder selector used by configs and CLI flags.
enum class DecoderKind { kDot, kMlp };

/// Builds a decoder of the requested kind.
std::unique_ptr<Decoder> MakeDecoder(DecoderKind kind, int64_t embedding_dim,
                                     int64_t hidden_dim, core::Rng* rng,
                                     float dropout = 0.0f);

}  // namespace hygnn::model

#endif  // HYGNN_HYGNN_DECODER_H_
