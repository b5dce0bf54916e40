#include "hygnn/decoder.h"

#include "core/logging.h"
#include "tensor/ops.h"

namespace hygnn::model {

tensor::Tensor DotDecoder::Score(const tensor::Tensor& embeddings,
                                 const std::vector<int32_t>& a,
                                 const std::vector<int32_t>& b,
                                 bool /*training*/, core::Rng* /*rng*/) const {
  return tensor::RowwiseDot(tensor::IndexSelectRows(embeddings, a),
                            tensor::IndexSelectRows(embeddings, b));
}

MlpDecoder::MlpDecoder(int64_t embedding_dim, int64_t hidden_dim,
                       core::Rng* rng, float dropout)
    : mlp_({2 * embedding_dim, hidden_dim, 1}, rng, dropout) {}

tensor::Tensor MlpDecoder::Score(const tensor::Tensor& embeddings,
                                 const std::vector<int32_t>& a,
                                 const std::vector<int32_t>& b, bool training,
                                 core::Rng* rng) const {
  return mlp_.Forward(tensor::PairConcat(embeddings, a, b), training, rng);
}

std::vector<tensor::Tensor> MlpDecoder::Parameters() const {
  return mlp_.Parameters();
}

std::unique_ptr<Decoder> MakeDecoder(DecoderKind kind, int64_t embedding_dim,
                                     int64_t hidden_dim, core::Rng* rng,
                                     float dropout) {
  switch (kind) {
    case DecoderKind::kDot:
      return std::make_unique<DotDecoder>();
    case DecoderKind::kMlp:
      return std::make_unique<MlpDecoder>(embedding_dim, hidden_dim, rng,
                                          dropout);
  }
  HYGNN_CHECK(false) << "unknown decoder kind";
  return nullptr;
}

}  // namespace hygnn::model
