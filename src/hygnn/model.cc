#include "hygnn/model.h"

#include "core/logging.h"
#include "hygnn/scorer.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"

namespace hygnn::model {

HyGnnModel::HyGnnModel(int64_t input_dim, const HyGnnConfig& config,
                       core::Rng* rng)
    : input_dim_(input_dim),
      config_(config),
      encoder_(input_dim, config.encoder, config.num_layers, rng),
      decoder_(MakeDecoder(config.decoder, config.encoder.output_dim,
                           config.decoder_hidden_dim, rng,
                           config.decoder_dropout)) {}

tensor::Tensor HyGnnModel::EmbedDrugs(const HypergraphContext& context,
                                      bool training, core::Rng* rng,
                                      AttentionSnapshot* attention) const {
  return encoder_.Forward(context, training, rng, attention);
}

tensor::Tensor HyGnnModel::ScorePairs(
    const tensor::Tensor& drug_embeddings,
    const std::vector<data::LabeledPair>& pairs, bool training,
    core::Rng* rng) const {
  HYGNN_CHECK(!pairs.empty());
  std::vector<int32_t> left, right;
  left.reserve(pairs.size());
  right.reserve(pairs.size());
  for (const auto& pair : pairs) {
    left.push_back(pair.a);
    right.push_back(pair.b);
  }
  return decoder_->Score(drug_embeddings, left, right, training, rng);
}

tensor::Tensor HyGnnModel::Forward(const HypergraphContext& context,
                                   const std::vector<data::LabeledPair>& pairs,
                                   bool training, core::Rng* rng) const {
  tensor::Tensor embeddings = EmbedDrugs(context, training, rng);
  return ScorePairs(embeddings, pairs, training, rng);
}

std::vector<float> HyGnnModel::PredictProbabilities(
    const HypergraphContext& context,
    const std::vector<data::LabeledPair>& pairs) const {
  tensor::InferenceModeScope inference;
  tensor::Tensor logits =
      Forward(context, pairs, /*training=*/false, nullptr);
  return SigmoidAll(logits);
}

core::Status HyGnnModel::SaveWeights(const std::string& path) const {
  std::vector<std::pair<std::string, tensor::Tensor>> named;
  auto parameters = Parameters();
  for (size_t i = 0; i < parameters.size(); ++i) {
    named.emplace_back("param_" + std::to_string(i), parameters[i]);
  }
  return tensor::SaveTensors(named, path);
}

core::Status HyGnnModel::LoadWeights(const std::string& path) {
  auto loaded_or = tensor::LoadTensors(path);
  if (!loaded_or.ok()) return loaded_or.status();
  auto parameters = Parameters();
  return tensor::RestoreParameters(loaded_or.value(), &parameters);
}

std::vector<tensor::Tensor> HyGnnModel::Parameters() const {
  auto parameters = encoder_.Parameters();
  auto decoder_params = decoder_->Parameters();
  parameters.insert(parameters.end(), decoder_params.begin(),
                    decoder_params.end());
  return parameters;
}

}  // namespace hygnn::model
