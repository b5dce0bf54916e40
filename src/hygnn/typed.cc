#include "hygnn/typed.h"

#include <algorithm>

#include "core/logging.h"
#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/tape.h"

namespace hygnn::model {

TypedHyGnnModel::TypedHyGnnModel(int64_t input_dim, int32_t num_types,
                                 const EncoderConfig& encoder_config,
                                 int64_t decoder_hidden_dim, core::Rng* rng)
    : num_types_(num_types),
      encoder_(input_dim, encoder_config, /*num_layers=*/1, rng),
      head_({2 * encoder_config.output_dim, decoder_hidden_dim, num_types},
            rng) {
  HYGNN_CHECK_GT(num_types, 1);
}

tensor::Tensor TypedHyGnnModel::Forward(const HypergraphContext& context,
                                        const std::vector<TypedPair>& pairs,
                                        bool training,
                                        core::Rng* rng) const {
  HYGNN_CHECK(!pairs.empty());
  tensor::Tensor embeddings = encoder_.Forward(context, training, rng);
  std::vector<int32_t> left, right;
  left.reserve(pairs.size());
  right.reserve(pairs.size());
  for (const auto& pair : pairs) {
    left.push_back(pair.a);
    right.push_back(pair.b);
  }
  return head_.Forward(tensor::PairConcat(embeddings, left, right), training,
                       rng);
}

std::vector<int32_t> TypedHyGnnModel::PredictTypes(
    const HypergraphContext& context,
    const std::vector<TypedPair>& pairs) const {
  tensor::Tensor logits = Forward(context, pairs, false, nullptr);
  std::vector<int32_t> predictions(pairs.size());
  for (int64_t i = 0; i < logits.rows(); ++i) {
    int32_t best = 0;
    for (int64_t j = 1; j < logits.cols(); ++j) {
      if (logits.At(i, j) > logits.At(i, best)) {
        best = static_cast<int32_t>(j);
      }
    }
    predictions[static_cast<size_t>(i)] = best;
  }
  return predictions;
}

std::vector<tensor::Tensor> TypedHyGnnModel::Parameters() const {
  auto parameters = encoder_.Parameters();
  auto head_params = head_.Parameters();
  parameters.insert(parameters.end(), head_params.begin(),
                    head_params.end());
  return parameters;
}

TypedTrainer::TypedTrainer(TypedHyGnnModel* model,
                           const TypedTrainConfig& config)
    : model_(model), config_(config) {
  HYGNN_CHECK(model != nullptr);
}

float TypedTrainer::Fit(const HypergraphContext& context,
                        const std::vector<TypedPair>& train_pairs) {
  HYGNN_CHECK(!train_pairs.empty());
  const tensor::ReleaseHeldBuffersOnReturn release_held_buffers;
  core::Rng rng(config_.seed);
  tensor::Adam optimizer(model_->Parameters(), config_.learning_rate, 0.9f,
                         0.999f, 1e-8f, config_.weight_decay);
  std::vector<int32_t> labels;
  labels.reserve(train_pairs.size());
  for (const auto& pair : train_pairs) labels.push_back(pair.type);

  float last_loss = 0.0f;
  for (int32_t epoch = 0; epoch < config_.epochs; ++epoch) {
    optimizer.ZeroGrad();
    tensor::Tensor logits =
        model_->Forward(context, train_pairs, /*training=*/true, &rng);
    tensor::Tensor loss = tensor::SoftmaxCrossEntropyLoss(logits, labels);
    loss.Backward();
    if (config_.grad_clip > 0.0f) {
      optimizer.ClipGradNorm(config_.grad_clip);
    }
    optimizer.Step();
    last_loss = loss.item();
  }
  return last_loss;
}

TypedEvalResult TypedTrainer::Evaluate(
    const HypergraphContext& context,
    const std::vector<TypedPair>& pairs) const {
  auto predicted = model_->PredictTypes(context, pairs);
  std::vector<int32_t> actual;
  actual.reserve(pairs.size());
  for (const auto& pair : pairs) actual.push_back(pair.type);
  return EvaluateTyped(predicted, actual, model_->num_types());
}

TypedEvalResult EvaluateTyped(const std::vector<int32_t>& predicted,
                              const std::vector<int32_t>& actual,
                              int32_t num_types) {
  return metrics::EvaluateMultiClass(predicted, actual, num_types);
}

}  // namespace hygnn::model
