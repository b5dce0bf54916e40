#include "baselines/pair_harness.h"

#include "core/logging.h"
#include "hygnn/scorer.h"
#include "tensor/loss.h"
#include "tensor/optimizer.h"
#include "tensor/tape.h"

namespace hygnn::baselines {

namespace {

/// The pair head's logits for `pairs`, rows of the embedding table.
tensor::Tensor PairLogits(const nn::Mlp& head,
                          const tensor::Tensor& embeddings,
                          std::span<const data::LabeledPair> pairs,
                          bool training, core::Rng* rng) {
  HYGNN_CHECK(!pairs.empty());
  std::vector<int32_t> left, right;
  left.reserve(pairs.size());
  right.reserve(pairs.size());
  for (const auto& pair : pairs) {
    left.push_back(pair.a);
    right.push_back(pair.b);
  }
  return head.ForwardPairs(embeddings, left, right, training, rng);
}

}  // namespace

tensor::Tensor EmbeddingsToTensor(
    const std::vector<std::vector<float>>& rows) {
  HYGNN_CHECK(!rows.empty());
  const int64_t n = static_cast<int64_t>(rows.size());
  const int64_t d = static_cast<int64_t>(rows[0].size());
  std::vector<float> flat;
  flat.reserve(static_cast<size_t>(n * d));
  for (const auto& row : rows) {
    HYGNN_CHECK_EQ(static_cast<int64_t>(row.size()), d);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return tensor::Tensor::FromVector(std::move(flat), n, d);
}

PairModelHarness::PairModelHarness(
    std::function<tensor::Tensor(bool, core::Rng*)> embed_fn,
    std::vector<tensor::Tensor> embed_params, int64_t embedding_dim,
    const BaselineConfig& config, uint64_t seed)
    : embed_fn_(std::move(embed_fn)),
      embed_params_(std::move(embed_params)),
      config_(config),
      rng_(seed),
      head_({2 * embedding_dim, config.classifier_hidden_dim, 1}, &rng_) {}

void PairModelHarness::Fit(const std::vector<data::LabeledPair>& train_pairs) {
  HYGNN_CHECK(!train_pairs.empty());
  const tensor::ReleaseHeldBuffersOnReturn release_held_buffers;
  std::vector<tensor::Tensor> parameters = head_.Parameters();
  parameters.insert(parameters.end(), embed_params_.begin(),
                    embed_params_.end());
  tensor::Adam optimizer(std::move(parameters), config_.learning_rate);
  std::vector<float> labels;
  labels.reserve(train_pairs.size());
  for (const auto& pair : train_pairs) labels.push_back(pair.label);

  for (int32_t epoch = 0; epoch < config_.epochs; ++epoch) {
    optimizer.ZeroGrad();
    tensor::Tensor embeddings = embed_fn_(/*training=*/true, &rng_);
    tensor::Tensor logits = PairLogits(head_, embeddings, train_pairs,
                                       /*training=*/true, &rng_);
    tensor::Tensor loss = tensor::BceWithLogitsLoss(logits, labels);
    loss.Backward();
    optimizer.ClipGradNorm(5.0f);
    optimizer.Step();
  }
}

std::vector<float> PairModelHarness::Score(
    std::span<const data::LabeledPair> pairs) const {
  if (pairs.empty()) return {};
  tensor::InferenceModeScope inference;
  tensor::Tensor embeddings =
      embed_fn_(/*training=*/false, nullptr);
  tensor::Tensor logits =
      PairLogits(head_, embeddings, pairs, /*training=*/false, nullptr);
  return model::SigmoidAll(logits);
}

model::EvalResult PairModelHarness::FitAndEvaluate(
    const std::vector<data::LabeledPair>& train_pairs,
    const std::vector<data::LabeledPair>& test_pairs) {
  Fit(train_pairs);
  return metrics::EvaluateBinary(Score(test_pairs),
                                 model::LabelsOf(test_pairs));
}

}  // namespace hygnn::baselines
