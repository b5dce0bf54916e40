#include <cmath>

#include "baselines/baselines.h"
#include "core/logging.h"
#include "core/rng.h"
#include "ml/bitvector.h"
#include "ml/knn.h"
#include "ml/logistic_regression.h"
#include "nn/mlp.h"
#include "tensor/loss.h"
#include "tensor/optimizer.h"
#include "tensor/tape.h"

namespace hygnn::baselines {

namespace {

/// Pair feature: bitwise AND of the two drugs' functional
/// representations (CASTER-style, paper baseline group 4).
std::vector<ml::BitVector> PairAndFeatures(
    const std::vector<ml::BitVector>& drug_frs,
    const std::vector<data::LabeledPair>& pairs) {
  std::vector<ml::BitVector> features;
  features.reserve(pairs.size());
  for (const auto& pair : pairs) {
    features.push_back(drug_frs[static_cast<size_t>(pair.a)].And(
        drug_frs[static_cast<size_t>(pair.b)]));
  }
  return features;
}

std::vector<std::vector<float>> ToDense(
    const std::vector<ml::BitVector>& features) {
  std::vector<std::vector<float>> dense;
  dense.reserve(features.size());
  for (const auto& feature : features) dense.push_back(feature.ToFloats());
  return dense;
}

model::EvalResult EvaluateWithScores(
    const std::vector<float>& scores,
    const std::vector<data::LabeledPair>& test) {
  return model::EvaluateScores(scores, model::LabelsOf(test));
}

/// Feed-forward NN on dense AND features, trained with BCE.
std::vector<float> RunNnClassifier(
    const std::vector<std::vector<float>>& train_features,
    const std::vector<float>& train_labels,
    const std::vector<std::vector<float>>& test_features,
    const BaselineConfig& config, core::Rng* rng) {
  const int64_t dim = static_cast<int64_t>(train_features[0].size());
  const tensor::ReleaseHeldBuffersOnReturn release_held_buffers;
  nn::Mlp mlp({dim, config.classifier_hidden_dim, 1}, rng);
  tensor::Adam optimizer(mlp.Parameters(), config.learning_rate);

  auto to_tensor = [](const std::vector<std::vector<float>>& rows) {
    std::vector<float> flat;
    flat.reserve(rows.size() * rows[0].size());
    for (const auto& row : rows) {
      flat.insert(flat.end(), row.begin(), row.end());
    }
    return tensor::Tensor::FromVector(
        std::move(flat), static_cast<int64_t>(rows.size()),
        static_cast<int64_t>(rows[0].size()));
  };
  tensor::Tensor train_x = to_tensor(train_features);
  for (int32_t epoch = 0; epoch < config.epochs; ++epoch) {
    optimizer.ZeroGrad();
    tensor::Tensor logits = mlp.Forward(train_x, /*training=*/true, rng);
    tensor::Tensor loss = tensor::BceWithLogitsLoss(logits, train_labels);
    loss.Backward();
    optimizer.Step();
  }
  tensor::Tensor test_logits = mlp.Forward(to_tensor(test_features));
  std::vector<float> scores(static_cast<size_t>(test_logits.rows()));
  for (int64_t i = 0; i < test_logits.rows(); ++i) {
    const float z = test_logits.data()[i];
    scores[static_cast<size_t>(i)] =
        z >= 0.0f ? 1.0f / (1.0f + std::exp(-z))
                  : std::exp(z) / (1.0f + std::exp(z));
  }
  return scores;
}

}  // namespace

model::EvalResult RunMlOnFunctionalRepresentation(
    const BaselineInputs& inputs, MlKind kind, const BaselineConfig& config) {
  HYGNN_CHECK(inputs.drug_substructures != nullptr);
  core::Rng rng(inputs.seed ^ 0xc2b2ae35);
  auto drug_frs = ml::BuildFunctionalRepresentations(
      *inputs.drug_substructures, inputs.num_substructures);
  auto train_features = PairAndFeatures(drug_frs, inputs.train);
  auto test_features = PairAndFeatures(drug_frs, inputs.test);
  std::vector<float> train_labels = model::LabelsOf(inputs.train);

  std::vector<float> scores;
  switch (kind) {
    case MlKind::kNn:
      scores = RunNnClassifier(ToDense(train_features), train_labels,
                               ToDense(test_features), config, &rng);
      break;
    case MlKind::kLr: {
      ml::LogisticRegression lr;
      lr.Fit(ToDense(train_features), train_labels, &rng);
      for (const auto& feature : ToDense(test_features)) {
        scores.push_back(lr.PredictProbability(feature));
      }
      break;
    }
    case MlKind::kKnn: {
      ml::KnnClassifier knn(config.knn_k);
      knn.Fit(train_features, train_labels);
      scores.reserve(test_features.size());
      for (const auto& feature : test_features) {
        scores.push_back(knn.PredictScore(feature));
      }
      break;
    }
  }
  return EvaluateWithScores(scores, inputs.test);
}

std::string MlKindName(MlKind kind) {
  switch (kind) {
    case MlKind::kNn:
      return "NN";
    case MlKind::kLr:
      return "LR";
    case MlKind::kKnn:
      return "kNN";
  }
  return "?";
}

}  // namespace hygnn::baselines
