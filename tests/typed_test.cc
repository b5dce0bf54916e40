#include <gtest/gtest.h>

#include "core/rng.h"
#include "data/featurize.h"
#include "data/generator.h"
#include "graph/builders.h"
#include "hygnn/typed.h"
#include "tensor/loss.h"
#include "tests/gradcheck.h"

namespace hygnn::model {
namespace {

TEST(SoftmaxCrossEntropyTest, UniformLogitsGiveLogK) {
  tensor::Tensor logits = tensor::Tensor::Zeros(2, 4);
  tensor::Tensor loss =
      tensor::SoftmaxCrossEntropyLoss(logits, {0, 3});
  EXPECT_NEAR(loss.item(), std::log(4.0f), 1e-5f);
}

TEST(SoftmaxCrossEntropyTest, ConfidentCorrectIsSmall) {
  tensor::Tensor logits =
      tensor::Tensor::FromVector({10, 0, 0, 0, 0, 10}, 2, 3);
  tensor::Tensor loss = tensor::SoftmaxCrossEntropyLoss(logits, {0, 2});
  EXPECT_LT(loss.item(), 1e-3f);
}

TEST(SoftmaxCrossEntropyTest, GradCheck) {
  std::vector<int32_t> labels{1, 0, 2};
  hygnn::testing::ExpectGradMatchesNumeric(
      [] {
        core::Rng rng(55);
        std::vector<float> values(9);
        for (auto& v : values) v = (rng.UniformFloat() - 0.5f) * 2.0f;
        return tensor::Tensor::FromVector(std::move(values), 3, 3, true);
      },
      [&labels](const tensor::Tensor& logits) {
        return tensor::SoftmaxCrossEntropyLoss(logits, labels);
      });
}

TEST(EvaluateTypedTest, PerfectPrediction) {
  auto result = EvaluateTyped({0, 1, 2, 1}, {0, 1, 2, 1}, 3);
  EXPECT_DOUBLE_EQ(result.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(result.macro_f1, 1.0);
}

TEST(EvaluateTypedTest, MacroF1PenalizesMinorityErrors) {
  // Majority class 0 predicted always: accuracy 3/4 but macro-F1 low.
  auto result = EvaluateTyped({0, 0, 0, 0}, {0, 0, 0, 1}, 2);
  EXPECT_DOUBLE_EQ(result.accuracy, 0.75);
  // Class 0: P=3/4, R=1 -> F1 = 6/7. Class 1: F1 = 0. Macro = 3/7.
  EXPECT_NEAR(result.macro_f1, (6.0 / 7.0) / 2.0, 1e-9);
}

TEST(EvaluateTypedTest, UnusedClassesIgnored) {
  auto result = EvaluateTyped({0, 1}, {0, 1}, 10);
  EXPECT_DOUBLE_EQ(result.macro_f1, 1.0);
}

TEST(TypedModelTest, LearnsInteractionTypes) {
  data::DatasetConfig data_config;
  data_config.num_drugs = 100;
  data_config.seed = 606;
  auto dataset = data::GenerateDataset(data_config).value();
  data::FeaturizeConfig feat_config;
  feat_config.espf_frequency_threshold = 3;
  auto featurizer =
      data::SubstructureFeaturizer::Build(dataset.drugs(), feat_config)
          .value();
  auto hypergraph = graph::BuildDrugHypergraph(
      featurizer.drug_substructures(), featurizer.num_substructures());
  auto context = HypergraphContext::FromHypergraph(hypergraph);

  // Typed positives: every recorded DDI labeled with its latent rule.
  const int32_t num_types =
      static_cast<int32_t>(dataset.reactive_rule().size());
  std::vector<TypedPair> typed;
  for (const auto& pair : dataset.positives()) {
    const int32_t type = dataset.OracleInteractionType(pair.a, pair.b);
    if (type >= 0) typed.push_back({pair.a, pair.b, type});
  }
  ASSERT_GT(typed.size(), 100u);

  core::Rng split_rng(607);
  split_rng.Shuffle(typed);
  const size_t train_size = typed.size() * 7 / 10;
  std::vector<TypedPair> train(typed.begin(), typed.begin() + train_size);
  std::vector<TypedPair> test(typed.begin() + train_size, typed.end());

  EncoderConfig encoder_config;
  encoder_config.hidden_dim = 32;
  encoder_config.output_dim = 32;
  core::Rng model_rng(608);
  TypedHyGnnModel model(featurizer.num_substructures(), num_types,
                        encoder_config, 32, &model_rng);
  TypedTrainConfig train_config;
  train_config.epochs = 120;
  TypedTrainer trainer(&model, train_config);
  const float loss = trainer.Fit(context, train);
  EXPECT_TRUE(std::isfinite(loss));

  auto result = trainer.Evaluate(context, test);
  // Chance accuracy is ~1/num_types (~8%); the model must do far
  // better by reading the substructures.
  EXPECT_GT(result.accuracy, 3.0 / num_types);
  EXPECT_GT(result.macro_f1, 0.15);
}

TEST(TypedModelTest, RejectsSingleClass) {
  core::Rng rng(1);
  EncoderConfig config;
  EXPECT_DEATH(TypedHyGnnModel(5, 1, config, 8, &rng), "num_types");
}

}  // namespace
}  // namespace hygnn::model
