#include <cstdio>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "data/featurize.h"
#include "data/generator.h"
#include "data/pairs.h"
#include "graph/builders.h"
#include "hygnn/model.h"
#include "hygnn/trainer.h"
#include "tensor/init.h"
#include "tensor/serialize.h"

namespace hygnn::tensor {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SerializeTest, RoundTripPreservesValues) {
  core::Rng rng(1);
  Tensor a = NormalInit(3, 4, 1.0f, &rng, false);
  Tensor b = NormalInit(1, 7, 2.0f, &rng, false);
  std::stringstream table;
  ASSERT_TRUE(SaveTensorsToStream({{"a", a}, {"b", b}}, table).ok());
  auto loaded = LoadTensorsFromStream(table).value();
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].first, "a");
  EXPECT_EQ(loaded[1].first, "b");
  EXPECT_EQ(loaded[0].second.rows(), 3);
  EXPECT_EQ(loaded[0].second.cols(), 4);
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(loaded[0].second.data()[i], a.data()[i]);
  }
  for (int64_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(loaded[1].second.data()[i], b.data()[i]);
  }
}

TEST(SerializeTest, LoadedTensorsAreLeaves) {
  Tensor t = Tensor::Full(2, 2, 1.0f, /*requires_grad=*/true);
  std::stringstream table;
  ASSERT_TRUE(SaveTensorsToStream({{"t", t}}, table).ok());
  auto loaded = LoadTensorsFromStream(table).value();
  EXPECT_FALSE(loaded[0].second.requires_grad());
}

TEST(SerializeTest, RejectsCorruptFiles) {
  std::istringstream garbage("not a tensor file at all");
  EXPECT_FALSE(LoadTensorsFromStream(garbage).ok());
  std::istringstream empty("");
  EXPECT_FALSE(LoadTensorsFromStream(empty).ok());
}

TEST(SerializeTest, RestoreParametersChecksShapes) {
  core::Rng rng(2);
  Tensor p = NormalInit(2, 3, 1.0f, &rng, true);
  std::vector<Tensor> params{p};
  std::vector<std::pair<std::string, Tensor>> wrong_count;
  EXPECT_FALSE(RestoreParameters(wrong_count, &params).ok());
  std::vector<std::pair<std::string, Tensor>> wrong_shape{
      {"x", Tensor::Zeros(3, 2)}};
  const core::Status mismatch = RestoreParameters(wrong_shape, &params);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_NE(mismatch.message().find("[3 x 2]"), std::string::npos)
      << mismatch.message();
  EXPECT_NE(mismatch.message().find("[2 x 3]"), std::string::npos)
      << mismatch.message();
  std::vector<std::pair<std::string, Tensor>> good{
      {"x", Tensor::Full(2, 3, 9.0f)}};
  ASSERT_TRUE(RestoreParameters(good, &params).ok());
  EXPECT_EQ(params[0].At(1, 2), 9.0f);
}

TEST(ModelCheckpointTest, SaveLoadReproducesPredictions) {
  data::DatasetConfig data_config;
  data_config.num_drugs = 60;
  data_config.seed = 77;
  auto dataset = data::GenerateDataset(data_config).value();
  data::FeaturizeConfig feat_config;
  feat_config.espf_frequency_threshold = 3;
  auto featurizer =
      data::SubstructureFeaturizer::Build(dataset.drugs(), feat_config)
          .value();
  auto hypergraph = graph::BuildDrugHypergraph(
      featurizer.drug_substructures(), featurizer.num_substructures());
  auto context = model::HypergraphContext::FromHypergraph(hypergraph);

  core::Rng rng(3);
  auto pairs = data::BuildBalancedPairs(dataset, &rng);
  auto split = data::RandomSplit(pairs, 0.7, &rng);

  model::HyGnnConfig config;
  config.encoder.hidden_dim = 16;
  config.encoder.output_dim = 16;
  core::Rng model_rng(4);
  model::HyGnnModel original(featurizer.num_substructures(), config,
                             &model_rng);
  model::TrainConfig train_config;
  train_config.epochs = 30;
  model::HyGnnTrainer trainer(&original, train_config);
  trainer.Fit(context, split.train);

  const std::string path = TempPath("model.hygb");
  ASSERT_TRUE(original.Save(path, featurizer.vocabulary()).ok());

  // The loaded model must reproduce the original's predictions exactly.
  auto restored = model::HyGnnModel::Load(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto original_scores =
      original.PredictProbabilities(context, split.test);
  auto restored_scores =
      restored.value().PredictProbabilities(context, split.test);
  ASSERT_EQ(original_scores.size(), restored_scores.size());
  for (size_t i = 0; i < original_scores.size(); ++i) {
    EXPECT_EQ(original_scores[i], restored_scores[i]);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hygnn::tensor
