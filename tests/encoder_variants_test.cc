#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "data/featurize.h"
#include "data/generator.h"
#include "data/pairs.h"
#include "graph/builders.h"
#include "hygnn/encoder.h"
#include "hygnn/model.h"
#include "hygnn/trainer.h"
#include "tensor/loss.h"
#include "tensor/ops.h"

namespace hygnn::model {
namespace {

graph::Hypergraph TinyHypergraph() {
  return graph::Hypergraph(5, {{0, 1, 2}, {1, 2, 3}, {4}});
}

TEST(NoAttentionTest, UniformWeightsWhenDisabled) {
  core::Rng rng(1);
  auto context = HypergraphContext::FromHypergraph(TinyHypergraph());
  EncoderConfig config;
  config.use_attention = false;
  HypergraphEdgeEncoder encoder(5, config, &rng);
  AttentionSnapshot attention;
  encoder.Forward(context, false, nullptr, &attention);
  // Edge 0 has 3 members: node-level weights must all be 1/3.
  for (size_t i = 0; i < attention.node_level.size(); ++i) {
    if (context.pair_edges->ids()[i] == 0) {
      EXPECT_NEAR(attention.node_level[i], 1.0f / 3.0f, 1e-6f);
    }
    if (context.pair_edges->ids()[i] == 2) {  // singleton edge
      EXPECT_NEAR(attention.node_level[i], 1.0f, 1e-6f);
    }
  }
  // Node 1 belongs to edges 0 and 1: hyperedge-level weights are 1/2.
  for (size_t i = 0; i < attention.hyperedge_level.size(); ++i) {
    if (context.pair_nodes->ids()[i] == 1) {
      EXPECT_NEAR(attention.hyperedge_level[i], 0.5f, 1e-6f);
    }
  }
}

TEST(NoAttentionTest, AttentionWeightsAreNotUniformWhenEnabled) {
  core::Rng rng(2);
  auto context = HypergraphContext::FromHypergraph(TinyHypergraph());
  EncoderConfig config;
  HypergraphEdgeEncoder encoder(5, config, &rng);
  AttentionSnapshot attention;
  encoder.Forward(context, false, nullptr, &attention);
  // With random weights, edge 0's three member weights should not be
  // exactly uniform.
  float max_weight = 0.0f, min_weight = 1.0f;
  for (size_t i = 0; i < attention.node_level.size(); ++i) {
    if (context.pair_edges->ids()[i] == 0) {
      max_weight = std::max(max_weight, attention.node_level[i]);
      min_weight = std::min(min_weight, attention.node_level[i]);
    }
  }
  EXPECT_GT(max_weight - min_weight, 1e-5f);
}

TEST(NoAttentionTest, TrainsEndToEnd) {
  core::Rng rng(3);
  auto context = HypergraphContext::FromHypergraph(TinyHypergraph());
  HyGnnConfig config;
  config.encoder.use_attention = false;
  config.encoder.hidden_dim = 16;
  config.encoder.output_dim = 16;
  HyGnnModel model(5, config, &rng);
  std::vector<data::LabeledPair> pairs{{0, 1, 1.0f}, {0, 2, 0.0f}};
  TrainConfig train_config;
  train_config.epochs = 50;
  HyGnnTrainer trainer(&model, train_config);
  const float loss = trainer.Fit(context, pairs);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_LT(loss, 0.7f);
}

TEST(StackedEncoderTest, SingleLayerMatchesPlainEncoder) {
  auto context = HypergraphContext::FromHypergraph(TinyHypergraph());
  EncoderConfig config;
  config.hidden_dim = 8;
  config.output_dim = 8;
  core::Rng rng_a(7), rng_b(7);
  HypergraphEdgeEncoder plain(5, config, &rng_a);
  StackedEncoder stacked(5, config, 1, &rng_b);
  tensor::Tensor qa = plain.Forward(context, false, nullptr);
  tensor::Tensor qb = stacked.Forward(context, false, nullptr);
  ASSERT_EQ(qa.size(), qb.size());
  for (int64_t i = 0; i < qa.size(); ++i) {
    EXPECT_EQ(qa.data()[i], qb.data()[i]);
  }
}

TEST(StackedEncoderTest, TwoLayerShapesAndParams) {
  core::Rng rng(8);
  auto context = HypergraphContext::FromHypergraph(TinyHypergraph());
  EncoderConfig config;
  config.hidden_dim = 12;
  config.output_dim = 10;
  StackedEncoder stacked(5, config, 2, &rng);
  EXPECT_EQ(stacked.num_layers(), 2);
  EXPECT_EQ(stacked.Parameters().size(), 8u);
  tensor::Tensor q = stacked.Forward(context, false, nullptr);
  EXPECT_EQ(q.rows(), 3);
  EXPECT_EQ(q.cols(), 10);
}

TEST(StackedEncoderTest, DeepGradientsFlowToFirstLayer) {
  core::Rng rng(9);
  auto context = HypergraphContext::FromHypergraph(TinyHypergraph());
  EncoderConfig config;
  config.hidden_dim = 8;
  config.output_dim = 8;
  StackedEncoder stacked(5, config, 3, &rng);
  tensor::Tensor q = stacked.Forward(context, true, &rng);
  tensor::Tensor loss = tensor::ReduceSum(tensor::RowwiseDot(q, q));
  loss.Backward();
  auto params = stacked.Parameters();
  // First layer's W_q is params[0]; it must receive gradient through
  // all three layers.
  ASSERT_TRUE(params[0].has_grad());
  bool any_nonzero = false;
  for (int64_t i = 0; i < params[0].size(); ++i) {
    if (params[0].grad()[i] != 0.0f) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(StackedEncoderTest, AttentionSnapshotComesFromLastLayer) {
  core::Rng rng(10);
  auto hypergraph = TinyHypergraph();
  auto context = HypergraphContext::FromHypergraph(hypergraph);
  EncoderConfig config;
  StackedEncoder stacked(5, config, 2, &rng);
  AttentionSnapshot attention;
  stacked.Forward(context, false, nullptr, &attention);
  ASSERT_EQ(attention.node_level.size(),
            static_cast<size_t>(hypergraph.num_incidences()));
  // Still valid distributions per hyperedge.
  std::map<int32_t, float> per_edge;
  for (size_t i = 0; i < attention.node_level.size(); ++i) {
    per_edge[context.pair_edges->ids()[i]] += attention.node_level[i];
  }
  for (const auto& [edge, sum] : per_edge) {
    EXPECT_NEAR(sum, 1.0f, 1e-5f) << "edge " << edge;
  }
}

TEST(MultiLayerModelTest, TwoLayerModelTrains) {
  data::DatasetConfig data_config;
  data_config.num_drugs = 50;
  data_config.seed = 31;
  auto dataset = data::GenerateDataset(data_config).value();
  data::FeaturizeConfig feat_config;
  feat_config.espf_frequency_threshold = 3;
  auto featurizer =
      data::SubstructureFeaturizer::Build(dataset.drugs(), feat_config)
          .value();
  auto hypergraph = graph::BuildDrugHypergraph(
      featurizer.drug_substructures(), featurizer.num_substructures());
  auto context = HypergraphContext::FromHypergraph(hypergraph);
  core::Rng rng(32);
  auto pairs = data::BuildBalancedPairs(dataset, &rng);
  auto split = data::RandomSplit(pairs, 0.7, &rng);

  HyGnnConfig config;
  config.num_layers = 2;
  config.encoder.hidden_dim = 16;
  config.encoder.output_dim = 16;
  core::Rng model_rng(33);
  HyGnnModel model(featurizer.num_substructures(), config, &model_rng);
  TrainConfig train_config;
  train_config.epochs = 60;
  HyGnnTrainer trainer(&model, train_config);
  trainer.Fit(context, split.train);
  auto result = trainer.Evaluate(context, split.test);
  EXPECT_GT(result.roc_auc, 0.6);
}

}  // namespace
}  // namespace hygnn::model
