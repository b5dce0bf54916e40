#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "data/featurize.h"
#include "data/generator.h"
#include "data/pairs.h"
#include "graph/builders.h"
#include "hygnn/decoder.h"
#include "hygnn/encoder.h"
#include "hygnn/model.h"
#include "hygnn/trainer.h"
#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"

namespace hygnn::model {
namespace {

/// 5 substructures, 3 drugs: e0={0,1,2}, e1={1,2,3}, e2={4}.
graph::Hypergraph TinyHypergraph() {
  return graph::Hypergraph(5, {{0, 1, 2}, {1, 2, 3}, {4}});
}

TEST(ContextTest, FromHypergraphShapes) {
  auto context = HypergraphContext::FromHypergraph(TinyHypergraph());
  EXPECT_EQ(context.num_nodes, 5);
  EXPECT_EQ(context.num_edges, 3);
  EXPECT_EQ(context.pair_nodes.size(), 7u);
  ASSERT_NE(context.edge_features, nullptr);
  EXPECT_EQ(context.edge_features->rows(), 3);
  EXPECT_EQ(context.edge_features->cols(), 5);
  EXPECT_EQ(context.edge_features->nnz(), 7);
}

TEST(EncoderTest, OutputShape) {
  core::Rng rng(1);
  auto context = HypergraphContext::FromHypergraph(TinyHypergraph());
  EncoderConfig config;
  config.hidden_dim = 8;
  config.output_dim = 6;
  HypergraphEdgeEncoder encoder(5, config, &rng);
  tensor::Tensor q = encoder.Forward(context, false, nullptr);
  EXPECT_EQ(q.rows(), 3);   // one embedding per drug
  EXPECT_EQ(q.cols(), 6);
  EXPECT_EQ(encoder.Parameters().size(), 4u);  // W_q, g1, W_p, g2
}

TEST(EncoderTest, AttentionWeightsAreSegmentDistributions) {
  core::Rng rng(2);
  auto hypergraph = TinyHypergraph();
  auto context = HypergraphContext::FromHypergraph(hypergraph);
  EncoderConfig config;
  HypergraphEdgeEncoder encoder(5, config, &rng);
  AttentionSnapshot attention;
  encoder.Forward(context, false, nullptr, &attention);
  ASSERT_EQ(attention.hyperedge_level.size(), 7u);
  ASSERT_EQ(attention.node_level.size(), 7u);

  // Hyperedge-level weights sum to 1 over each node's incident edges.
  std::map<int32_t, float> per_node;
  for (size_t i = 0; i < attention.hyperedge_level.size(); ++i) {
    per_node[context.pair_nodes[i]] += attention.hyperedge_level[i];
  }
  for (const auto& [node, sum] : per_node) {
    EXPECT_NEAR(sum, 1.0f, 1e-5f) << "node " << node;
  }
  // Node-level weights sum to 1 over each hyperedge's members.
  std::map<int32_t, float> per_edge;
  for (size_t i = 0; i < attention.node_level.size(); ++i) {
    per_edge[context.pair_edges[i]] += attention.node_level[i];
  }
  for (const auto& [edge, sum] : per_edge) {
    EXPECT_NEAR(sum, 1.0f, 1e-5f) << "edge " << edge;
  }
}

TEST(EncoderTest, GradientsReachAllParameters) {
  core::Rng rng(3);
  auto context = HypergraphContext::FromHypergraph(TinyHypergraph());
  EncoderConfig config;
  HypergraphEdgeEncoder encoder(5, config, &rng);
  tensor::Tensor q = encoder.Forward(context, true, &rng);
  tensor::Tensor loss = tensor::ReduceSum(tensor::Mul(q, q));
  loss.Backward();
  for (auto& param : encoder.Parameters()) {
    ASSERT_TRUE(param.has_grad());
    bool any_nonzero = false;
    for (int64_t i = 0; i < param.size(); ++i) {
      if (param.grad()[i] != 0.0f) any_nonzero = true;
    }
    EXPECT_TRUE(any_nonzero);
  }
}

TEST(EncoderTest, DrugsWithSharedSubstructuresMoreSimilar) {
  // e0 and e1 share 2 of 3 substructures; e2 is disjoint. Untrained
  // encoder embeddings should already reflect this structural overlap.
  core::Rng rng(4);
  auto context = HypergraphContext::FromHypergraph(TinyHypergraph());
  EncoderConfig config;
  config.hidden_dim = 32;
  config.output_dim = 32;
  HypergraphEdgeEncoder encoder(5, config, &rng);
  tensor::Tensor q = encoder.Forward(context, false, nullptr);
  auto cosine = [&q](int64_t a, int64_t b) {
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (int64_t j = 0; j < q.cols(); ++j) {
      dot += q.At(a, j) * q.At(b, j);
      na += q.At(a, j) * q.At(a, j);
      nb += q.At(b, j) * q.At(b, j);
    }
    return dot / (std::sqrt(na) * std::sqrt(nb) + 1e-12);
  };
  EXPECT_GT(cosine(0, 1), cosine(0, 2));
}

TEST(DecoderTest, DotDecoder) {
  // Rows 0-1 are the a side, rows 2-3 the b side.
  tensor::Tensor table =
      tensor::Tensor::FromVector({1, 2, 3, 4, 5, 6, 7, 8}, 4, 2);
  DotDecoder decoder;
  tensor::Tensor score = decoder.Score(table, {0, 1}, {2, 3}, false, nullptr);
  EXPECT_EQ(score.At(0, 0), 17.0f);
  EXPECT_TRUE(decoder.Parameters().empty());
}

TEST(DecoderTest, MlpDecoderShapeAndParams) {
  core::Rng rng(5);
  MlpDecoder decoder(8, 16, &rng);
  tensor::Tensor table = tensor::Tensor::Full(6, 8, 0.5f);
  tensor::Tensor score =
      decoder.Score(table, {0, 1, 2}, {3, 4, 5}, false, nullptr);
  EXPECT_EQ(score.rows(), 3);
  EXPECT_EQ(score.cols(), 1);
  EXPECT_EQ(decoder.Parameters().size(), 4u);
}

TEST(DecoderTest, Factory) {
  core::Rng rng(6);
  EXPECT_TRUE(MakeDecoder(DecoderKind::kDot, 8, 8, &rng)->Parameters()
                  .empty());
  EXPECT_FALSE(MakeDecoder(DecoderKind::kMlp, 8, 8, &rng)->Parameters()
                   .empty());
}

TEST(ModelTest, ForwardShapes) {
  core::Rng rng(7);
  auto context = HypergraphContext::FromHypergraph(TinyHypergraph());
  HyGnnConfig config;
  HyGnnModel model(5, config, &rng);
  std::vector<data::LabeledPair> pairs{{0, 1, 1.0f}, {0, 2, 0.0f}};
  tensor::Tensor logits = model.Forward(context, pairs, false, nullptr);
  EXPECT_EQ(logits.rows(), 2);
  EXPECT_EQ(logits.cols(), 1);
  auto probabilities = model.PredictProbabilities(context, pairs);
  ASSERT_EQ(probabilities.size(), 2u);
  for (float p : probabilities) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

TEST(ModelTest, DotVariantHasFewerParameters) {
  core::Rng rng(8);
  HyGnnConfig mlp_config;
  mlp_config.decoder = DecoderKind::kMlp;
  HyGnnConfig dot_config;
  dot_config.decoder = DecoderKind::kDot;
  HyGnnModel mlp_model(5, mlp_config, &rng);
  HyGnnModel dot_model(5, dot_config, &rng);
  EXPECT_GT(mlp_model.Parameters().size(), dot_model.Parameters().size());
}

TEST(TrainerTest, OverfitsTinyDataset) {
  core::Rng rng(9);
  // Hypergraph with clear structure: drugs 0,1 share substructures,
  // drug 2 disjoint; labels follow the sharing pattern.
  graph::Hypergraph hypergraph(6, {{0, 1, 2}, {0, 1, 3}, {4, 5}, {4, 5}});
  auto context = HypergraphContext::FromHypergraph(hypergraph);
  HyGnnConfig config;
  config.encoder.hidden_dim = 16;
  config.encoder.output_dim = 16;
  HyGnnModel model(6, config, &rng);
  std::vector<data::LabeledPair> pairs{
      {0, 1, 1.0f}, {2, 3, 1.0f}, {0, 2, 0.0f}, {1, 3, 0.0f}};
  TrainConfig train_config;
  train_config.epochs = 300;
  train_config.learning_rate = 0.01f;
  HyGnnTrainer trainer(&model, train_config);
  const float final_loss = trainer.Fit(context, pairs);
  EXPECT_LT(final_loss, 0.1f);
  EvalResult result = trainer.Evaluate(context, pairs);
  EXPECT_GT(result.roc_auc, 0.95);
}

TEST(TrainerTest, TrainingImprovesOverUntrained) {
  core::Rng rng(10);
  data::DatasetConfig data_config;
  data_config.num_drugs = 100;
  data_config.seed = 11;
  auto dataset = data::GenerateDataset(data_config).value();
  data::FeaturizeConfig feat_config;
  feat_config.espf_frequency_threshold = 3;
  auto featurizer =
      data::SubstructureFeaturizer::Build(dataset.drugs(), feat_config)
          .value();
  auto hypergraph = graph::BuildDrugHypergraph(
      featurizer.drug_substructures(), featurizer.num_substructures());
  auto context = HypergraphContext::FromHypergraph(hypergraph);

  core::Rng pair_rng(12);
  auto pairs = data::BuildBalancedPairs(dataset, &pair_rng);
  auto split = data::RandomSplit(pairs, 0.7, &pair_rng);

  HyGnnConfig config;
  config.encoder.hidden_dim = 32;
  config.encoder.output_dim = 32;
  HyGnnModel model(featurizer.num_substructures(), config, &rng);
  TrainConfig train_config;
  train_config.epochs = 150;
  HyGnnTrainer trainer(&model, train_config);

  EvalResult untrained = trainer.Evaluate(context, split.test);
  trainer.Fit(context, split.train);
  EvalResult trained = trainer.Evaluate(context, split.test);
  EXPECT_GT(trained.roc_auc, untrained.roc_auc);
  EXPECT_GT(trained.roc_auc, 0.75);
}

TEST(EvaluateScoresTest, MatchesMetrics) {
  std::vector<float> scores{0.9f, 0.1f};
  std::vector<float> labels{1.0f, 0.0f};
  EvalResult result = EvaluateScores(scores, labels);
  EXPECT_DOUBLE_EQ(result.f1, 1.0);
  EXPECT_DOUBLE_EQ(result.roc_auc, 1.0);
  EXPECT_DOUBLE_EQ(result.pr_auc, 1.0);
}

// Property sweep over encoder dimensions and decoder kinds: forward
// pass is finite and parameters all receive gradients.
class ModelPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, DecoderKind>> {};

TEST_P(ModelPropertyTest, ForwardBackwardFinite) {
  const int dim = std::get<0>(GetParam());
  const DecoderKind decoder = std::get<1>(GetParam());
  core::Rng rng(20 + dim);
  auto context = HypergraphContext::FromHypergraph(TinyHypergraph());
  HyGnnConfig config;
  config.encoder.hidden_dim = dim;
  config.encoder.output_dim = dim;
  config.decoder = decoder;
  HyGnnModel model(5, config, &rng);
  std::vector<data::LabeledPair> pairs{{0, 1, 1.0f}, {1, 2, 0.0f},
                                       {0, 2, 0.0f}};
  tensor::Tensor logits = model.Forward(context, pairs, true, &rng);
  for (int64_t i = 0; i < logits.size(); ++i) {
    ASSERT_TRUE(std::isfinite(logits.data()[i]));
  }
  tensor::Tensor loss =
      tensor::BceWithLogitsLoss(logits, {1.0f, 0.0f, 0.0f});
  loss.Backward();
  for (auto& param : model.Parameters()) {
    ASSERT_TRUE(param.has_grad());
    for (int64_t i = 0; i < param.size(); ++i) {
      ASSERT_TRUE(std::isfinite(param.grad()[i]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ModelPropertyTest,
    ::testing::Combine(::testing::Values(4, 16, 64),
                       ::testing::Values(DecoderKind::kDot,
                                         DecoderKind::kMlp)));

}  // namespace
}  // namespace hygnn::model
