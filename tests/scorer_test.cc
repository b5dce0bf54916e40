#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "graph/hypergraph.h"
#include "hygnn/model.h"
#include "hygnn/scorer.h"
#include "metrics/metrics.h"
#include "tensor/debug.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace hygnn::model {
namespace {

HypergraphContext TinyContext() {
  graph::Hypergraph graph(5, {{0, 1, 2}, {1, 2, 3}, {4}, {0, 3, 4}});
  return HypergraphContext::FromHypergraph(graph);
}

HyGnnModel TinyModel(uint64_t seed = 3) {
  core::Rng rng(seed);
  HyGnnConfig config;
  config.encoder.hidden_dim = 8;
  config.encoder.output_dim = 6;
  config.decoder_hidden_dim = 6;
  return HyGnnModel(5, config, &rng);
}

TEST(StableSigmoidTest, MatchesNaiveFormInModerateRange) {
  for (const float z : {-8.0f, -1.5f, -0.25f, 0.0f, 0.25f, 1.5f, 8.0f}) {
    const float naive = 1.0f / (1.0f + std::exp(-z));
    EXPECT_NEAR(StableSigmoid(z), naive, 1e-7f) << "z=" << z;
  }
}

TEST(StableSigmoidTest, SaturatesWithoutOverflow) {
  EXPECT_EQ(StableSigmoid(1e4f), 1.0f);
  EXPECT_EQ(StableSigmoid(-1e4f), 0.0f);
  EXPECT_TRUE(std::isfinite(StableSigmoid(88.0f)));
  EXPECT_TRUE(std::isfinite(StableSigmoid(-88.0f)));
}

TEST(StableSigmoidTest, SigmoidAllMapsColumn) {
  tensor::Tensor logits = tensor::Tensor::Zeros(3, 1);
  logits.data()[0] = -2.0f;
  logits.data()[1] = 0.0f;
  logits.data()[2] = 2.0f;
  const auto probabilities = SigmoidAll(logits);
  ASSERT_EQ(probabilities.size(), 3u);
  EXPECT_EQ(probabilities[0], StableSigmoid(-2.0f));
  EXPECT_EQ(probabilities[1], 0.5f);
  EXPECT_EQ(probabilities[2], StableSigmoid(2.0f));
}

TEST(InferenceModeTest, ServingForwardAllocatesNoGraphNodes) {
  const auto context = TinyContext();
  const auto model = TinyModel();
  const std::vector<data::LabeledPair> pairs = {{0, 1, 1.0f}, {2, 3, 0.0f}};
  tensor::InferenceModeScope inference;
  const tensor::Tensor logits = model.Forward(context, pairs, false, nullptr);
  // Reading the value materializes the lazy tape; afterwards the
  // executor has stripped parents/records from every no-grad node.
  (void)logits.At(0, 0);
  const auto report = tensor::GraphLint(logits);
  EXPECT_TRUE(report.issues.empty());
  // The logits tensor is the whole "graph": no graph edges survive.
  EXPECT_EQ(report.nodes_visited, 1);
  EXPECT_FALSE(logits.requires_grad());
}

TEST(InferenceModeTest, ScopeNestsAndRestores) {
  tensor::Tensor a =
      tensor::Tensor::Full(2, 2, 1.0f, /*requires_grad=*/true);
  {
    tensor::InferenceModeScope outer;
    {
      tensor::InferenceModeScope inner;
      EXPECT_TRUE(tensor::InferenceModeEnabled());
    }
    EXPECT_TRUE(tensor::InferenceModeEnabled());
    const tensor::Tensor detached = tensor::Relu(a);
    EXPECT_FALSE(detached.requires_grad());
    // Materialize: execution drops the no-grad node's graph edges.
    (void)detached.At(0, 0);
    EXPECT_EQ(tensor::GraphLint(detached).nodes_visited, 1);
  }
  EXPECT_FALSE(tensor::InferenceModeEnabled());
  const tensor::Tensor tracked = tensor::Relu(a);
  EXPECT_TRUE(tracked.requires_grad());
  EXPECT_GT(tensor::GraphLint(tracked).nodes_visited, 1);
}

TEST(MetricsUnificationTest, EvaluateBinaryMatchesPiecewiseMetrics) {
  const std::vector<float> scores = {0.9f, 0.2f, 0.7f, 0.4f, 0.6f};
  const std::vector<float> labels = {1.0f, 0.0f, 1.0f, 0.0f, 0.0f};
  const auto eval = metrics::EvaluateBinary(scores, labels);
  EXPECT_EQ(eval.f1, metrics::F1Score(scores, labels));
  EXPECT_EQ(eval.roc_auc, metrics::RocAuc(scores, labels));
  EXPECT_EQ(eval.pr_auc, metrics::PrAuc(scores, labels));
}

TEST(MetricsUnificationTest, EvaluateMultiClassCountsExactly) {
  const std::vector<int32_t> predicted = {0, 1, 2, 1, 0, 2};
  const std::vector<int32_t> actual = {0, 1, 1, 1, 2, 2};
  const auto eval = metrics::EvaluateMultiClass(predicted, actual, 3);
  EXPECT_NEAR(eval.accuracy, 4.0 / 6.0, 1e-12);
  // Per-class F1: class0 tp=1 fp=1 fn=0 -> 2/3; class1 tp=2 fp=0 fn=1
  // -> 4/5; class2 tp=1 fp=1 fn=1 -> 1/2; macro = (2/3+4/5+1/2)/3.
  EXPECT_NEAR(eval.macro_f1, (2.0 / 3.0 + 0.8 + 0.5) / 3.0, 1e-12);
}

}  // namespace
}  // namespace hygnn::model
