#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "graph/graph.h"
#include "nn/gnn_layers.h"
#include "tensor/init.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/tape.h"

namespace hygnn::nn {
namespace {

TEST(LinearTest, ShapesAndBias) {
  core::Rng rng(1);
  Linear layer(3, 5, /*use_bias=*/true, &rng);
  tensor::Tensor x = tensor::Tensor::Full(2, 3, 1.0f);
  tensor::Tensor y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 2);
  EXPECT_EQ(y.cols(), 5);
  EXPECT_EQ(layer.Parameters().size(), 2u);
}

TEST(LinearTest, NoBias) {
  core::Rng rng(2);
  Linear layer(3, 4, /*use_bias=*/false, &rng);
  EXPECT_EQ(layer.Parameters().size(), 1u);
}

TEST(LinearTest, GradientsFlowToWeights) {
  core::Rng rng(3);
  Linear layer(2, 2, true, &rng);
  tensor::Tensor x = tensor::Tensor::Full(1, 2, 1.0f);
  tensor::Tensor loss = tensor::ReduceSum(layer.Forward(x));
  loss.Backward();
  for (auto& param : layer.Parameters()) {
    ASSERT_TRUE(param.has_grad());
    bool any_nonzero = false;
    for (int64_t i = 0; i < param.size(); ++i) {
      if (param.grad()[i] != 0.0f) any_nonzero = true;
    }
    EXPECT_TRUE(any_nonzero);
  }
}

TEST(MlpTest, LearnsXor) {
  core::Rng rng(4);
  Mlp mlp({2, 8, 1}, &rng);
  tensor::Tensor x = tensor::Tensor::FromVector(
      {0, 0, 0, 1, 1, 0, 1, 1}, 4, 2);
  std::vector<float> labels{0.0f, 1.0f, 1.0f, 0.0f};
  tensor::Adam adam(mlp.Parameters(), 0.05f);
  float final_loss = 1e9f;
  for (int epoch = 0; epoch < 500; ++epoch) {
    adam.ZeroGrad();
    tensor::Tensor logits = mlp.Forward(x, true, &rng);
    tensor::Tensor loss = tensor::BceWithLogitsLoss(logits, labels);
    loss.Backward();
    adam.Step();
    final_loss = loss.item();
  }
  EXPECT_LT(final_loss, 0.1f);
  // Predictions on the training points are on the right side.
  tensor::Tensor logits = mlp.Forward(x);
  EXPECT_LT(logits.At(0, 0), 0.0f);
  EXPECT_GT(logits.At(1, 0), 0.0f);
  EXPECT_GT(logits.At(2, 0), 0.0f);
  EXPECT_LT(logits.At(3, 0), 0.0f);
}

TEST(MlpTest, ParameterCount) {
  core::Rng rng(5);
  Mlp mlp({4, 8, 8, 1}, &rng);
  EXPECT_EQ(mlp.Parameters().size(), 6u);  // 3 layers x (W, b)
}

graph::Graph MakeTestGraph() {
  return graph::Graph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
}

TEST(GcnTest, OutputShape) {
  core::Rng rng(6);
  graph::Graph g = MakeTestGraph();
  GcnConv layer(8, 16, &rng);
  tensor::Tensor x = tensor::Tensor::Full(5, 8, 0.5f);
  tensor::Tensor y = layer.Forward(g.NormalizedAdjacency(), x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 16);
}

TEST(GcnTest, IdenticalFeaturesOnSymmetricGraphStayIdentical) {
  // A 5-cycle is vertex-transitive; identical inputs must produce
  // identical outputs on every node.
  core::Rng rng(7);
  graph::Graph g = MakeTestGraph();
  GcnConv layer(4, 4, &rng);
  tensor::Tensor x = tensor::Tensor::Full(5, 4, 1.0f);
  tensor::Tensor y = layer.Forward(g.NormalizedAdjacency(), x);
  for (int64_t v = 1; v < 5; ++v) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(y.At(v, j), y.At(0, j), 1e-5f);
    }
  }
}

TEST(SageTest, OutputShapeAndGrad) {
  core::Rng rng(8);
  graph::Graph g = MakeTestGraph();
  SageConv layer(8, 16, &rng);
  tensor::Tensor x = tensor::Tensor::Full(5, 8, 0.5f);
  tensor::Tensor y = layer.Forward(g.MeanAdjacency(), x);
  EXPECT_EQ(y.cols(), 16);
  tensor::Tensor loss = tensor::ReduceSum(tensor::RowwiseDot(y, y));
  loss.Backward();
  EXPECT_TRUE(layer.Parameters()[0].has_grad());
}

TEST(GatTest, OutputShapeMultiHead) {
  core::Rng rng(9);
  graph::Graph g = MakeTestGraph();
  GatConv layer(8, 4, /*num_heads=*/3, &rng);
  auto edges = GatEdgeIndex::FromGraph(g);
  tensor::Tensor x = tensor::Tensor::Full(5, 8, 0.5f);
  tensor::Tensor y = layer.Forward(edges, x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 12);  // heads * head_dim
}

TEST(GatTest, SelfLoopsIncluded) {
  graph::Graph g(3, {});  // no edges at all
  auto edges = GatEdgeIndex::FromGraph(g);
  // Only the 3 self-loops.
  EXPECT_EQ(edges.sources->size(), 3);
  core::Rng rng(10);
  GatConv layer(4, 4, 1, &rng);
  tensor::Tensor x = tensor::Tensor::Full(3, 4, 1.0f);
  tensor::Tensor y = layer.Forward(edges, x);
  // With only a self-loop, attention weight is 1 — output is finite.
  for (int64_t i = 0; i < y.size(); ++i) {
    EXPECT_TRUE(std::isfinite(y.data()[i]));
  }
}

TEST(GatTest, AttentionTrainable) {
  core::Rng rng(11);
  graph::Graph g = MakeTestGraph();
  GatConv layer(4, 4, 2, &rng);
  EXPECT_EQ(layer.Parameters().size(), 6u);  // 2 heads x (W, a_src, a_tgt)
  auto edges = GatEdgeIndex::FromGraph(g);
  tensor::Tensor x = tensor::Tensor::Full(5, 4, 1.0f);
  tensor::Tensor loss =
      tensor::ReduceSum(tensor::RowwiseDot(layer.Forward(edges, x),
                                           layer.Forward(edges, x)));
  loss.Backward();
  EXPECT_TRUE(layer.Parameters()[1].has_grad());
}

TEST(GatTest, ForwardRecordsTheEdgeIndexObjects) {
  // Every op of a GAT forward that reads the edges records one of the
  // edge index's two objects by pointer, so each side's ids are copied
  // and grouped once, in FromGraph, however many heads and forwards
  // read them.
  core::Rng rng(13);
  graph::Graph g = MakeTestGraph();
  GatConv layer(4, 4, /*num_heads=*/2, &rng);
  const auto edges = GatEdgeIndex::FromGraph(g);
  const tensor::Tensor y =
      layer.Forward(edges, tensor::Tensor::Full(5, 4, 1.0f));
  std::map<std::string, int> reads_sources;
  std::map<std::string, int> reads_targets;
  int other_indices = 0;
  std::vector<tensor::TensorImpl*> stack{y.impl().get()};
  std::set<tensor::TensorImpl*> seen{y.impl().get()};
  while (!stack.empty()) {
    tensor::TensorImpl* node = stack.back();
    stack.pop_back();
    if (node->rec != nullptr) {
      const auto& index = node->rec->index;
      if (index == edges.sources) {
        ++reads_sources[node->op];
      } else if (index == edges.targets) {
        ++reads_targets[node->op];
      } else if (index != nullptr) {
        ++other_indices;
      }
    }
    for (const auto& parent : node->parents) {
      if (seen.insert(parent.get()).second) stack.push_back(parent.get());
    }
  }
  // Per head: the source scores' and the messages' gathers read the
  // sources; the target scores' gather, the softmax and the message sum
  // read the targets.
  EXPECT_EQ(reads_sources,
            (std::map<std::string, int>{{"IndexSelectRows", 4}}));
  EXPECT_EQ(reads_targets, (std::map<std::string, int>{
                               {"IndexSelectRows", 2},
                               {"SegmentSoftmax", 2},
                               {"WeightedSegmentSum", 2}}));
  EXPECT_EQ(other_indices, 0);
}

TEST(GnnTrainingTest, TwoLayerGcnFitsCommunityLabels) {
  // Two 4-cliques joined by one edge; labels = community. A 2-layer GCN
  // with learnable inputs should separate them.
  std::vector<std::pair<int32_t, int32_t>> edges;
  for (int32_t a = 0; a < 4; ++a) {
    for (int32_t b = a + 1; b < 4; ++b) {
      edges.push_back({a, b});
      edges.push_back({a + 4, b + 4});
    }
  }
  edges.push_back({0, 4});
  graph::Graph g(8, edges);
  core::Rng rng(12);
  tensor::Tensor features =
      tensor::XavierUniform(8, 8, &rng, /*requires_grad=*/true);
  GcnConv layer1(8, 8, &rng);
  GcnConv layer2(8, 1, &rng);
  auto adj = g.NormalizedAdjacency();
  std::vector<float> labels{0, 0, 0, 0, 1, 1, 1, 1};

  std::vector<tensor::Tensor> params{features};
  for (auto& p : layer1.Parameters()) params.push_back(p);
  for (auto& p : layer2.Parameters()) params.push_back(p);
  tensor::Adam adam(params, 0.05f);
  float final_loss = 1e9f;
  for (int epoch = 0; epoch < 200; ++epoch) {
    adam.ZeroGrad();
    tensor::Tensor h = tensor::Relu(layer1.Forward(adj, features));
    tensor::Tensor logits = layer2.Forward(adj, h);
    tensor::Tensor loss = tensor::BceWithLogitsLoss(logits, labels);
    loss.Backward();
    adam.Step();
    final_loss = loss.item();
  }
  EXPECT_LT(final_loss, 0.2f);
}

}  // namespace
}  // namespace hygnn::nn
