#include <gtest/gtest.h>

#include "core/rng.h"
#include "tensor/init.h"
#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tests/gradcheck.h"

namespace hygnn::tensor {
namespace {

using hygnn::testing::ExpectGradMatchesNumeric;

/// Fixed pseudo-random contents so make_input() is repeatable.
Tensor FixedRandom(int64_t rows, int64_t cols, uint64_t seed,
                   bool requires_grad = true) {
  core::Rng rng(seed);
  std::vector<float> values(static_cast<size_t>(rows * cols));
  for (auto& v : values) v = (rng.UniformFloat() - 0.5f) * 2.0f;
  return Tensor::FromVector(std::move(values), rows, cols, requires_grad);
}

TEST(AutogradTest, ScaleAndSumChain) {
  Tensor x = Tensor::Full(1, 1, 3.0f, true);
  Tensor y = Scale(x, 4.0f);
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 4.0f);
}

TEST(AutogradTest, GradAccumulatesAcrossSharedUse) {
  // y = x*x uses x twice via Mul: dy/dx = 2x.
  Tensor x = Tensor::Full(1, 1, 5.0f, true);
  Tensor y = Mul(x, x);
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 10.0f);
}

TEST(AutogradTest, DiamondGraph) {
  // z = (x*2) + (x*3): dz/dx = 5.
  Tensor x = Tensor::Full(1, 1, 1.0f, true);
  Tensor z = Add(Scale(x, 2.0f), Scale(x, 3.0f));
  z.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 5.0f);
}

TEST(AutogradTest, NoGradLeafUntouched) {
  Tensor x = Tensor::Full(1, 1, 2.0f, /*requires_grad=*/false);
  Tensor w = Tensor::Full(1, 1, 3.0f, /*requires_grad=*/true);
  Tensor y = Mul(x, w);
  y.Backward();
  EXPECT_FALSE(x.has_grad());
  EXPECT_FLOAT_EQ(w.grad()[0], 2.0f);
}

TEST(AutogradTest, ZeroGradClears) {
  Tensor x = Tensor::Full(1, 1, 2.0f, true);
  Tensor y = Scale(x, 2.0f);
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
  x.ZeroGrad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
}

// ----- numeric gradient checks, one per operator -----

TEST(GradCheckTest, MatMulLeft) {
  Tensor b = FixedRandom(3, 2, 99, /*requires_grad=*/false);
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(2, 3, 1); },
      [&b](const Tensor& x) { return ReduceSum(MatMul(x, b)); });
}

TEST(GradCheckTest, MatMulRight) {
  Tensor a = FixedRandom(2, 3, 98, /*requires_grad=*/false);
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(3, 2, 2); },
      [&a](const Tensor& x) { return ReduceSum(MatMul(a, x)); });
}

TEST(GradCheckTest, AddAndSub) {
  Tensor b = FixedRandom(2, 2, 97, false);
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(2, 2, 3); },
      [&b](const Tensor& x) { return ReduceSum(Sub(Add(x, b), b)); });
}

TEST(GradCheckTest, MulElementwise) {
  Tensor b = FixedRandom(2, 3, 96, false);
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(2, 3, 4); },
      [&b](const Tensor& x) { return ReduceSum(Mul(x, b)); });
}

TEST(GradCheckTest, AddRowBroadcastBias) {
  Tensor x_fixed = FixedRandom(3, 4, 95, false);
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(1, 4, 5); },
      [&x_fixed](const Tensor& bias) {
        return ReduceSum(Mul(AddRowBroadcast(x_fixed, bias),
                             AddRowBroadcast(x_fixed, bias)));
      });
}

TEST(GradCheckTest, MulColumnBroadcastBothSides) {
  Tensor w = FixedRandom(3, 1, 94, false);
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(3, 2, 6); },
      [&w](const Tensor& x) { return ReduceSum(MulColumnBroadcast(x, w)); });
  Tensor x = FixedRandom(3, 2, 93, false);
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(3, 1, 7); },
      [&x](const Tensor& w2) {
        return ReduceSum(MulColumnBroadcast(x, w2));
      });
}

TEST(GradCheckTest, ConcatCols) {
  Tensor b = FixedRandom(2, 2, 92, false);
  Tensor scale = FixedRandom(4, 1, 91, false);
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(2, 2, 8); },
      [&](const Tensor& x) {
        return ReduceSum(MatMul(ConcatCols(x, b), scale));
      });
}

TEST(GradCheckTest, IndexSelectRows) {
  std::vector<int32_t> indices{0, 2, 2, 1};
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(3, 2, 9); },
      [&indices](const Tensor& x) {
        Tensor selected = IndexSelectRows(x, indices);
        return ReduceSum(Mul(selected, selected));
      });
}

TEST(GradCheckTest, PairConcat) {
  // Row 1 is in both halves, row 3 in none.
  const std::vector<int32_t> a{0, 1, 2, 1};
  const std::vector<int32_t> b{1, 2, 1, 0};
  Tensor scale = FixedRandom(6, 1, 90, false);
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(4, 3, 15); },
      [&](const Tensor& x) {
        Tensor pairs = PairConcat(x, a, b);
        return ReduceSum(MatMul(Mul(pairs, pairs), scale));
      });
}

TEST(GradCheckTest, BiasReluBothInputs) {
  // Pre-activations kept away from 0, where ReLU is non-differentiable.
  const auto away_from_kink = [](Tensor t) {
    for (int64_t i = 0; i < t.size(); ++i) {
      if (std::fabs(t.data()[i]) < 0.1f) t.data()[i] = 0.3f;
    }
    return t;
  };
  Tensor bias = Tensor::FromVector({0.01f, -0.02f, 0.015f, 0.0f}, 1, 4);
  ExpectGradMatchesNumeric(
      [&] { return away_from_kink(FixedRandom(3, 4, 16)); },
      [&bias](const Tensor& z) {
        Tensor y = BiasRelu(z, bias);
        return ReduceSum(Mul(y, y));
      });
  Tensor z = away_from_kink(FixedRandom(3, 4, 17, false));
  ExpectGradMatchesNumeric(
      [] {
        return Tensor::FromVector({0.02f, -0.01f, 0.0f, 0.03f}, 1, 4, true);
      },
      [&z](const Tensor& b) {
        Tensor y = BiasRelu(z, b);
        return ReduceSum(Mul(y, y));
      });
}

TEST(GradCheckTest, SegmentSoftmax) {
  std::vector<int32_t> segments{0, 0, 1, 1, 1};
  Tensor mix = FixedRandom(5, 1, 90, false);
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(5, 1, 10); },
      [&](const Tensor& scores) {
        return ReduceSum(Mul(SegmentSoftmax(scores, segments, 2), mix));
      });
}

TEST(GradCheckTest, SegmentSum) {
  std::vector<int32_t> segments{1, 0, 1};
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(3, 2, 11); },
      [&segments](const Tensor& x) {
        Tensor summed = SegmentSum(x, segments, 2);
        return ReduceSum(Mul(summed, summed));
      });
}

TEST(GradCheckTest, SegmentSoftmaxWithEmptySegments) {
  // Segments 1 and 3 have no rows: the softmax must skip them in both
  // passes and the gradient must stay exact for the populated ones.
  std::vector<int32_t> segments{0, 0, 2, 2, 4};
  Tensor mix = FixedRandom(5, 1, 91, false);
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(5, 1, 13); },
      [&](const Tensor& scores) {
        return ReduceSum(Mul(SegmentSoftmax(scores, segments, 5), mix));
      });
}

TEST(GradCheckTest, SegmentSoftmaxSingleElementSegments) {
  // Every segment has exactly one row, so each softmax output is the
  // constant 1 and the analytic gradient must vanish (y*(g - g*y) = 0).
  std::vector<int32_t> segments{0, 1, 2};
  Tensor mix = FixedRandom(3, 1, 92, false);
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(3, 1, 14); },
      [&](const Tensor& scores) {
        return ReduceSum(Mul(SegmentSoftmax(scores, segments, 3), mix));
      });
}

TEST(GradCheckTest, SegmentSoftmaxSingleSegmentMatchesRowSoftmax) {
  // One segment covering every row: segment softmax degenerates to a
  // plain softmax over the column.
  std::vector<int32_t> segments{0, 0, 0, 0};
  Tensor mix = FixedRandom(4, 1, 93, false);
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(4, 1, 15); },
      [&](const Tensor& scores) {
        return ReduceSum(Mul(SegmentSoftmax(scores, segments, 1), mix));
      });
}

TEST(GradCheckTest, SegmentSumWithEmptyAndSingleSegments) {
  // Segment 1 is empty, segments 0 and 3 have one row each, segment 2
  // has two; gradients must scatter back through the gaps untouched.
  std::vector<int32_t> segments{0, 2, 2, 3};
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(4, 2, 16); },
      [&](const Tensor& x) {
        Tensor summed = SegmentSum(x, segments, 4);
        return ReduceSum(Mul(summed, summed));
      });
}

TEST(SegmentOpsTest, EmptySegmentForwardIsZero) {
  // Forward-only contract: rows of an empty segment do not exist, the
  // summed accumulator stays zero, and softmax outputs stay normalized
  // within their own segment.
  Tensor x = Tensor::FromVector({1.0f, 2.0f, 3.0f}, 3, 1);
  std::vector<int32_t> segments{0, 0, 2};
  Tensor summed = SegmentSum(x, segments, 3);
  EXPECT_FLOAT_EQ(summed.At(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(summed.At(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(summed.At(2, 0), 3.0f);
  Tensor soft = SegmentSoftmax(x, segments, 3);
  EXPECT_NEAR(soft.At(0, 0) + soft.At(1, 0), 1.0f, 1e-6f);
  EXPECT_FLOAT_EQ(soft.At(2, 0), 1.0f);
}

TEST(GradCheckTest, RowwiseDot) {
  Tensor b = FixedRandom(3, 2, 89, false);
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(3, 2, 12); },
      [&b](const Tensor& x) { return ReduceSum(RowwiseDot(x, b)); });
}

TEST(GradCheckTest, ReluAwayFromKink) {
  // Shift inputs away from 0 where ReLU is non-differentiable.
  ExpectGradMatchesNumeric(
      [] {
        Tensor x = FixedRandom(2, 3, 13);
        for (int64_t i = 0; i < x.size(); ++i) {
          if (std::fabs(x.data()[i]) < 0.05f) x.data()[i] = 0.2f;
        }
        return x;
      },
      [](const Tensor& x) { return ReduceSum(Relu(x)); });
}

TEST(GradCheckTest, LeakyReluAwayFromKink) {
  ExpectGradMatchesNumeric(
      [] {
        Tensor x = FixedRandom(2, 3, 14);
        for (int64_t i = 0; i < x.size(); ++i) {
          if (std::fabs(x.data()[i]) < 0.05f) x.data()[i] = -0.2f;
        }
        return x;
      },
      [](const Tensor& x) { return ReduceSum(LeakyRelu(x, 0.2f)); });
}

TEST(GradCheckTest, SigmoidTanhExp) {
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(2, 2, 15); },
      [](const Tensor& x) { return ReduceSum(Sigmoid(x)); });
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(2, 2, 16); },
      [](const Tensor& x) { return ReduceSum(Tanh(x)); });
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(2, 2, 17); },
      [](const Tensor& x) { return ReduceSum(Exp(x)); });
}

TEST(GradCheckTest, LogPositiveInputs) {
  ExpectGradMatchesNumeric(
      [] {
        Tensor x = FixedRandom(2, 2, 18);
        for (int64_t i = 0; i < x.size(); ++i) {
          x.data()[i] = std::fabs(x.data()[i]) + 0.5f;
        }
        return x;
      },
      [](const Tensor& x) { return ReduceSum(Log(x)); });
}

TEST(GradCheckTest, L2NormalizeRows) {
  Tensor mix = FixedRandom(2, 3, 88, false);
  ExpectGradMatchesNumeric(
      [] {
        Tensor x = FixedRandom(2, 3, 19);
        for (int64_t i = 0; i < x.size(); ++i) x.data()[i] += 1.5f;
        return x;
      },
      [&mix](const Tensor& x) {
        return ReduceSum(Mul(L2NormalizeRows(x), mix));
      });
}

TEST(GradCheckTest, ReduceMean) {
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(3, 3, 20); },
      [](const Tensor& x) { return ReduceMean(Mul(x, x)); });
}

TEST(GradCheckTest, BceWithLogitsLoss) {
  std::vector<float> targets{1.0f, 0.0f, 1.0f, 0.0f};
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(4, 1, 21); },
      [&targets](const Tensor& logits) {
        return BceWithLogitsLoss(logits, targets);
      });
}

TEST(GradCheckTest, BceLossOnProbabilities) {
  std::vector<float> targets{1.0f, 0.0f, 1.0f};
  ExpectGradMatchesNumeric(
      [] {
        // Probabilities well inside (0, 1).
        return Tensor::FromVector({0.3f, 0.6f, 0.8f}, 3, 1, true);
      },
      [&targets](const Tensor& probs) { return BceLoss(probs, targets); });
}

TEST(GradCheckTest, MseLoss) {
  std::vector<float> targets{0.5f, -0.5f, 1.0f};
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(3, 1, 22); },
      [&targets](const Tensor& pred) { return MseLoss(pred, targets); });
}

TEST(GradCheckTest, ComposedAttentionPattern) {
  // Miniature of the HyGNN attention computation: projection ->
  // segment-softmax -> weighted segment-sum. Verifies the composition
  // end to end.
  std::vector<int32_t> pair_nodes{0, 0, 1, 1, 2};
  std::vector<int32_t> pair_edges{0, 1, 0, 2, 1};
  Tensor g = FixedRandom(2, 1, 87, false);
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(3, 2, 23); },  // 3 edges, dim 2
      [&](const Tensor& edge_feat) {
        Tensor scores = MatMul(LeakyRelu(edge_feat, 0.2f), g);  // [3,1]
        Tensor pair_scores = IndexSelectRows(scores, pair_edges);
        Tensor alpha = SegmentSoftmax(pair_scores, pair_nodes, 3);
        Tensor messages = IndexSelectRows(edge_feat, pair_edges);
        Tensor nodes = SegmentSum(MulColumnBroadcast(messages, alpha),
                                  pair_nodes, 3);
        return ReduceSum(Mul(nodes, nodes));
      });
}

}  // namespace
}  // namespace hygnn::tensor
