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
  // y = sum(x · 4), the scale a constant [1, 1] factor.
  Tensor x = Tensor::Full(1, 1, 3.0f, true);
  Tensor y = ReduceSum(MatMul(x, Tensor::Scalar(4.0f)));
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 4.0f);
}

TEST(AutogradTest, GradAccumulatesAcrossSharedUse) {
  // y = x·x uses x twice via RowwiseDot: dy/dx = 2x.
  Tensor x = Tensor::Full(1, 1, 5.0f, true);
  Tensor y = RowwiseDot(x, x);
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 10.0f);
}

TEST(AutogradTest, DiamondGraph) {
  // z = (x*2) + (x*3): dz/dx = 5.
  Tensor x = Tensor::Full(1, 1, 1.0f, true);
  Tensor z = Add(MatMul(x, Tensor::Scalar(2.0f)),
                 MatMul(x, Tensor::Scalar(3.0f)));
  z.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 5.0f);
}

TEST(AutogradTest, NoGradLeafUntouched) {
  Tensor x = Tensor::Full(1, 1, 2.0f, /*requires_grad=*/false);
  Tensor w = Tensor::Full(1, 1, 3.0f, /*requires_grad=*/true);
  Tensor y = RowwiseDot(x, w);
  y.Backward();
  EXPECT_FALSE(x.has_grad());
  EXPECT_FLOAT_EQ(w.grad()[0], 2.0f);
}

TEST(AutogradTest, ZeroGradClears) {
  Tensor x = Tensor::Full(1, 1, 2.0f, true);
  Tensor y = MatMul(x, Tensor::Scalar(2.0f));
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
  // (x + b) - b, the subtraction an add of -b, with x on either side
  // of the first add.
  Tensor b = FixedRandom(2, 2, 97, false);
  Tensor minus_b = Tensor::FromVector(
      {-b.At(0, 0), -b.At(0, 1), -b.At(1, 0), -b.At(1, 1)}, 2, 2);
  Tensor mix = FixedRandom(2, 2, 96, false);
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(2, 2, 3); },
      [&](const Tensor& x) {
        return ReduceSum(RowwiseDot(Add(Add(x, b), minus_b), mix));
      });
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(2, 2, 3); },
      [&](const Tensor& x) {
        return ReduceSum(RowwiseDot(Add(b, Add(minus_b, x)), mix));
      });
}

TEST(GradCheckTest, AddRowBroadcastBias) {
  Tensor x_fixed = FixedRandom(3, 4, 95, false);
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(1, 4, 5); },
      [&x_fixed](const Tensor& bias) {
        return ReduceSum(RowwiseDot(AddRowBroadcast(x_fixed, bias),
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
        return ReduceSum(RowwiseDot(selected, selected));
      });
}

TEST(GradCheckTest, PairMatMul) {
  // Row 1 is in both halves, row 3 in none, pair 3 pairs row 2 with
  // itself and pair 4 repeats pair 1.
  const std::vector<int32_t> a{0, 1, 2, 2, 1};
  const std::vector<int32_t> b{1, 2, 1, 2, 2};
  Tensor w = FixedRandom(6, 2, 91, false);
  Tensor scale = FixedRandom(2, 2, 90, false);
  const auto loss = [&](const Tensor& h, const Tensor& weight) {
    Tensor z = PairMatMul(h, a, b, weight);
    return ReduceSum(RowwiseDot(MatMul(z, scale), z));
  };
  ExpectGradMatchesNumeric([] { return FixedRandom(4, 3, 15); },
                           [&](const Tensor& h) { return loss(h, w); });
  Tensor h = FixedRandom(4, 3, 15, false);
  ExpectGradMatchesNumeric([] { return FixedRandom(6, 2, 91); },
                           [&](const Tensor& weight) {
                             return loss(h, weight);
                           });
}

TEST(GradCheckTest, LeakyPairScore) {
  // Table row 1 is read by three pairs, row 2 by none; inputs stay away
  // from 0, where LeakyRelu's slope changes.
  const std::vector<int32_t> idx{1, 0, 1, 3, 1};
  const auto away_from_kink = [](Tensor t) {
    for (int64_t i = 0; i < t.size(); ++i) {
      if (std::fabs(t.data()[i]) < 0.1f) t.data()[i] = -0.4f;
    }
    return t;
  };
  const auto loss = [&](const Tensor& x, const Tensor& table,
                        const Tensor& w) {
    Tensor z = LeakyPairScore(x, table, idx, w, 0.2f);
    return ReduceSum(RowwiseDot(z, z));
  };
  const auto make_x = [&] { return away_from_kink(FixedRandom(5, 3, 17)); };
  const auto make_table = [&] {
    return away_from_kink(FixedRandom(4, 2, 18));
  };
  const auto make_w = [] { return FixedRandom(5, 1, 19); };
  const Tensor x = make_x().Detach();
  const Tensor table = make_table().Detach();
  const Tensor w = make_w().Detach();
  ExpectGradMatchesNumeric(make_x, [&](const Tensor& leaf) {
    return loss(leaf, table, w);
  });
  ExpectGradMatchesNumeric(make_table, [&](const Tensor& leaf) {
    return loss(x, leaf, w);
  });
  ExpectGradMatchesNumeric(make_w, [&](const Tensor& leaf) {
    return loss(x, table, leaf);
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
        return ReduceSum(RowwiseDot(y, y));
      });
  Tensor z = away_from_kink(FixedRandom(3, 4, 17, false));
  ExpectGradMatchesNumeric(
      [] {
        return Tensor::FromVector({0.02f, -0.01f, 0.0f, 0.03f}, 1, 4, true);
      },
      [&z](const Tensor& b) {
        Tensor y = BiasRelu(z, b);
        return ReduceSum(RowwiseDot(y, y));
      });
}

TEST(GradCheckTest, SegmentSoftmax) {
  std::vector<int32_t> segments{0, 0, 1, 1, 1};
  Tensor mix = FixedRandom(5, 1, 90, false);
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(5, 1, 10); },
      [&](const Tensor& scores) {
        return ReduceSum(RowwiseDot(SegmentSoftmax(scores, segments, 2), mix));
      });
}

TEST(GradCheckTest, SegmentSum) {
  std::vector<int32_t> segments{1, 0, 1};
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(3, 2, 11); },
      [&segments](const Tensor& x) {
        Tensor summed = SegmentSum(x, segments, 2);
        return ReduceSum(RowwiseDot(summed, summed));
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
        return ReduceSum(RowwiseDot(SegmentSoftmax(scores, segments, 5), mix));
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
        return ReduceSum(RowwiseDot(SegmentSoftmax(scores, segments, 3), mix));
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
        return ReduceSum(RowwiseDot(SegmentSoftmax(scores, segments, 1), mix));
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
        return ReduceSum(RowwiseDot(summed, summed));
      });
}

TEST(GradCheckTest, WeightedSegmentSum) {
  // Unsorted ids, segment 1 empty and segment 3 a single row; x and w
  // each checked with the other fixed.
  const std::vector<int32_t> segments{2, 0, 3, 2, 0, 2};
  const auto loss = [&](const Tensor& x, const Tensor& w) {
    Tensor summed = WeightedSegmentSum(x, w, segments, 4);
    return ReduceSum(RowwiseDot(summed, summed));
  };
  const Tensor w = FixedRandom(6, 1, 95, false);
  ExpectGradMatchesNumeric([] { return FixedRandom(6, 3, 24); },
                           [&](const Tensor& x) { return loss(x, w); });
  const Tensor x = FixedRandom(6, 3, 96, false);
  ExpectGradMatchesNumeric([] { return FixedRandom(6, 1, 25); },
                           [&](const Tensor& weights) {
                             return loss(x, weights);
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

TEST(GradCheckTest, BceWithLogitsLoss) {
  std::vector<float> targets{1.0f, 0.0f, 1.0f, 0.0f};
  ExpectGradMatchesNumeric(
      [] { return FixedRandom(4, 1, 21); },
      [&targets](const Tensor& logits) {
        return BceWithLogitsLoss(logits, targets);
      });
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
        return ReduceSum(RowwiseDot(nodes, nodes));
      });
}

}  // namespace
}  // namespace hygnn::tensor
