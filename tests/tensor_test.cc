#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace hygnn::tensor {
namespace {

TEST(TensorTest, FactoryShapes) {
  Tensor z = Tensor::Zeros(2, 3);
  EXPECT_EQ(z.rows(), 2);
  EXPECT_EQ(z.cols(), 3);
  EXPECT_EQ(z.size(), 6);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(z.data()[i], 0.0f);

  Tensor f = Tensor::Full(2, 2, 3.5f);
  EXPECT_EQ(f.At(1, 1), 3.5f);

  Tensor s = Tensor::Scalar(2.0f);
  EXPECT_EQ(s.item(), 2.0f);
}

TEST(TensorTest, FromVectorAndAccessors) {
  Tensor t = Tensor::FromVector({1, 2, 3, 4, 5, 6}, 2, 3);
  EXPECT_EQ(t.At(0, 0), 1.0f);
  EXPECT_EQ(t.At(0, 2), 3.0f);
  EXPECT_EQ(t.At(1, 0), 4.0f);
  t.Set(1, 2, 9.0f);
  EXPECT_EQ(t.At(1, 2), 9.0f);
}

TEST(TensorTest, HandleSemantics) {
  Tensor a = Tensor::Zeros(1, 1);
  Tensor b = a;  // aliases
  b.Set(0, 0, 5.0f);
  EXPECT_EQ(a.item(), 5.0f);
  Tensor c = a.Detach();  // deep copy
  c.Set(0, 0, 7.0f);
  EXPECT_EQ(a.item(), 5.0f);
}

TEST(TensorTest, DetachDropsGraphAndGrad) {
  Tensor a = Tensor::Full(1, 1, 2.0f, /*requires_grad=*/true);
  Tensor b = MatMul(a, Tensor::Scalar(3.0f));
  Tensor d = b.Detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_EQ(d.item(), 6.0f);
}

TEST(OpsTest, MatMulValues) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4}, 2, 2);
  Tensor b = Tensor::FromVector({5, 6, 7, 8}, 2, 2);
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.At(0, 0), 19.0f);
  EXPECT_EQ(c.At(0, 1), 22.0f);
  EXPECT_EQ(c.At(1, 0), 43.0f);
  EXPECT_EQ(c.At(1, 1), 50.0f);
}

TEST(OpsTest, MatMulRectangular) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}, 2, 3);
  Tensor b = Tensor::FromVector({1, 0, 0, 1, 1, 1}, 3, 2);
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_EQ(c.At(0, 0), 1.0f + 0.0f + 3.0f);
  EXPECT_EQ(c.At(1, 1), 5.0f + 6.0f);
}

TEST(OpsTest, Add) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4}, 2, 2);
  Tensor b = Tensor::FromVector({4, 3, -2, 1}, 2, 2);
  Tensor c = Add(a, b);
  EXPECT_EQ(c.At(0, 0), 5.0f);
  EXPECT_EQ(c.At(1, 0), 1.0f);
  EXPECT_EQ(c.At(1, 1), 5.0f);
}

TEST(OpsTest, AddRowBroadcast) {
  Tensor x = Tensor::FromVector({1, 2, 3, 4}, 2, 2);
  Tensor bias = Tensor::FromVector({10, 20}, 1, 2);
  Tensor y = AddRowBroadcast(x, bias);
  EXPECT_EQ(y.At(0, 0), 11.0f);
  EXPECT_EQ(y.At(1, 1), 24.0f);
}

TEST(OpsTest, BiasReluRefusesOneTensorAsBothInputs) {
  // BiasRelu's backward writes the two inputs' gradients in one pass,
  // so a [1, d] tensor may not be both z and the bias.
  Tensor x = Tensor::FromVector({1, -2}, 1, 2, /*requires_grad=*/true);
  EXPECT_DEATH(BiasRelu(x, x), "itself");
}

TEST(OpsTest, MulColumnBroadcast) {
  Tensor x = Tensor::FromVector({1, 2, 3, 4}, 2, 2);
  Tensor w = Tensor::FromVector({2, -1}, 2, 1);
  Tensor y = MulColumnBroadcast(x, w);
  EXPECT_EQ(y.At(0, 1), 4.0f);
  EXPECT_EQ(y.At(1, 0), -3.0f);
}

TEST(OpsTest, ConcatCols) {
  Tensor a = Tensor::FromVector({1, 2}, 2, 1);
  Tensor b = Tensor::FromVector({3, 4, 5, 6}, 2, 2);
  Tensor c = ConcatCols(a, b);
  EXPECT_EQ(c.cols(), 3);
  EXPECT_EQ(c.At(0, 0), 1.0f);
  EXPECT_EQ(c.At(0, 1), 3.0f);
  EXPECT_EQ(c.At(1, 2), 6.0f);
}

TEST(OpsTest, IndexSelectRows) {
  Tensor x = Tensor::FromVector({1, 2, 3, 4, 5, 6}, 3, 2);
  Tensor y = IndexSelectRows(x, {2, 0, 2});
  EXPECT_EQ(y.rows(), 3);
  EXPECT_EQ(y.At(0, 0), 5.0f);
  EXPECT_EQ(y.At(1, 1), 2.0f);
  EXPECT_EQ(y.At(2, 1), 6.0f);
}

TEST(OpsTest, SegmentSoftmaxSumsToOnePerSegment) {
  Tensor scores = Tensor::FromVector({1.0f, 2.0f, 0.5f, 3.0f, -1.0f}, 5, 1);
  std::vector<int32_t> segments{0, 0, 1, 1, 1};
  Tensor y = SegmentSoftmax(scores, segments, 2);
  EXPECT_NEAR(y.At(0, 0) + y.At(1, 0), 1.0f, 1e-6f);
  EXPECT_NEAR(y.At(2, 0) + y.At(3, 0) + y.At(4, 0), 1.0f, 1e-6f);
  // Larger score -> larger weight within a segment.
  EXPECT_GT(y.At(1, 0), y.At(0, 0));
  EXPECT_GT(y.At(3, 0), y.At(2, 0));
}

TEST(OpsTest, SegmentSoftmaxSingletonIsOne) {
  Tensor scores = Tensor::FromVector({42.0f}, 1, 1);
  Tensor y = SegmentSoftmax(scores, {0}, 1);
  EXPECT_NEAR(y.item(), 1.0f, 1e-6f);
}

TEST(OpsTest, SegmentSoftmaxNumericallyStable) {
  // Large scores must not overflow exp.
  Tensor scores = Tensor::FromVector({1000.0f, 999.0f}, 2, 1);
  Tensor y = SegmentSoftmax(scores, {0, 0}, 1);
  EXPECT_TRUE(std::isfinite(y.At(0, 0)));
  EXPECT_NEAR(y.At(0, 0) + y.At(1, 0), 1.0f, 1e-5f);
  EXPECT_GT(y.At(0, 0), y.At(1, 0));
}

TEST(OpsTest, SegmentSumGroupsRows) {
  Tensor x = Tensor::FromVector({1, 1, 2, 2, 3, 3}, 3, 2);
  Tensor y = SegmentSum(x, {1, 1, 0}, 2);
  EXPECT_EQ(y.rows(), 2);
  EXPECT_EQ(y.At(0, 0), 3.0f);  // row 2 only
  EXPECT_EQ(y.At(1, 0), 3.0f);  // rows 0 and 1
  EXPECT_EQ(y.At(1, 1), 3.0f);
}

TEST(OpsTest, SegmentSumEmptySegmentIsZero) {
  Tensor x = Tensor::FromVector({5, 5}, 1, 2);
  Tensor y = SegmentSum(x, {2}, 4);
  EXPECT_EQ(y.At(0, 0), 0.0f);
  EXPECT_EQ(y.At(2, 1), 5.0f);
  EXPECT_EQ(y.At(3, 0), 0.0f);
}

TEST(OpsTest, RowwiseDot) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4}, 2, 2);
  Tensor b = Tensor::FromVector({5, 6, 7, 8}, 2, 2);
  Tensor y = RowwiseDot(a, b);
  EXPECT_EQ(y.rows(), 2);
  EXPECT_EQ(y.At(0, 0), 17.0f);
  EXPECT_EQ(y.At(1, 0), 53.0f);
}

TEST(OpsTest, Reductions) {
  Tensor x = Tensor::FromVector({1, 2, 3, 4}, 2, 2);
  EXPECT_EQ(ReduceSum(x).item(), 10.0f);
}

TEST(OpsTest, ActivationValues) {
  Tensor x = Tensor::FromVector({-2.0f, 0.0f, 2.0f}, 3, 1);
  Tensor relu = Relu(x);
  EXPECT_EQ(relu.At(0, 0), 0.0f);
  EXPECT_EQ(relu.At(2, 0), 2.0f);

  Tensor leaky = LeakyRelu(x, 0.1f);
  EXPECT_NEAR(leaky.At(0, 0), -0.2f, 1e-6f);
  EXPECT_EQ(leaky.At(2, 0), 2.0f);
}

TEST(OpsTest, DropoutIdentityInEval) {
  core::Rng rng(3);
  Tensor x = Tensor::Full(4, 4, 1.0f);
  Tensor y = Dropout(x, 0.5f, /*training=*/false, &rng);
  for (int64_t i = 0; i < y.size(); ++i) EXPECT_EQ(y.data()[i], 1.0f);
}

TEST(OpsTest, DropoutScalesSurvivors) {
  core::Rng rng(3);
  Tensor x = Tensor::Full(100, 10, 1.0f);
  Tensor y = Dropout(x, 0.5f, /*training=*/true, &rng);
  int zeros = 0;
  for (int64_t i = 0; i < y.size(); ++i) {
    if (y.data()[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(y.data()[i], 2.0f, 1e-6f);
    }
  }
  EXPECT_NEAR(zeros / 1000.0, 0.5, 0.07);
}

TEST(InitTest, XavierBounds) {
  core::Rng rng(1);
  Tensor w = XavierUniform(100, 50, &rng);
  const float bound = std::sqrt(6.0f / 150.0f);
  for (int64_t i = 0; i < w.size(); ++i) {
    EXPECT_GE(w.data()[i], -bound);
    EXPECT_LE(w.data()[i], bound);
  }
  EXPECT_TRUE(w.requires_grad());
}

TEST(InitTest, NormalInitStddev) {
  core::Rng rng(2);
  Tensor w = NormalInit(200, 50, 0.5f, &rng);
  double sum = 0.0, sum_sq = 0.0;
  for (int64_t i = 0; i < w.size(); ++i) {
    sum += w.data()[i];
    sum_sq += static_cast<double>(w.data()[i]) * w.data()[i];
  }
  const double n = static_cast<double>(w.size());
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(std::sqrt(sum_sq / n), 0.5, 0.02);
}

}  // namespace
}  // namespace hygnn::tensor
