#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "tensor/init.h"
#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/sparse.h"
#include "tests/gradcheck.h"

namespace hygnn::tensor {
namespace {

using hygnn::testing::ExpectGradMatchesNumeric;

TEST(CsrMatrixTest, FromCooBasics) {
  auto m = CsrMatrix::FromCoo(3, 3, {0, 1, 2}, {1, 2, 0},
                              {1.0f, 2.0f, 3.0f});
  EXPECT_EQ(m->rows(), 3);
  EXPECT_EQ(m->cols(), 3);
  EXPECT_EQ(m->nnz(), 3);
}

TEST(CsrMatrixTest, DuplicatesAreSummed) {
  auto m = CsrMatrix::FromCoo(2, 2, {0, 0, 1}, {1, 1, 0},
                              {1.0f, 2.0f, 5.0f});
  EXPECT_EQ(m->nnz(), 2);
  // Row 0 has a single entry of value 3 at column 1.
  EXPECT_EQ(m->values()[0], 3.0f);
  EXPECT_EQ(m->col_idx()[0], 1);
}

TEST(CsrMatrixTest, MultiplyMatchesDense) {
  // A = [[1, 0], [2, 3]]
  auto a = CsrMatrix::FromCoo(2, 2, {0, 1, 1}, {0, 0, 1},
                              {1.0f, 2.0f, 3.0f});
  std::vector<float> x{10.0f, 20.0f};  // column vector, d = 1
  std::vector<float> y(2, 0.0f);
  a->MultiplyInto(x.data(), 1, y.data());
  EXPECT_EQ(y[0], 10.0f);
  EXPECT_EQ(y[1], 80.0f);
}

TEST(CsrMatrixTest, TransposeCorrect) {
  auto a = CsrMatrix::FromCoo(2, 3, {0, 1, 1}, {2, 0, 1},
                              {1.0f, 2.0f, 3.0f});
  auto at = a->Transpose();
  EXPECT_EQ(at->rows(), 3);
  EXPECT_EQ(at->cols(), 2);
  EXPECT_EQ(at->nnz(), 3);
  // (0,2)=1 -> (2,0)=1
  std::vector<float> x{1.0f, 0.0f};  // pick out column 0 of A^T
  std::vector<float> y(3, 0.0f);
  at->MultiplyInto(x.data(), 1, y.data());
  EXPECT_EQ(y[2], 1.0f);
  EXPECT_EQ(y[0], 0.0f);
}

TEST(CsrMatrixTest, TransposeIsCached) {
  auto a = CsrMatrix::FromCoo(2, 2, {0}, {1}, {1.0f});
  EXPECT_EQ(a->Transpose().get(), a->Transpose().get());
}

TEST(SpMMTest, ForwardMatchesDense) {
  // A = [[1, 2], [0, 3]] ; X = [[1, 1], [2, 2]]
  auto a = CsrMatrix::FromCoo(2, 2, {0, 0, 1}, {0, 1, 1},
                              {1.0f, 2.0f, 3.0f});
  Tensor x = Tensor::FromVector({1, 1, 2, 2}, 2, 2);
  Tensor y = SpMM(a, x);
  EXPECT_EQ(y.At(0, 0), 5.0f);
  EXPECT_EQ(y.At(0, 1), 5.0f);
  EXPECT_EQ(y.At(1, 0), 6.0f);
}

TEST(SpMMTest, GradCheck) {
  auto a = CsrMatrix::FromCoo(3, 3, {0, 0, 1, 2, 2}, {0, 2, 1, 0, 2},
                              {0.5f, 1.5f, -1.0f, 2.0f, 0.25f});
  ExpectGradMatchesNumeric(
      [] {
        core::Rng rng(77);
        std::vector<float> values(6);
        for (auto& v : values) v = (rng.UniformFloat() - 0.5f) * 2.0f;
        return Tensor::FromVector(std::move(values), 3, 2, true);
      },
      [&a](const Tensor& x) {
        Tensor y = SpMM(a, x);
        return ReduceSum(RowwiseDot(y, y));
      });
}

// ---------- optimizers ----------

TEST(SgdTest, MinimizesQuadratic) {
  // f(w) = (w - 3)^2, start at 0.
  Tensor w = Tensor::Full(1, 1, 0.0f, true);
  Sgd sgd({w}, 0.1f);
  for (int step = 0; step < 200; ++step) {
    sgd.ZeroGrad();
    Tensor diff = Add(w, Tensor::Full(1, 1, -3.0f));
    Tensor loss = RowwiseDot(diff, diff);
    loss.Backward();
    sgd.Step();
  }
  EXPECT_NEAR(w.item(), 3.0f, 1e-3f);
}

TEST(AdamTest, MinimizesQuadraticBowl) {
  Tensor w = Tensor::FromVector({5.0f, -5.0f}, 2, 1, true);
  Adam adam({w}, 0.1f);
  for (int step = 0; step < 500; ++step) {
    adam.ZeroGrad();
    Tensor loss = ReduceSum(RowwiseDot(w, w));
    loss.Backward();
    adam.Step();
  }
  EXPECT_NEAR(w.At(0, 0), 0.0f, 1e-2f);
  EXPECT_NEAR(w.At(1, 0), 0.0f, 1e-2f);
}

TEST(AdamTest, WeightDecayShrinksWeights) {
  Tensor w = Tensor::Full(1, 1, 1.0f, true);
  Adam adam({w}, 0.01f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/1.0f);
  // Zero data gradient; only the decay term acts.
  for (int step = 0; step < 100; ++step) {
    adam.ZeroGrad();
    Tensor loss = MatMul(w, Tensor::Scalar(0.0f));
    loss.Backward();
    adam.Step();
  }
  EXPECT_LT(std::fabs(w.item()), 1.0f);
}

TEST(OptimizerTest, ClipGradNormScales) {
  Tensor w = Tensor::FromVector({3.0f, 4.0f}, 2, 1, true);
  Sgd sgd({w}, 1.0f);
  Tensor loss = ReduceSum(RowwiseDot(w, w));  // grad = 2w = (6, 8), norm 10
  loss.Backward();
  const float norm = sgd.ClipGradNorm(5.0f);
  EXPECT_NEAR(norm, 10.0f, 1e-4f);
  EXPECT_NEAR(w.grad()[0], 3.0f, 1e-4f);
  EXPECT_NEAR(w.grad()[1], 4.0f, 1e-4f);
}

TEST(OptimizerTest, ClipBelowThresholdNoChange) {
  Tensor w = Tensor::FromVector({0.3f, 0.4f}, 2, 1, true);
  Sgd sgd({w}, 1.0f);
  Tensor loss = ReduceSum(RowwiseDot(w, w));
  loss.Backward();
  const float before0 = w.grad()[0];
  sgd.ClipGradNorm(100.0f);
  EXPECT_EQ(w.grad()[0], before0);
}

// ---------- losses ----------

TEST(LossTest, BceWithLogitsValue) {
  // logit 0 -> p=0.5 -> loss = ln 2 for either label.
  Tensor logits = Tensor::FromVector({0.0f, 0.0f}, 2, 1);
  Tensor loss = BceWithLogitsLoss(logits, {1.0f, 0.0f});
  EXPECT_NEAR(loss.item(), std::log(2.0f), 1e-5f);
}

TEST(LossTest, BceWithLogitsConfidentCorrectIsSmall) {
  Tensor logits = Tensor::FromVector({10.0f, -10.0f}, 2, 1);
  Tensor loss = BceWithLogitsLoss(logits, {1.0f, 0.0f});
  EXPECT_LT(loss.item(), 1e-3f);
}

TEST(LossTest, BceWithLogitsConfidentWrongIsLarge) {
  Tensor logits = Tensor::FromVector({10.0f}, 1, 1);
  Tensor loss = BceWithLogitsLoss(logits, {0.0f});
  EXPECT_GT(loss.item(), 5.0f);
}

TEST(LossTest, BceWithLogitsStableAtExtremes) {
  Tensor logits = Tensor::FromVector({500.0f, -500.0f}, 2, 1);
  Tensor loss = BceWithLogitsLoss(logits, {0.0f, 1.0f});
  EXPECT_TRUE(std::isfinite(loss.item()));
}

TEST(LossTest, BceMatchesBceWithLogits) {
  // The logits form against the paper's eq. (12) on probabilities,
  // -mean(y log p + (1 - y) log(1 - p)) with p = sigmoid(z).
  const std::vector<float> z{0.7f, -1.2f, 2.0f};
  const std::vector<float> targets{1.0f, 0.0f, 1.0f};
  double expected = 0.0;
  for (size_t i = 0; i < z.size(); ++i) {
    const double p = 1.0 / (1.0 + std::exp(-static_cast<double>(z[i])));
    expected -= targets[i] * std::log(p) + (1.0 - targets[i]) * std::log1p(-p);
  }
  expected /= static_cast<double>(z.size());
  Tensor fused = BceWithLogitsLoss(Tensor::FromVector(z, 3, 1), targets);
  EXPECT_NEAR(fused.item(), expected, 1e-5);
}

}  // namespace
}  // namespace hygnn::tensor
