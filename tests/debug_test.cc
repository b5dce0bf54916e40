// Tests for the autograd correctness tooling in tensor/debug.h:
// GraphLint structural findings and NumericsGuard first-op attribution.

#include "tensor/debug.h"

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "nn/mlp.h"
#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace hygnn::tensor {
namespace {

bool HasFinding(const LintReport& report, LintKind kind) {
  for (const auto& issue : report.issues) {
    if (issue.kind == kind) return true;
  }
  return false;
}

TEST(GraphLintTest, CleanGraphAfterBackward) {
  Tensor w = Tensor::Full(2, 2, 0.5f, /*requires_grad=*/true);
  Tensor x = Tensor::Full(2, 2, 1.0f);
  Tensor loss = ReduceSum(Relu(MatMul(x, w)));
  loss.Backward();
  LintReport report = GraphLint(loss);
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_EQ(report.nodes_visited, 5);  // w, x, MatMul, Relu, sum
}

TEST(GraphLintTest, CleanBeforeBackwardToo) {
  Tensor w = Tensor::Full(1, 1, 2.0f, /*requires_grad=*/true);
  Tensor y = Relu(w);
  // No Backward yet: the requires_grad leaf legitimately has no grad.
  EXPECT_TRUE(GraphLint(y).clean());
}

TEST(GraphLintTest, DetectsDoubleBackward) {
  Tensor w = Tensor::Full(1, 1, 2.0f, /*requires_grad=*/true);
  Tensor y = RowwiseDot(w, w);
  y.Backward();
  y.Backward();  // double-accumulates dw
  LintReport report = GraphLint(y);
  EXPECT_TRUE(HasFinding(report, LintKind::kDoubleBackward))
      << report.ToString();
  // And the gradient really is doubled — the lint catches a real bug.
  EXPECT_FLOAT_EQ(w.grad()[0], 8.0f);
}

TEST(GraphLintTest, DetectsParamThatNeverReceivedGradient) {
  Tensor w = Tensor::Full(2, 1, 1.0f, /*requires_grad=*/true);
  // Hand-built node with w as its parent but no tape record, so it has
  // no backward step: the gradient reaching it never flows on to w —
  // the broken-chain-rule bug GraphLint exists to catch.
  auto broken = std::make_shared<TensorImpl>();
  broken->op = "BrokenOp";
  broken->rows = 1;
  broken->cols = 1;
  broken->data.assign(1, 3.0f);
  broken->requires_grad = true;
  broken->parents = {w.impl()};
  Tensor y = ReduceSum(Tensor(broken));
  y.Backward();
  LintReport report = GraphLint(y);
  EXPECT_TRUE(HasFinding(report, LintKind::kParamWithoutGradient))
      << report.ToString();
  EXPECT_FALSE(w.has_grad());
}

TEST(GraphLintTest, DetectsDanglingRecordAfterRelease) {
  Tensor w = Tensor::Full(1, 1, 1.0f, /*requires_grad=*/true);
  Tensor y = Relu(w);
  // Simulate a graph "release" that clears parents but keeps the record.
  y.impl()->parents.clear();
  LintReport report = GraphLint(y);
  EXPECT_TRUE(HasFinding(report, LintKind::kDanglingRecord))
      << report.ToString();
}

TEST(GraphLintTest, DetectsCycle) {
  auto a = std::make_shared<TensorImpl>();
  a->op = "A";
  a->rows = a->cols = 1;
  a->data.assign(1, 0.0f);
  auto b = std::make_shared<TensorImpl>();
  b->op = "B";
  b->rows = b->cols = 1;
  b->data.assign(1, 0.0f);
  a->parents = {b};
  b->parents = {a};  // shared_ptr ring: unreachable by the op API
  LintReport report = GraphLint(Tensor(a));
  EXPECT_TRUE(HasFinding(report, LintKind::kCycle)) << report.ToString();
  // Break the ring so the test does not leak under ASan.
  a->parents.clear();
  b->parents.clear();
}

TEST(GraphLintTest, DetectsShapeMismatch) {
  Tensor x = Tensor::Full(2, 2, 1.0f);
  x.impl()->data.resize(3);  // corrupt: rows*cols == 4
  LintReport report = GraphLint(x);
  EXPECT_TRUE(HasFinding(report, LintKind::kShapeMismatch))
      << report.ToString();
}

TEST(GraphLintTest, ReportPrintsAllIssues) {
  Tensor w = Tensor::Full(1, 1, 2.0f, /*requires_grad=*/true);
  Tensor y = RowwiseDot(w, w);
  y.Backward();
  y.Backward();
  const std::string text = GraphLint(y).ToString();
  EXPECT_NE(text.find("backward"), std::string::npos) << text;
  EXPECT_NE(text.find("'RowwiseDot'"), std::string::npos) << text;
}

class NumericsGuardTest : public ::testing::Test {
 protected:
  void SetUp() override { NumericsGuard::Reset(); }
  void TearDown() override {
    NumericsGuard::Disable();
    NumericsGuard::Reset();
  }
};

TEST_F(NumericsGuardTest, DisabledByDefaultAndSilentOnFiniteMath) {
  EXPECT_FALSE(NumericsGuard::enabled());
  NumericsGuardScope scope;
  Tensor x = Tensor::Full(3, 3, 2.0f, /*requires_grad=*/true);
  BceWithLogitsLoss(MatMul(x, Tensor::Full(3, 1, -0.5f)), {1.0f, 0.0f, 1.0f})
      .Backward();
  EXPECT_FALSE(NumericsGuard::triggered());
  EXPECT_EQ(NumericsGuard::report(), "");
}

/// A [2, 1] column whose product with 1e30 overflows to +inf.
Tensor OverflowingProduct() {
  return MatMul(Tensor::Full(2, 1, 1e30f), Tensor::Scalar(1e30f));
}

TEST_F(NumericsGuardTest, NamesFirstOpNotDownstreamContamination) {
  NumericsGuardScope scope;
  // MatMul overflows to inf first; Add then turns it into NaN. The
  // report must blame MatMul, not Add.
  Tensor big = OverflowingProduct();  // inf — the first violation
  Tensor nan = Add(big, MatMul(big, Tensor::Scalar(-1.0f)));  // inf - inf
  (void)nan;
  ASSERT_TRUE(NumericsGuard::triggered());
  const std::string report = NumericsGuard::report();
  EXPECT_NE(report.find("op 'MatMul' produced non-finite value inf"),
            std::string::npos)
      << report;
  EXPECT_EQ(report.find("'Add' produced"), std::string::npos) << report;
}

TEST_F(NumericsGuardTest, NamesSpMMAndTracesItsInput) {
  NumericsGuardScope scope;
  // A NaN in SpMM's input: SpMM is the first op whose output holds it,
  // and it is a product, not a leaf.
  Tensor x = Tensor::FromVector(
      {1.0f, std::numeric_limits<float>::quiet_NaN(), 2.0f, 3.0f}, 2, 2);
  auto a = CsrMatrix::FromCoo(2, 2, {0, 1}, {0, 1}, {1.0f, 1.0f});
  Tensor y = LeakyRelu(SpMM(a, x));
  (void)y;
  ASSERT_TRUE(NumericsGuard::triggered());
  const std::string report = NumericsGuard::report();
  EXPECT_NE(report.find("op 'SpMM' produced non-finite value nan"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("inputs: 'leaf' Tensor[2x2] (already non-finite)"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("trace: SpMM <- leaf"), std::string::npos) << report;
  EXPECT_EQ(report.find("LeakyRelu"), std::string::npos) << report;
}

TEST_F(NumericsGuardTest, ReportsInsideSmallTrainingStep) {
  NumericsGuardScope scope;
  // A tiny training step with a corrupted weight: the first op that
  // touches the NaN parameter (MatMul) must be named, with the leaf
  // input flagged as the true source.
  Tensor w = Tensor::FromVector(
      {0.5f, std::numeric_limits<float>::quiet_NaN()}, 2, 1,
      /*requires_grad=*/true);
  Tensor x = Tensor::Full(3, 2, 1.0f);
  Tensor logits = MatMul(x, w);
  Tensor loss = BceWithLogitsLoss(logits, {1.0f, 0.0f, 1.0f});
  loss.Backward();
  ASSERT_TRUE(NumericsGuard::triggered());
  const std::string report = NumericsGuard::report();
  EXPECT_NE(report.find("'MatMul'"), std::string::npos) << report;
  EXPECT_NE(report.find("already non-finite"), std::string::npos) << report;
  EXPECT_NE(report.find("leaf"), std::string::npos) << report;
}

TEST_F(NumericsGuardTest, NamesBiasReluForNonFiniteHiddenBias) {
  // An MLP whose hidden bias holds a NaN. BiasRelu's ReLU maps the NaN
  // sum to 0, so its output and the loss stay finite; the guard still
  // names BiasRelu, which read the bias.
  core::Rng rng(3);
  nn::Mlp mlp({4, 3, 1}, &rng);
  Tensor hidden_bias = mlp.Parameters()[1];
  ASSERT_EQ(hidden_bias.rows(), 1);
  ASSERT_EQ(hidden_bias.cols(), 3);
  hidden_bias.data()[0] = std::numeric_limits<float>::quiet_NaN();
  NumericsGuardScope scope;
  Tensor x = Tensor::Full(2, 4, 0.5f);
  Tensor loss = BceWithLogitsLoss(mlp.Forward(x), {1.0f, 0.0f});
  EXPECT_TRUE(std::isfinite(loss.item()));
  ASSERT_TRUE(NumericsGuard::triggered());
  const std::string report = NumericsGuard::report();
  EXPECT_NE(report.find("op 'BiasRelu' read non-finite value nan at index 0"
                        " of input Tensor[1x3]"),
            std::string::npos)
      << report;
  EXPECT_EQ(report.find("AddRowBroadcast"), std::string::npos) << report;
}

TEST_F(NumericsGuardTest, ScopeRestoresPreviousState) {
  EXPECT_FALSE(NumericsGuard::enabled());
  {
    NumericsGuardScope outer;
    EXPECT_TRUE(NumericsGuard::enabled());
    {
      NumericsGuardScope inner;
      EXPECT_TRUE(NumericsGuard::enabled());
    }
    EXPECT_TRUE(NumericsGuard::enabled());
  }
  EXPECT_FALSE(NumericsGuard::enabled());
}

TEST_F(NumericsGuardTest, ResetClearsTriggeredState) {
  NumericsGuardScope scope;
  (void)OverflowingProduct();
  ASSERT_TRUE(NumericsGuard::triggered());
  NumericsGuard::Reset();
  EXPECT_FALSE(NumericsGuard::triggered());
  EXPECT_EQ(NumericsGuard::report(), "");
  // Still enabled: next violation is caught again.
  (void)OverflowingProduct();
  EXPECT_TRUE(NumericsGuard::triggered());
}

TEST(AllFiniteTest, Basics) {
  std::vector<float> ok{1.0f, -2.0f, 0.0f};
  EXPECT_TRUE(AllFinite(ok.data(), 3));
  std::vector<float> bad{1.0f, std::numeric_limits<float>::infinity()};
  EXPECT_FALSE(AllFinite(bad.data(), 2));
  EXPECT_TRUE(AllFinite(bad.data(), 1));  // prefix is fine
  EXPECT_TRUE(AllFinite(nullptr, 0));
}

}  // namespace
}  // namespace hygnn::tensor
