#include <cmath>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

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
  EXPECT_EQ(m->pattern().indices[0], 1);
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

/// The CSR arrays FromCoo built when it summed each cell in a std::map:
/// cells in (row, column) order, each summed from a value-initialized
/// +0 in input order.
struct CsrArrays {
  std::vector<int64_t> row_ptr;
  std::vector<int32_t> col_idx;
  std::vector<float> values;
};

CsrArrays MapReference(int64_t rows, const std::vector<int32_t>& row_indices,
                       const std::vector<int32_t>& col_indices,
                       const std::vector<float>& values) {
  std::map<std::pair<int32_t, int32_t>, float> cells;
  for (size_t i = 0; i < row_indices.size(); ++i) {
    cells[{row_indices[i], col_indices[i]}] += values[i];
  }
  CsrArrays out;
  out.row_ptr.assign(static_cast<size_t>(rows) + 1, 0);
  for (const auto& [key, value] : cells) {
    ++out.row_ptr[static_cast<size_t>(key.first) + 1];
    out.col_idx.push_back(key.second);
    out.values.push_back(value);
  }
  for (size_t r = 1; r < out.row_ptr.size(); ++r) {
    out.row_ptr[r] += out.row_ptr[r - 1];
  }
  return out;
}

bool SameArrays(const CsrMatrix& m, const CsrArrays& expected) {
  return m.pattern().offsets == expected.row_ptr &&
         m.pattern().indices == expected.col_idx &&
         m.values().size() == expected.values.size() &&
         std::memcmp(m.values().data(), expected.values.data(),
                     expected.values.size() * sizeof(float)) == 0;
}

TEST(CsrMatrixTest, FromCooAndTransposeMatchMapReference) {
  // Random triplets over few columns, so cells repeat, with rows that
  // get no entry, -0 values (alone in a cell they become +0), and
  // magnitudes far apart, so a cell summed in another order rounds
  // differently.
  for (const uint64_t seed : {1, 2, 3}) {
    core::Rng rng(seed);
    const int64_t rows = 40, cols = 7;
    std::vector<int32_t> row_indices, col_indices;
    std::vector<float> values;
    for (int i = 0; i < 300; ++i) {
      int32_t row = static_cast<int32_t>(rng.UniformInt(rows));
      if (row % 5 == 3) row = 0;  // rows 3, 8, ... stay empty
      row_indices.push_back(row);
      col_indices.push_back(static_cast<int32_t>(rng.UniformInt(cols)));
      const float u = rng.UniformFloat() * 2.0f - 1.0f;
      values.push_back(i % 7 == 0 ? -0.0f : (i % 3 == 0 ? u * 1e8f : u));
    }
    // One cell holds only -0.
    row_indices.push_back(rows - 1);
    col_indices.push_back(cols - 1);
    values.push_back(-0.0f);
    const auto m =
        CsrMatrix::FromCoo(rows, cols, row_indices, col_indices, values);
    EXPECT_TRUE(SameArrays(
        *m, MapReference(rows, row_indices, col_indices, values)))
        << "FromCoo, seed " << seed;
    // The transpose is FromCoo of the matrix's own triplets, swapped.
    std::vector<int32_t> t_rows, t_cols;
    for (int64_t r = 0; r < m->rows(); ++r) {
      for (const int32_t col : m->pattern().Range(r)) {
        t_rows.push_back(col);
        t_cols.push_back(static_cast<int32_t>(r));
      }
    }
    EXPECT_TRUE(SameArrays(*m->Transpose(),
                           MapReference(cols, t_rows, t_cols, m->values())))
        << "Transpose, seed " << seed;
  }
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
