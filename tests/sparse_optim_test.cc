#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "tensor/init.h"
#include "tensor/kernels/kernels.h"
#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/sparse.h"
#include "tensor/tape.h"
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

TEST(SpMMTest, BackwardMatchesZeroedProductPlusAdd) {
  // dx must be grad + Aᵀ·g with the product summed into a zeroed buffer,
  // element for element, however the rows are chunked and whatever x's
  // gradient already holds. A second reader of x (MulColumnBroadcast)
  // starts x's gradient first; then planted -0 and subnormal starts
  // land on rows of Aᵀ with entries and on rows with none (every ninth
  // column of A has no entry), where +0 + -0 must give +0. The shape
  // splits both directions into several chunks.
  constexpr int64_t kRowsA = 2000, kColsA = 500, kD = 8;
  core::Rng rng(41);
  std::vector<int32_t> r, c;
  std::vector<float> v;
  for (int64_t i = 0; i < kRowsA; ++i) {
    for (int e = 0; e < 6; ++e) {
      int32_t col = static_cast<int32_t>(rng.UniformInt(kColsA));
      if (col % 9 == 4) col = (col + 1) % kColsA;
      r.push_back(static_cast<int32_t>(i));
      c.push_back(col);
      v.push_back(rng.UniformFloat() * 2.0f - 1.0f);
    }
  }
  const auto a = CsrMatrix::FromCoo(kRowsA, kColsA, r, c, v);
  std::vector<float> xs(kColsA * kD), ws(kColsA), g(kRowsA * kD),
      g2(kColsA * kD);
  for (auto* buffer : {&xs, &ws, &g, &g2}) {
    for (float& value : *buffer) value = rng.UniformFloat() * 2.0f - 1.0f;
  }
  const float tiny = std::numeric_limits<float>::denorm_min();

  // The unfused backward: Aᵀ·g into a zeroed buffer (each row's chain
  // from +0 over its entries in order), then grad + product.
  const auto expected_after = [&](const std::vector<float>& start) {
    const auto at = a->Transpose();
    std::vector<float> product(start.size(), 0.0f);
    for (int64_t row = 0; row < at->rows(); ++row) {
      for (int64_t k = at->pattern().offsets[row];
           k < at->pattern().offsets[row + 1]; ++k) {
        const float value = at->values()[k];
        const float* grow = g.data() + at->pattern().indices[k] * kD;
        for (int64_t j = 0; j < kD; ++j) {
          product[row * kD + j] =
              kernels::MulAdd(value, grow[j], product[row * kD + j]);
        }
      }
    }
    std::vector<float> out(start.size());
    for (size_t i = 0; i < out.size(); ++i) out[i] = start[i] + product[i];
    return out;
  };

  for (const int32_t threads : {1, 2, 4}) {
    core::SetNumThreads(threads);
    Tensor x = Tensor::FromVector(xs, kColsA, kD, true);
    Tensor w = Tensor::FromVector(ws, kColsA, 1, false);
    Tensor y = SpMM(a, x);
    Tensor other = MulColumnBroadcast(x, w);
    y.data();
    other.data();
    other.impl()->EnsureGrad();
    std::copy(g2.begin(), g2.end(), other.impl()->grad.begin());
    ExecuteNodeBackward(other.impl().get(), /*time_ops=*/false);
    std::vector<float>& dx = x.impl()->grad;
    for (const int64_t row : {int64_t{0}, int64_t{1}, int64_t{4},
                                int64_t{13}, kColsA - 1}) {
      dx[row * kD] = -0.0f;
      dx[row * kD + 1] = tiny;
      dx[row * kD + 2] = -tiny * 3.0f;
    }
    const std::vector<float> start = dx;
    y.impl()->EnsureGrad();
    std::copy(g.begin(), g.end(), y.impl()->grad.begin());
    ExecuteNodeBackward(y.impl().get(), /*time_ops=*/false);
    const std::vector<float> expected = expected_after(start);
    EXPECT_EQ(0, std::memcmp(dx.data(), expected.data(),
                             expected.size() * sizeof(float)))
        << threads << " threads";
    EXPECT_TRUE(std::signbit(start[4 * kD]) && !std::signbit(dx[4 * kD]))
        << "an empty row of Aᵀ must still add +0 to a -0 start";
  }
  core::SetNumThreads(1);
}

// ---------- optimizers ----------

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

/// Adam over parameters with the given sizes as one serial loop: the
/// norm's double sum in index order, the clipping scale, then each
/// element's update with the three contractions GCC makes of the plain
/// expressions on an FMA target written as MulAdd.
struct ReferenceAdam {
  float lr = 0.01f, beta1 = 0.9f, beta2 = 0.999f, eps = 1e-8f;
  float weight_decay = 0.0f;
  int64_t t = 0;
  std::vector<std::vector<float>> w, m, v;

  void ClipAndStep(std::vector<std::vector<float>>* grads, float max_norm) {
    double total_sq = 0.0;
    for (const auto& g : *grads) {
      for (const float value : g) {
        total_sq += static_cast<double>(value) * value;
      }
    }
    const float norm = static_cast<float>(std::sqrt(total_sq));
    if (norm > max_norm && norm > 0.0f) {
      const float scale = max_norm / norm;
      for (auto& g : *grads) {
        for (float& value : g) value *= scale;
      }
    }
    ++t;
    const float bias1 = 1.0f - std::pow(beta1, static_cast<float>(t));
    const float bias2 = 1.0f - std::pow(beta2, static_cast<float>(t));
    for (size_t p = 0; p < w.size(); ++p) {
      const std::vector<float>& g = (*grads)[p];
      for (size_t i = 0; i < w[p].size(); ++i) {
        const float grad = kernels::MulAdd(weight_decay, w[p][i], g[i]);
        m[p][i] = kernels::MulAdd(beta1, m[p][i], (1.0f - beta1) * grad);
        v[p][i] =
            kernels::MulAdd(beta2, v[p][i], (1.0f - beta2) * grad * grad);
        const float m_hat = m[p][i] / bias1;
        const float v_hat = v[p][i] / bias2;
        w[p][i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
      }
    }
  }
};

/// The gradients of step `step`: Gaussian, with a -0 and a subnormal.
std::vector<std::vector<float>> StepGradients(
    const std::vector<int64_t>& sizes, int step) {
  core::Rng rng(1000 + static_cast<uint64_t>(step));
  std::vector<std::vector<float>> grads;
  for (const int64_t size : sizes) {
    std::vector<float> g(static_cast<size_t>(size));
    for (float& value : g) value = static_cast<float>(rng.Normal());
    grads.push_back(std::move(g));
  }
  grads[0][7] = -0.0f;
  grads[0][8] = std::numeric_limits<float>::denorm_min();
  return grads;
}

bool SameFloats(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(AdamTest, StepBitIdenticalAcrossThreads) {
  // 20 clipped steps over the k-mer projection's 13,108 x 64 elements
  // plus a ragged tail of 5, and over a one-element parameter: w, m and
  // v must be the serial reference's bits at 1, 2 and 4 threads, with
  // and without weight decay.
  const std::vector<int64_t> sizes{13108 * 64 + 5, 1};
  constexpr int kSteps = 20;
  constexpr float kMaxNorm = 5.0f;  // well below the gradients' norm
  for (const float weight_decay : {0.0f, 0.01f}) {
    ReferenceAdam reference;
    reference.weight_decay = weight_decay;
    core::Rng init(77);
    for (const int64_t size : sizes) {
      std::vector<float> w(static_cast<size_t>(size));
      for (float& value : w) value = static_cast<float>(init.Normal());
      reference.w.push_back(std::move(w));
      reference.m.emplace_back(static_cast<size_t>(size), 0.0f);
      reference.v.emplace_back(static_cast<size_t>(size), 0.0f);
    }
    const std::vector<std::vector<float>> w0 = reference.w;
    for (int step = 0; step < kSteps; ++step) {
      auto grads = StepGradients(sizes, step);
      reference.ClipAndStep(&grads, kMaxNorm);
    }
    for (const int32_t threads : {1, 2, 4}) {
      core::SetNumThreads(threads);
      std::vector<Tensor> params;
      for (size_t p = 0; p < sizes.size(); ++p) {
        params.push_back(Tensor::FromVector(w0[p], sizes[p], 1, true));
      }
      Adam adam(params, 0.01f, 0.9f, 0.999f, 1e-8f, weight_decay);
      for (int step = 0; step < kSteps; ++step) {
        adam.ZeroGrad();
        const auto grads = StepGradients(sizes, step);
        for (size_t p = 0; p < params.size(); ++p) {
          params[p].impl()->EnsureGrad();
          std::copy(grads[p].begin(), grads[p].end(),
                    params[p].impl()->grad.begin());
        }
        adam.ClipGradNorm(kMaxNorm);
        adam.Step();
      }
      const AdamState state = adam.ExportState();
      for (size_t p = 0; p < params.size(); ++p) {
        const std::vector<float> w(params[p].data(),
                                   params[p].data() + params[p].size());
        EXPECT_TRUE(SameFloats(w, reference.w[p]))
            << "w of parameter " << p << " at " << threads
            << " threads, weight decay " << weight_decay;
        EXPECT_TRUE(SameFloats(state.m[p], reference.m[p]))
            << "m of parameter " << p << " at " << threads << " threads";
        EXPECT_TRUE(SameFloats(state.v[p], reference.v[p]))
            << "v of parameter " << p << " at " << threads << " threads";
      }
    }
    core::SetNumThreads(1);
  }
}

TEST(OptimizerTest, ClipGradNormScales) {
  Tensor w = Tensor::FromVector({3.0f, 4.0f}, 2, 1, true);
  Adam adam({w}, 1.0f);
  Tensor loss = ReduceSum(RowwiseDot(w, w));  // grad = 2w = (6, 8), norm 10
  loss.Backward();
  const float norm = adam.ClipGradNorm(5.0f);
  EXPECT_NEAR(norm, 10.0f, 1e-4f);
  EXPECT_NEAR(w.grad()[0], 3.0f, 1e-4f);
  EXPECT_NEAR(w.grad()[1], 4.0f, 1e-4f);
}

TEST(OptimizerTest, ClipBelowThresholdNoChange) {
  Tensor w = Tensor::FromVector({0.3f, 0.4f}, 2, 1, true);
  Adam adam({w}, 1.0f);
  Tensor loss = ReduceSum(RowwiseDot(w, w));
  loss.Backward();
  const float before0 = w.grad()[0];
  adam.ClipGradNorm(100.0f);
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

TEST(LossTest, BceWithLogitsMatchesSerialReference) {
  // The loss and dz must be the bits of one serial loop each, at 1, 2
  // and 4 threads, so that a kernel split into chunks must keep them:
  // logits spanning several chunks, with ±0, ±inf and magnitudes far
  // apart (so a double sum in another order rounds differently), and a
  // dz that starts holding values, -0 among them. ±inf makes the loss
  // NaN, so it gets its own pass.
  constexpr int64_t kN = 3 * kernels::kElementGrain + 123;
  core::Rng rng(5);
  std::vector<float> z(kN), y(kN), dz0(kN);
  for (int64_t i = 0; i < kN; ++i) {
    const float u = rng.UniformFloat() * 2.0f - 1.0f;
    z[i] = i % 5 == 0 ? u * 1e7f : (i % 5 == 1 ? u * 60.0f : u * 3.0f);
    y[i] = i % 3 == 0 ? 1.0f : (i % 3 == 1 ? 0.0f : rng.UniformFloat());
    dz0[i] = i % 4 == 0 ? -0.0f : static_cast<float>(rng.Normal());
  }
  z[10] = 0.0f;
  z[11] = -0.0f;
  std::vector<float> z_inf = z;
  z_inf[12] = std::numeric_limits<float>::infinity();
  z_inf[kN - 1] = -std::numeric_limits<float>::infinity();
  constexpr float kG = 0.75f;

  // The serial form: one loop each, as elementwise.cc writes them.
  const auto reference_loss = [&](const std::vector<float>& logits) {
    double acc = 0.0;
    for (int64_t i = 0; i < kN; ++i) {
      acc += std::max(logits[i], 0.0f) - logits[i] * y[i] +
             std::log1p(std::exp(-std::fabs(logits[i])));
    }
    return static_cast<float>(acc / static_cast<double>(kN));
  };
  const auto reference_dz = [&](const std::vector<float>& logits) {
    std::vector<float> dz = dz0;
    const float scale = kG / static_cast<float>(kN);
    for (int64_t i = 0; i < kN; ++i) {
      dz[i] += scale * (kernels::ScalarSigmoid(logits[i]) - y[i]);
    }
    return dz;
  };
  const float expected_loss = reference_loss(z);
  ASSERT_TRUE(std::isfinite(expected_loss));
  ASSERT_TRUE(std::isnan(reference_loss(z_inf)));

  for (const int32_t threads : {1, 2, 4}) {
    core::SetNumThreads(threads);
    const float loss = kernels::BceWithLogits(z.data(), y.data(), kN);
    EXPECT_EQ(0, std::memcmp(&loss, &expected_loss, sizeof(float)))
        << threads << " threads: " << loss << " vs " << expected_loss;
    EXPECT_TRUE(
        std::isnan(kernels::BceWithLogits(z_inf.data(), y.data(), kN)));
    for (const auto* logits : {&z, &z_inf}) {
      std::vector<float> dz = dz0;
      kernels::BceWithLogitsBackward(logits->data(), y.data(), kN, kG,
                                     dz.data());
      EXPECT_TRUE(SameFloats(dz, reference_dz(*logits)))
          << threads << " threads" << (logits == &z_inf ? ", ±inf" : "");
    }
  }
  core::SetNumThreads(1);
}

TEST(LossTest, BceWithLogitsSumsItsTermsInIndexOrder) {
  // A double sum of float terms almost never shows its order once it is
  // rounded to float, so these terms put the serial sum on a tie: 2^60,
  // then 2^36 (half an ulp of 2^60 as a float), then 100s, each of which
  // the double 2^60 + 2^36 absorbs. Divided by n = 2^13 that is exactly
  // halfway between the floats 2^47 and 2^47 + 2^24, and the tie rounds
  // to even, 2^47. Any order that sums some 100s before adding them to
  // the large terms lands above the tie and rounds up.
  constexpr int64_t kN = 2 * kernels::kElementGrain;
  std::vector<float> z(kN, 100.0f), y(kN, 0.0f);
  z[0] = std::ldexp(1.0f, 60);
  z[1] = std::ldexp(1.0f, 36);
  for (const int32_t threads : {1, 2, 4}) {
    core::SetNumThreads(threads);
    EXPECT_EQ(kernels::BceWithLogits(z.data(), y.data(), kN),
              std::ldexp(1.0f, 47))
        << threads << " threads";
  }
  core::SetNumThreads(1);
}

}  // namespace
}  // namespace hygnn::tensor
