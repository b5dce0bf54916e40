// Kernel-layer tests: (1) threaded execution is bit-identical to the
// threads=1 reference for every parallelized op, forward AND backward;
// (2) the dense products match scalar references that spell out each
// rounding, bit for bit, at 1/2/4 threads; (3) the gather backward,
// the column sums and the fused decoder kernels match scalar references
// or the kernel compositions they replace, bit for bit, at 1/2/4
// threads; (4) gradcheck still passes with a 4-thread pool; (5) two
// seeded training runs produce identical per-epoch losses at any thread
// count.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "data/featurize.h"
#include "data/generator.h"
#include "data/pairs.h"
#include "graph/builders.h"
#include "hygnn/model.h"
#include "hygnn/trainer.h"
#include "tensor/init.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"
#include "tensor/tape.h"
#include "tensor/tensor.h"
#include "tests/gradcheck.h"

namespace hygnn {
namespace {

/// Builds inputs (pushing every differentiable leaf into *inputs) and
/// returns the op output. Must be deterministic across invocations.
using OpBuilder =
    std::function<tensor::Tensor(std::vector<tensor::Tensor>* inputs)>;

/// Output data followed by each input's gradient after Backward().
std::vector<std::vector<float>> RunOpAtThreads(const OpBuilder& build,
                                               int32_t threads) {
  core::SetNumThreads(threads);
  std::vector<tensor::Tensor> inputs;
  tensor::Tensor y = build(&inputs);
  std::vector<std::vector<float>> captured;
  captured.emplace_back(y.data(), y.data() + y.size());
  if (y.requires_grad()) {
    tensor::Tensor loss = y.size() == 1 ? y : tensor::ReduceSum(y);
    loss.Backward();
    for (auto& input : inputs) {
      if (input.has_grad()) {
        captured.emplace_back(input.grad(), input.grad() + input.size());
      }
    }
  }
  core::SetNumThreads(1);
  return captured;
}

/// Expects bitwise equality between the sequential reference and runs
/// at 2 and 4 threads.
void ExpectThreadParity(const std::string& op, const OpBuilder& build) {
  const auto reference = RunOpAtThreads(build, 1);
  for (int32_t threads : {2, 4}) {
    const auto threaded = RunOpAtThreads(build, threads);
    ASSERT_EQ(threaded.size(), reference.size()) << op;
    for (size_t b = 0; b < reference.size(); ++b) {
      ASSERT_EQ(threaded[b].size(), reference[b].size()) << op;
      const bool identical =
          std::memcmp(threaded[b].data(), reference[b].data(),
                      reference[b].size() * sizeof(float)) == 0;
      EXPECT_TRUE(identical)
          << op << " buffer " << b << " differs at " << threads
          << " threads (0 = output, >0 = input gradients)";
    }
  }
}

/// Sizes comfortably above the kernels' row grain so the pool really
/// splits the work.
constexpr int64_t kRows = 37;
constexpr int64_t kCols = 19;

tensor::Tensor MakeLeaf(std::vector<tensor::Tensor>* inputs, uint64_t seed,
                        int64_t rows, int64_t cols) {
  core::Rng rng(seed);
  tensor::Tensor t = tensor::NormalInit(rows, cols, 1.0f, &rng, true);
  inputs->push_back(t);
  return t;
}

TEST(KernelParityTest, MatMul) {
  ExpectThreadParity("MatMul", [](std::vector<tensor::Tensor>* inputs) {
    auto a = MakeLeaf(inputs, 1, kRows, kCols);
    auto b = MakeLeaf(inputs, 2, kCols, 23);
    return tensor::MatMul(a, b);
  });
}

TEST(KernelParityTest, AddSubMulScale) {
  ExpectThreadParity("Add", [](std::vector<tensor::Tensor>* inputs) {
    return tensor::Add(MakeLeaf(inputs, 3, kRows, kCols),
                       MakeLeaf(inputs, 4, kRows, kCols));
  });
  ExpectThreadParity("Sub", [](std::vector<tensor::Tensor>* inputs) {
    return tensor::Sub(MakeLeaf(inputs, 5, kRows, kCols),
                       MakeLeaf(inputs, 6, kRows, kCols));
  });
  ExpectThreadParity("Mul", [](std::vector<tensor::Tensor>* inputs) {
    return tensor::Mul(MakeLeaf(inputs, 7, kRows, kCols),
                       MakeLeaf(inputs, 8, kRows, kCols));
  });
  ExpectThreadParity("Scale", [](std::vector<tensor::Tensor>* inputs) {
    return tensor::Scale(MakeLeaf(inputs, 9, kRows, kCols), -1.75f);
  });
}

TEST(KernelParityTest, Broadcasts) {
  ExpectThreadParity("AddRowBroadcast",
                     [](std::vector<tensor::Tensor>* inputs) {
    auto x = MakeLeaf(inputs, 10, kRows, kCols);
    auto bias = MakeLeaf(inputs, 11, 1, kCols);
    return tensor::AddRowBroadcast(x, bias);
  });
  ExpectThreadParity("MulColumnBroadcast",
                     [](std::vector<tensor::Tensor>* inputs) {
    auto x = MakeLeaf(inputs, 12, kRows, kCols);
    auto w = MakeLeaf(inputs, 13, kRows, 1);
    return tensor::MulColumnBroadcast(x, w);
  });
}

TEST(KernelParityTest, ConcatAndGather) {
  ExpectThreadParity("ConcatCols", [](std::vector<tensor::Tensor>* inputs) {
    return tensor::ConcatCols(MakeLeaf(inputs, 14, kRows, kCols),
                              MakeLeaf(inputs, 15, kRows, 7));
  });
  ExpectThreadParity("IndexSelectRows",
                     [](std::vector<tensor::Tensor>* inputs) {
    auto x = MakeLeaf(inputs, 16, kRows, kCols);
    // Duplicate indices exercise the scatter-add backward path that
    // must stay race-free and ordered.
    std::vector<int32_t> indices;
    for (int32_t i = 0; i < 64; ++i) {
      indices.push_back(i % static_cast<int32_t>(kRows));
      indices.push_back(3);
    }
    return tensor::IndexSelectRows(x, indices);
  });
}

TEST(KernelParityTest, PairConcatAndBiasRelu) {
  ExpectThreadParity("PairConcat", [](std::vector<tensor::Tensor>* inputs) {
    auto x = MakeLeaf(inputs, 28, kRows, kCols);
    std::vector<int32_t> a, b;
    for (int32_t i = 0; i < 64; ++i) {
      a.push_back((i * 5) % static_cast<int32_t>(kRows));
      b.push_back(i % 2 == 0 ? 3 : (i * 11) % static_cast<int32_t>(kRows));
    }
    return tensor::PairConcat(x, a, b);
  });
  ExpectThreadParity("BiasRelu", [](std::vector<tensor::Tensor>* inputs) {
    auto z = MakeLeaf(inputs, 29, kRows, 41);  // three line-wide chunks
    auto bias = MakeLeaf(inputs, 30, 1, 41);
    return tensor::BiasRelu(z, bias);
  });
}

std::vector<int32_t> TestSegmentIds(int64_t n, int64_t num_segments) {
  // Scattered assignment with segment 2 intentionally left empty.
  std::vector<int32_t> seg(n);
  for (int64_t i = 0; i < n; ++i) {
    int32_t s = static_cast<int32_t>((i * 7 + 3) % num_segments);
    if (s == 2) s = 1;
    seg[i] = s;
  }
  return seg;
}

TEST(KernelParityTest, SegmentOps) {
  constexpr int64_t kN = 200, kSegments = 40;
  ExpectThreadParity("SegmentSoftmax",
                     [](std::vector<tensor::Tensor>* inputs) {
    auto scores = MakeLeaf(inputs, 17, kN, 1);
    return tensor::SegmentSoftmax(scores, TestSegmentIds(kN, kSegments),
                                  kSegments);
  });
  ExpectThreadParity("SegmentSum", [](std::vector<tensor::Tensor>* inputs) {
    auto x = MakeLeaf(inputs, 18, kN, kCols);
    return tensor::SegmentSum(x, TestSegmentIds(kN, kSegments), kSegments);
  });
}

TEST(KernelParityTest, RowwiseAndReductions) {
  ExpectThreadParity("RowwiseDot", [](std::vector<tensor::Tensor>* inputs) {
    return tensor::RowwiseDot(MakeLeaf(inputs, 19, kRows, kCols),
                              MakeLeaf(inputs, 20, kRows, kCols));
  });
  ExpectThreadParity("ReduceMean", [](std::vector<tensor::Tensor>* inputs) {
    return tensor::ReduceMean(MakeLeaf(inputs, 21, kRows, kCols));
  });
  ExpectThreadParity("L2NormalizeRows",
                     [](std::vector<tensor::Tensor>* inputs) {
    return tensor::L2NormalizeRows(MakeLeaf(inputs, 22, kRows, kCols));
  });
  ExpectThreadParity("RowSoftmax", [](std::vector<tensor::Tensor>* inputs) {
    return tensor::RowSoftmax(MakeLeaf(inputs, 23, kRows, kCols));
  });
}

TEST(KernelParityTest, Activations) {
  // Large enough to exceed the elementwise grain (4096) so the maps
  // actually split into chunks.
  constexpr int64_t kBig = 9000;
  const std::vector<std::pair<std::string, std::function<tensor::Tensor(
                                               const tensor::Tensor&)>>>
      unary_ops = {
          {"Relu", [](const tensor::Tensor& x) { return tensor::Relu(x); }},
          {"LeakyRelu",
           [](const tensor::Tensor& x) { return tensor::LeakyRelu(x, 0.1f); }},
          {"Sigmoid",
           [](const tensor::Tensor& x) { return tensor::Sigmoid(x); }},
          {"Tanh", [](const tensor::Tensor& x) { return tensor::Tanh(x); }},
          {"Exp", [](const tensor::Tensor& x) { return tensor::Exp(x); }},
          {"Log", [](const tensor::Tensor& x) { return tensor::Log(x); }},
      };
  for (const auto& [name, op] : unary_ops) {
    ExpectThreadParity(name, [&op](std::vector<tensor::Tensor>* inputs) {
      return op(MakeLeaf(inputs, 24, kBig, 1));
    });
  }
}

TEST(KernelParityTest, DropoutWithSeededRng) {
  ExpectThreadParity("Dropout", [](std::vector<tensor::Tensor>* inputs) {
    auto x = MakeLeaf(inputs, 25, kRows, kCols);
    core::Rng rng(26);  // the mask stream is drawn sequentially
    return tensor::Dropout(x, 0.3f, /*training=*/true, &rng);
  });
}

TEST(KernelParityTest, TransposeNoGrad) {
  ExpectThreadParity("TransposeNoGrad",
                     [](std::vector<tensor::Tensor>* inputs) {
    core::Rng rng(27);
    tensor::Tensor x = tensor::NormalInit(kRows, kCols, 1.0f, &rng, false);
    inputs->clear();
    return tensor::TransposeNoGrad(x);
  });
}

// ---------------------------------------------------------------------------
// Dense products against scalar references that spell out every rounding
// ---------------------------------------------------------------------------

/// round(a·b) to float. The volatile store is the rounding: it keeps the
/// compiler from fusing the product into a following add when it
/// contracts this file's arithmetic.
float RoundedProduct(float a, float b) {
  volatile float product = a * b;
  return product;
}

/// The step MatMul and MatMulTN take per nonzero a: one fused rounding
/// on FMA targets, a rounded product and a rounded sum elsewhere.
float ReferenceMulAdd(float a, float b, float c) {
#if defined(__FMA__)
  return std::fma(a, b, c);
#else
  return c + RoundedProduct(a, b);
#endif
}

/// c[n,m] += a[n,k] · b[k,m]: MulAdd per nonzero a, t ascending.
void ReferenceMatMul(const float* a, const float* b, float* c, int64_t n,
                     int64_t k, int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      float acc = c[i * m + j];
      for (int64_t t = 0; t < k; ++t) {
        const float av = a[i * k + t];
        if (av != 0.0f) acc = ReferenceMulAdd(av, b[t * m + j], acc);
      }
      c[i * m + j] = acc;
    }
  }
}

/// c[n,m] += a[n,k] · b[m,k]ᵀ: rounded products summed from +0 with t
/// ascending, then one add into c.
void ReferenceMatMulNT(const float* a, const float* b, float* c, int64_t n,
                       int64_t k, int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      float sum = 0.0f;
      for (int64_t t = 0; t < k; ++t) {
        sum = sum + RoundedProduct(a[i * k + t], b[j * k + t]);
      }
      c[i * m + j] = c[i * m + j] + sum;
    }
  }
}

/// c[k,m] += a[n,k]ᵀ · b[n,m]: MulAdd per nonzero a, i ascending.
void ReferenceMatMulTN(const float* a, const float* b, float* c, int64_t n,
                       int64_t k, int64_t m) {
  for (int64_t r = 0; r < k; ++r) {
    for (int64_t j = 0; j < m; ++j) {
      float acc = c[r * m + j];
      for (int64_t i = 0; i < n; ++i) {
        const float av = a[i * k + r];
        if (av != 0.0f) acc = ReferenceMulAdd(av, b[i * m + j], acc);
      }
      c[r * m + j] = acc;
    }
  }
}

using DenseKernel = void (*)(const float*, const float*, float*, int64_t,
                             int64_t, int64_t);

/// Normal draws where a `zero_frac` share is ±0, half of them -0.
std::vector<float> DenseInput(core::Rng* rng, int64_t size, double zero_frac) {
  std::vector<float> v(static_cast<size_t>(size));
  for (float& x : v) {
    if (rng->Bernoulli(zero_frac)) {
      x = rng->Bernoulli(0.5) ? -0.0f : 0.0f;
    } else {
      x = static_cast<float>(rng->Normal());
    }
  }
  return v;
}

/// Runs `kernel` at 1, 2 and 4 threads over every shape in the grid and
/// memcmps c against `reference`. Zero-heavy a (with -0) and a c that
/// starts nonzero (with some -0) pin the skip-zero and accumulate
/// contracts; row counts around the 4-row tile and 1,024 rows make the
/// single-chunk threads = 1 call form its tiles itself.
/// `transposed_a` marks MatMulTN, whose b is [n,m] and c is [k,m].
void ExpectMatchesReference(const char* name, bool transposed_a,
                            DenseKernel kernel, DenseKernel reference) {
  const int64_t kRowsGrid[] = {1, 3, 5, 90, 1024};
  const int64_t kDimGrid[] = {1, 3, 8, 13, 63, 64, 65, 128};
  core::Rng rng(2024);
  int failures = 0;
  for (int64_t n : kRowsGrid) {
    for (int64_t k : kDimGrid) {
      for (int64_t m : kDimGrid) {
        const auto a = DenseInput(&rng, n * k, 0.4);
        const auto b = DenseInput(&rng, (transposed_a ? n : k) * m, 0.1);
        const auto c0 = DenseInput(&rng, (transposed_a ? k : n) * m, 0.2);
        std::vector<float> expected = c0;
        reference(a.data(), b.data(), expected.data(), n, k, m);
        for (int32_t threads : {1, 2, 4}) {
          core::SetNumThreads(threads);
          std::vector<float> c = c0;
          kernel(a.data(), b.data(), c.data(), n, k, m);
          core::SetNumThreads(1);
          const bool same = std::memcmp(c.data(), expected.data(),
                                        c.size() * sizeof(float)) == 0;
          EXPECT_TRUE(same) << name << " n=" << n << " k=" << k
                            << " m=" << m << " threads=" << threads;
          if (!same && ++failures >= 5) return;
        }
      }
    }
  }
}

TEST(DenseProductTest, MatMulMatchesRoundingReference) {
  ExpectMatchesReference("MatMul", false, tensor::kernels::MatMul,
                         ReferenceMatMul);
}

TEST(DenseProductTest, MatMulNTMatchesRoundingReference) {
  ExpectMatchesReference("MatMulNT", false, tensor::kernels::MatMulNT,
                         ReferenceMatMulNT);
}

TEST(DenseProductTest, MatMulTNMatchesRoundingReference) {
  ExpectMatchesReference("MatMulTN", true, tensor::kernels::MatMulTN,
                         ReferenceMatMulTN);
}

/// Every element of c is the two-step reduction -1·p + q·q from c = 0
/// with p = 1 + 2⁻¹¹ and q = 1 + 2⁻¹². The first product is exact; the
/// second, 1 + 2⁻¹¹ + 2⁻²⁴, is not a float. Fused, it leaves 2⁻²⁴;
/// rounded first, it cancels to 0. So c shows which rounding ran, in
/// every tile shape: one column (the matrix-vector path), a full and a
/// partial 64-column block, and a shorter last row tile.
TEST(DenseProductTest, ContractionCanary) {
  const float p = 1.0f + 0x1p-11f;
  const float q = 1.0f + 0x1p-12f;
  ASSERT_EQ(0x1p-24f, std::fma(q, q, -p));
  ASSERT_EQ(0.0f, -p + RoundedProduct(q, q));
#if defined(__FMA__)
  const float fused_kernels = 0x1p-24f;
#else
  const float fused_kernels = 0.0f;
#endif
  for (int64_t rows : {1, 5, 90}) {
    for (int64_t m : {1, 13, 64, 65}) {
      for (int32_t threads : {1, 2}) {
        core::SetNumThreads(threads);
        const std::string shape = "rows=" + std::to_string(rows) +
                                  " m=" + std::to_string(m) +
                                  " threads=" + std::to_string(threads);
        // MatMul and MatMulNT: a rows are (-1, q).
        std::vector<float> a_rows;
        for (int64_t i = 0; i < rows; ++i) a_rows.insert(a_rows.end(), {-1, q});
        std::vector<float> b_nn(static_cast<size_t>(m), p);
        b_nn.resize(static_cast<size_t>(2 * m), q);
        std::vector<float> b_nt;
        for (int64_t j = 0; j < m; ++j) b_nt.insert(b_nt.end(), {p, q});
        std::vector<float> c(static_cast<size_t>(rows * m), 0.0f);
        tensor::kernels::MatMul(a_rows.data(), b_nn.data(), c.data(), rows, 2,
                                m);
        for (float v : c) ASSERT_EQ(fused_kernels, v) << "MatMul " << shape;
        std::fill(c.begin(), c.end(), 0.0f);
        tensor::kernels::MatMulNT(a_rows.data(), b_nt.data(), c.data(), rows,
                                  2, m);
        for (float v : c) ASSERT_EQ(0.0f, v) << "MatMulNT " << shape;
        // MatMulTN: a is [2, rows] with rows (-1, ...) and (q, ...).
        std::vector<float> a_cols(static_cast<size_t>(rows), -1.0f);
        a_cols.resize(static_cast<size_t>(2 * rows), q);
        std::fill(c.begin(), c.end(), 0.0f);
        tensor::kernels::MatMulTN(a_cols.data(), b_nn.data(), c.data(), 2,
                                  rows, m);
        for (float v : c) ASSERT_EQ(fused_kernels, v) << "MatMulTN " << shape;
        core::SetNumThreads(1);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Gather backward, column sums and the fused decoder kernels against
// references
// ---------------------------------------------------------------------------

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Mixed magnitudes, so a column or row sum rounds differently in any
/// other order, plus NaN, ±inf and ±0 at fixed positions.
std::vector<float> OrderSensitive(int64_t n, uint64_t seed) {
  core::Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (size_t i = 0; i < v.size(); ++i) {
    const float u = rng.UniformFloat() * 2.0f - 1.0f;
    v[i] = i % 3 == 0 ? u * 1e8f : u;
  }
  if (n > 40) {
    v[4] = std::numeric_limits<float>::quiet_NaN();
    v[11] = std::numeric_limits<float>::infinity();
    v[23] = -std::numeric_limits<float>::infinity();
    v[31] = 0.0f;
    v[37] = -0.0f;
  }
  return v;
}

/// The scatter the gather's backward stood for before it became a
/// segment sum: dst[idx[i]] += src[i], i ascending.
void ScalarScatterAdd(const float* src, int64_t src_stride,
                      const std::vector<int32_t>& idx, int64_t d,
                      float* dst) {
  for (size_t i = 0; i < idx.size(); ++i) {
    for (int64_t j = 0; j < d; ++j) {
      dst[idx[i] * d + j] += src[static_cast<int64_t>(i) * src_stride + j];
    }
  }
}

/// 30 gather indices into 9 rows: row 7 is never gathered, row 3 and 0
/// repeat.
const std::vector<int32_t> kGatherA = {3, 0, 8, 3, 1, 0, 5, 3, 2, 6,
                                       0, 4, 3, 8, 1, 0, 3, 6, 5, 2,
                                       3, 0, 1, 4, 3, 8, 0, 6, 3, 2};
const std::vector<int32_t> kGatherB = {0, 3, 3, 6, 0, 2, 3, 8, 0, 1,
                                       3, 5, 0, 4, 3, 6, 0, 2, 3, 8,
                                       1, 3, 0, 5, 6, 3, 2, 0, 4, 3};
constexpr int64_t kTableRows = 9;

TEST(GatherBackwardTest, IndexSelectRowsMatchesScalarScatter) {
  constexpr int64_t kD = 21;
  const auto n = static_cast<int64_t>(kGatherA.size());
  const std::vector<float> g = OrderSensitive(n * kD, 40);
  std::vector<float> reference(static_cast<size_t>(kTableRows * kD), 0.0f);
  ScalarScatterAdd(g.data(), kD, kGatherA, kD, reference.data());
  for (const int32_t threads : {1, 2, 4}) {
    core::SetNumThreads(threads);
    tensor::Tensor h = tensor::Tensor::Zeros(kTableRows, kD, true);
    tensor::Tensor y = tensor::IndexSelectRows(h, kGatherA);
    // The incoming gradient is g itself: y's gradient buffer is seeded
    // directly, then only the gather's backward runs.
    (void)y.data();
    y.impl()->EnsureGrad();
    std::copy(g.begin(), g.end(), y.grad());
    tensor::ExecuteNodeBackward(y.impl().get(), /*time_ops=*/false);
    core::SetNumThreads(1);
    EXPECT_TRUE(SameBits(std::vector<float>(h.grad(), h.grad() + h.size()),
                         reference))
        << threads << " threads";
  }
}

TEST(GatherBackwardTest, PairConcatMatchesScalarScatterBThenA) {
  constexpr int64_t kD = 19;
  const auto n = static_cast<int64_t>(kGatherA.size());
  const std::vector<float> g = OrderSensitive(n * 2 * kD, 41);
  // The b half first, then the a half: the order the tape ran the
  // backward of the two gathers that PairConcat replaces.
  std::vector<float> reference(static_cast<size_t>(kTableRows * kD), 0.0f);
  ScalarScatterAdd(g.data() + kD, 2 * kD, kGatherB, kD, reference.data());
  ScalarScatterAdd(g.data(), 2 * kD, kGatherA, kD, reference.data());
  for (const int32_t threads : {1, 2, 4}) {
    core::SetNumThreads(threads);
    tensor::Tensor h = tensor::Tensor::Zeros(kTableRows, kD, true);
    tensor::Tensor y = tensor::PairConcat(h, kGatherA, kGatherB);
    (void)y.data();
    y.impl()->EnsureGrad();
    std::copy(g.begin(), g.end(), y.grad());
    tensor::ExecuteNodeBackward(y.impl().get(), /*time_ops=*/false);
    core::SetNumThreads(1);
    EXPECT_TRUE(SameBits(std::vector<float>(h.grad(), h.grad() + h.size()),
                         reference))
        << threads << " threads";
  }
}

TEST(ColumnSumTest, MatchesSequentialColumnOrderAtEveryWidth) {
  constexpr int64_t kN = 53;
  for (const int64_t d : {1, 15, 16, 17, 64, 65}) {
    const std::vector<float> g = OrderSensitive(kN * d, 42 + d);
    std::vector<float> reference(static_cast<size_t>(d), 0.5f);
    for (int64_t i = 0; i < kN; ++i) {
      for (int64_t j = 0; j < d; ++j) reference[j] += g[i * d + j];
    }
    for (const int32_t threads : {1, 2, 4}) {
      core::SetNumThreads(threads);
      std::vector<float> out(static_cast<size_t>(d), 0.5f);
      tensor::kernels::ColumnSumAccumulate(g.data(), kN, d, out.data());
      core::SetNumThreads(1);
      EXPECT_TRUE(SameBits(out, reference))
          << "d = " << d << ", " << threads << " threads";
    }
  }
}

TEST(FusedKernelTest, GatherRowPairsMatchesGatherAndCopy) {
  constexpr int64_t kD = 23;
  const std::vector<float> table = OrderSensitive(kTableRows * kD, 43);
  const auto n = static_cast<int64_t>(kGatherA.size());
  std::vector<float> q_a(static_cast<size_t>(n * kD));
  std::vector<float> q_b(q_a.size());
  tensor::kernels::GatherRows(table.data(), kD, kGatherA.data(), n,
                              q_a.data());
  tensor::kernels::GatherRows(table.data(), kD, kGatherB.data(), n,
                              q_b.data());
  std::vector<float> reference(static_cast<size_t>(n * 2 * kD));
  tensor::kernels::CopyColumnBlock(q_a.data(), n, kD, 0, reference.data(),
                                   2 * kD, 0, kD);
  tensor::kernels::CopyColumnBlock(q_b.data(), n, kD, 0, reference.data(),
                                   2 * kD, kD, kD);
  for (const int32_t threads : {1, 2, 4}) {
    core::SetNumThreads(threads);
    std::vector<float> out(reference.size(), 0.0f);
    tensor::kernels::GatherRowPairs(table.data(), kD, kGatherA.data(),
                                    kGatherB.data(), n, out.data());
    core::SetNumThreads(1);
    EXPECT_TRUE(SameBits(out, reference)) << threads << " threads";
  }
}

/// BiasRelu's two kernels against the kernels of AddRowBroadcast and
/// Relu, forward and backward, on inputs that hold NaN, ±inf and ±0 in
/// x, the bias and the incoming gradient (-0 included, which no tape
/// backward can hand over), and an x + b that is exactly -0. The
/// gradients accumulate into buffers that already hold values and -0,
/// where the masked gradient's `0 +` decides the sign of a zero sum.
TEST(FusedKernelTest, BiasReluMatchesAddRowBroadcastThenRelu) {
  constexpr int64_t kN = 45, kD = 37;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> x = OrderSensitive(kN * kD, 44);
  std::vector<float> bias = OrderSensitive(kD, 45);
  const std::vector<float> g = OrderSensitive(kN * kD, 46);
  x[0] = -0.0f;
  bias[0] = -0.0f;  // x + b = -0 at (0, 0)
  x[1] = 0.0f;
  x[kD + 2] = -0.0f;
  bias[5] = nan;
  bias[9] = inf;
  bias[10] = -inf;
  bias[12] = 0.0f;
  // Reference: AddRowBroadcast, Relu, then their backward kernels as
  // the tape ran them, into zeroed gradients.
  const auto total = static_cast<size_t>(kN * kD);
  std::vector<float> sum(total), y_ref(total);
  tensor::kernels::AddRowBroadcast(x.data(), bias.data(), sum.data(), kN, kD);
  tensor::kernels::RowwiseMap(sum.data(), y_ref.data(), kN * kD, [](float v) {
    return tensor::kernels::ScalarRelu(v);
  });
  std::vector<float> sum_grad(total, 0.0f);
  tensor::kernels::RowwiseMapGradAccumulate(
      sum.data(), y_ref.data(), g.data(), sum_grad.data(), kN * kD,
      [](float v, float) { return tensor::kernels::ScalarReluGrad(v); });
  std::vector<float> dx_start = OrderSensitive(kN * kD, 47);
  std::vector<float> dbias_start = OrderSensitive(kD, 48);
  for (size_t i = 0; i < dx_start.size(); i += 2) dx_start[i] = -0.0f;
  for (size_t j = 0; j < dbias_start.size(); j += 3) dbias_start[j] = -0.0f;
  std::vector<float> dx_ref = dx_start;
  std::vector<float> dbias_ref = dbias_start;
  tensor::kernels::Axpy(1.0f, sum_grad.data(), dx_ref.data(), kN * kD);
  tensor::kernels::ColumnSumAccumulate(sum_grad.data(), kN, kD,
                                       dbias_ref.data());
  for (const int32_t threads : {1, 2, 4}) {
    core::SetNumThreads(threads);
    std::vector<float> y(total, 0.0f), dx = dx_start, dbias = dbias_start;
    tensor::kernels::BiasRelu(x.data(), bias.data(), y.data(), kN, kD);
    tensor::kernels::BiasReluBackward(y.data(), g.data(), kN, kD, dx.data(),
                                      dbias.data());
    std::vector<float> dx_only = dx_start;
    tensor::kernels::BiasReluBackward(y.data(), g.data(), kN, kD,
                                      dx_only.data(), nullptr);
    core::SetNumThreads(1);
    EXPECT_TRUE(SameBits(y, y_ref)) << threads << " threads";
    EXPECT_TRUE(SameBits(dx, dx_ref)) << threads << " threads";
    EXPECT_TRUE(SameBits(dbias, dbias_ref)) << threads << " threads";
    EXPECT_TRUE(SameBits(dx_only, dx_ref)) << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Gradcheck re-run with a live 4-thread pool
// ---------------------------------------------------------------------------

class ThreadedGradcheckTest : public ::testing::Test {
 protected:
  void SetUp() override { core::SetNumThreads(4); }
  void TearDown() override { core::SetNumThreads(1); }
};

tensor::Tensor GradcheckInput(int64_t rows, int64_t cols) {
  core::Rng rng(99);
  return tensor::NormalInit(rows, cols, 1.0f, &rng, true);
}

TEST_F(ThreadedGradcheckTest, MatMul) {
  core::Rng rng(100);
  tensor::Tensor b = tensor::NormalInit(5, 6, 1.0f, &rng, false);
  testing::ExpectGradMatchesNumeric(
      [] { return GradcheckInput(9, 5); },
      [&b](const tensor::Tensor& x) {
        return tensor::ReduceMean(tensor::MatMul(x, b));
      });
}

TEST_F(ThreadedGradcheckTest, SegmentSoftmax) {
  const std::vector<int32_t> seg = {0, 1, 0, 2, 1, 0, 2, 2, 1, 0, 3, 3};
  testing::ExpectGradMatchesNumeric(
      [] { return GradcheckInput(12, 1); },
      [&seg](const tensor::Tensor& x) {
        tensor::Tensor alpha = tensor::SegmentSoftmax(x, seg, 4);
        return tensor::ReduceSum(tensor::Mul(alpha, alpha));
      });
}

TEST_F(ThreadedGradcheckTest, SegmentSum) {
  const std::vector<int32_t> seg = {0, 1, 0, 2, 1, 0, 2, 2, 1};
  testing::ExpectGradMatchesNumeric(
      [] { return GradcheckInput(9, 4); },
      [&seg](const tensor::Tensor& x) {
        return tensor::ReduceMean(tensor::SegmentSum(x, seg, 3));
      });
}

TEST_F(ThreadedGradcheckTest, L2NormalizeAndSoftmax) {
  testing::ExpectGradMatchesNumeric(
      [] { return GradcheckInput(7, 5); },
      [](const tensor::Tensor& x) {
        return tensor::ReduceMean(tensor::L2NormalizeRows(x));
      });
  testing::ExpectGradMatchesNumeric(
      [] { return GradcheckInput(6, 5); },
      [](const tensor::Tensor& x) {
        tensor::Tensor y = tensor::RowSoftmax(x);
        return tensor::ReduceSum(tensor::Mul(y, y));
      });
}

// ---------------------------------------------------------------------------
// End-to-end training determinism
// ---------------------------------------------------------------------------

std::vector<float> TrainOnce(int32_t threads) {
  data::DatasetConfig data_config;
  data_config.num_drugs = 60;
  data_config.seed = 7;
  auto dataset = data::GenerateDataset(data_config).value();
  data::FeaturizeConfig feat_config;
  feat_config.espf_frequency_threshold = 3;
  auto featurizer =
      data::SubstructureFeaturizer::Build(dataset.drugs(), feat_config)
          .value();
  auto hypergraph = graph::BuildDrugHypergraph(
      featurizer.drug_substructures(), featurizer.num_substructures());
  auto context = model::HypergraphContext::FromHypergraph(hypergraph);
  core::Rng pair_rng(8);
  auto pairs = data::BuildBalancedPairs(dataset, &pair_rng);

  core::Rng model_rng(9);
  model::HyGnnConfig model_config;
  model_config.encoder.hidden_dim = 16;
  model_config.encoder.output_dim = 16;
  model::HyGnnModel model(featurizer.num_substructures(), model_config,
                          &model_rng);
  model::TrainConfig train_config;
  train_config.epochs = 8;
  train_config.seed = 11;
  train_config.threads = threads;
  model::HyGnnTrainer trainer(&model, train_config);
  trainer.Fit(context, pairs);
  std::vector<float> losses = trainer.epoch_losses();
  core::SetNumThreads(1);
  return losses;
}

TEST(TrainingDeterminismTest, SeededRunsBitIdenticalAcrossThreadCounts) {
  const std::vector<float> run_a = TrainOnce(4);
  const std::vector<float> run_b = TrainOnce(4);
  const std::vector<float> sequential = TrainOnce(1);
  ASSERT_EQ(run_a.size(), 8u);
  // Two seeded runs agree with each other AND with the sequential
  // path, epoch by epoch, bit for bit.
  ASSERT_EQ(run_a.size(), run_b.size());
  ASSERT_EQ(run_a.size(), sequential.size());
  for (size_t e = 0; e < run_a.size(); ++e) {
    EXPECT_EQ(run_a[e], run_b[e]) << "epoch " << e;
    EXPECT_EQ(run_a[e], sequential[e]) << "epoch " << e;
  }
}

}  // namespace
}  // namespace hygnn
