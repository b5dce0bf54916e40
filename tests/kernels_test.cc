// Kernel-layer tests: (1) threaded execution is bit-identical to the
// threads=1 reference for every parallelized op, forward AND backward;
// (2) the dense products match scalar references that spell out each
// rounding, bit for bit, at 1/2/4 threads; (3) the gather backward,
// the column sums, the fused decoder kernels and the weighted segment
// sum match scalar references or the kernel compositions they replace,
// bit for bit, at 1/2/4 threads; (4) gradcheck still passes with a
// 4-thread pool; (5) two seeded training runs produce identical
// per-epoch losses at any thread count.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/csr.h"
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
#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"
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

TEST(KernelParityTest, Add) {
  // Large enough to exceed the elementwise grain (4096).
  ExpectThreadParity("Add", [](std::vector<tensor::Tensor>* inputs) {
    return tensor::Add(MakeLeaf(inputs, 3, 9000, 1),
                       MakeLeaf(inputs, 4, 9000, 1));
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

TEST(KernelParityTest, PairMatMulAndBiasRelu) {
  // Ragged blocks (d = 19, m = 23), then the 16-lane tile (d = m = 64).
  for (const int64_t d : {kCols, int64_t{64}}) {
    ExpectThreadParity("PairMatMul", [d](std::vector<tensor::Tensor>* inputs) {
      const int64_t m = d == 64 ? 64 : 23;
      auto h = MakeLeaf(inputs, 28, kRows, d);
      auto w = MakeLeaf(inputs, 31, 2 * d, m);
      std::vector<int32_t> a, b;
      for (int32_t i = 0; i < 203; ++i) {
        a.push_back((i * 5) % static_cast<int32_t>(kRows));
        b.push_back(i % 2 == 0 ? 3 : (i * 11) % static_cast<int32_t>(kRows));
      }
      return tensor::PairMatMul(h, a, b, w);
    });
  }
  ExpectThreadParity("BiasRelu", [](std::vector<tensor::Tensor>* inputs) {
    auto z = MakeLeaf(inputs, 29, kRows, 41);  // three line-wide chunks
    auto bias = MakeLeaf(inputs, 30, 1, 41);
    return tensor::BiasRelu(z, bias);
  });
}

TEST(KernelParityTest, LeakyPairScore) {
  // Ragged 16-column blocks (dx = 19, dt = 23), then the encoder's
  // widths; 203 pairs over 37 table rows, row 3 read by every other
  // pair.
  for (const int64_t d : {kCols, int64_t{64}}) {
    ExpectThreadParity("LeakyPairScore",
                       [d](std::vector<tensor::Tensor>* inputs) {
      const int64_t dt = d == 64 ? 64 : 23;
      auto x = MakeLeaf(inputs, 35, 203, d);
      auto table = MakeLeaf(inputs, 36, kRows, dt);
      auto w = MakeLeaf(inputs, 37, d + dt, 1);
      std::vector<int32_t> idx;
      for (int32_t i = 0; i < 203; ++i) {
        idx.push_back(i % 2 == 0 ? 3 : (i * 11) % static_cast<int32_t>(kRows));
      }
      return tensor::LeakyPairScore(x, table, idx, w, 0.2f);
    });
  }
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

TEST(KernelParityTest, WeightedSegmentSum) {
  // 40 segments over 200 rows (segment 2 empty): several chunks of
  // segments forward and of rows backward.
  constexpr int64_t kN = 200, kSegments = 40;
  ExpectThreadParity("WeightedSegmentSum",
                     [](std::vector<tensor::Tensor>* inputs) {
    auto x = MakeLeaf(inputs, 22, kN, kCols);
    auto w = MakeLeaf(inputs, 23, kN, 1);
    return tensor::WeightedSegmentSum(x, w, TestSegmentIds(kN, kSegments),
                                      kSegments);
  });
}

TEST(KernelParityTest, RowwiseAndReductions) {
  ExpectThreadParity("RowwiseDot", [](std::vector<tensor::Tensor>* inputs) {
    return tensor::RowwiseDot(MakeLeaf(inputs, 19, kRows, kCols),
                              MakeLeaf(inputs, 20, kRows, kCols));
  });
  ExpectThreadParity("ReduceSum", [](std::vector<tensor::Tensor>* inputs) {
    return tensor::ReduceSum(MakeLeaf(inputs, 21, 9000, 1));
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

/// A [rows, cols] CSR matrix with about three entries per row, some
/// rows empty and some columns in several rows.
std::shared_ptr<const tensor::CsrMatrix> TestCsr(int64_t rows, int64_t cols) {
  core::Rng rng(27);
  std::vector<int32_t> r, c;
  std::vector<float> v;
  for (int64_t i = 0; i < rows; ++i) {
    if (i % 7 == 5) continue;
    for (int32_t e = 0; e < 3; ++e) {
      r.push_back(static_cast<int32_t>(i));
      c.push_back(static_cast<int32_t>(rng.UniformInt(cols)));
      v.push_back(rng.UniformFloat() * 2.0f - 1.0f);
    }
  }
  return tensor::CsrMatrix::FromCoo(rows, cols, r, c, v);
}

TEST(KernelParityTest, SpMM) {
  ExpectThreadParity("SpMM", [](std::vector<tensor::Tensor>* inputs) {
    return tensor::SpMM(TestCsr(300, kRows),
                        MakeLeaf(inputs, 32, kRows, kCols));
  });
}

TEST(KernelParityTest, BceWithLogitsLoss) {
  ExpectThreadParity("BceWithLogitsLoss",
                     [](std::vector<tensor::Tensor>* inputs) {
    std::vector<float> targets(9000);
    for (size_t i = 0; i < targets.size(); ++i) {
      targets[i] = static_cast<float>(i % 3 == 0);
    }
    return tensor::BceWithLogitsLoss(MakeLeaf(inputs, 33, 9000, 1), targets);
  });
}

TEST(KernelParityTest, SoftmaxCrossEntropyLoss) {
  ExpectThreadParity("SoftmaxCrossEntropyLoss",
                     [](std::vector<tensor::Tensor>* inputs) {
    std::vector<int32_t> labels(300);
    for (size_t i = 0; i < labels.size(); ++i) {
      labels[i] = static_cast<int32_t>((i * 7) % kCols);
    }
    return tensor::SoftmaxCrossEntropyLoss(MakeLeaf(inputs, 34, 300, kCols),
                                           labels);
  });
}

// ---------------------------------------------------------------------------
// Dense products against scalar references that spell out every rounding
// ---------------------------------------------------------------------------

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

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

/// c[n,m] += a[n,k] · b[k,m]: MulAdd per nonzero a, t ascending. From
/// a c of +0 it is the value MatMul writes.
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
/// ascending, then one add into c. From a c of +0 it is the value
/// MatMulNT's overwrite mode writes.
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

/// A product's (n, k, m), as the kernels take them.
struct Shape {
  int64_t n, k, m;
};

/// Runs `kernel` at 1, 2 and 4 threads over every shape in the grid and
/// in `boundary`, and memcmps c against `reference`. Zero-heavy a (with
/// -0) pins the skip-zero contract. With `skips_zeros` (MatMul,
/// MatMulTN), one reduction index t is ±0 in every row of the product
/// and row t of b is ±inf, so a tile that forms 0·inf instead of
/// skipping it writes NaN. An accumulating kernel's c and the
/// reference's start at the same nonzero c0 (with some -0); an
/// overwriting kernel's c starts as NaN and the reference's at +0, so
/// a read of c shows. Row counts around the 4-row tile and 1,024 rows
/// make the single-chunk threads = 1 call form its tiles itself.
/// `boundary` holds shapes off the grid that end a chunk or a reduction
/// block on a short tail. `transposed_a` marks MatMulTN, whose b is
/// [n,m] and c is [k,m].
void ExpectMatchesReference(const char* name, bool transposed_a,
                            bool skips_zeros, tensor::kernels::Store store,
                            DenseKernel kernel, DenseKernel reference,
                            const std::vector<Shape>& boundary) {
  const bool overwrite = store == tensor::kernels::Store::kOverwrite;
  const int64_t kRowsGrid[] = {1, 3, 5, 90, 1024};
  const int64_t kDimGrid[] = {1, 3, 8, 13, 63, 64, 65, 128};
  std::vector<Shape> shapes;
  for (int64_t n : kRowsGrid) {
    for (int64_t k : kDimGrid) {
      for (int64_t m : kDimGrid) shapes.push_back({n, k, m});
    }
  }
  shapes.insert(shapes.end(), boundary.begin(), boundary.end());
  core::Rng rng(2024);
  int failures = 0;
  for (const auto& [n, k, m] : shapes) {
    auto a = DenseInput(&rng, n * k, 0.4);
    auto b = DenseInput(&rng, (transposed_a ? n : k) * m, 0.1);
    const auto c0 = DenseInput(&rng, (transposed_a ? k : n) * m, 0.2);
    if (skips_zeros) {
      // a[i, t] for every i of MatMul, a[t, r] for every r of MatMulTN.
      const int64_t depth = transposed_a ? n : k;
      const int64_t t = depth / 2;
      const int64_t rows = transposed_a ? k : n;
      for (int64_t r = 0; r < rows; ++r) {
        a[transposed_a ? t * k + r : r * k + t] = r % 2 ? -0.0f : 0.0f;
      }
      for (int64_t j = 0; j < m; ++j) b[t * m + j] = j % 2 ? -kInf : kInf;
    }
    std::vector<float> expected =
        overwrite ? std::vector<float>(c0.size(), 0.0f) : c0;
    reference(a.data(), b.data(), expected.data(), n, k, m);
    for (int32_t threads : {1, 2, 4}) {
      core::SetNumThreads(threads);
      std::vector<float> c =
          overwrite ? std::vector<float>(c0.size(), kNaN) : c0;
      kernel(a.data(), b.data(), c.data(), n, k, m);
      core::SetNumThreads(1);
      const bool same = std::memcmp(c.data(), expected.data(),
                                    c.size() * sizeof(float)) == 0;
      EXPECT_TRUE(same) << name << " n=" << n << " k=" << k << " m=" << m
                        << " threads=" << threads;
      if (!same && ++failures >= 5) return;
    }
  }
}

/// MatMul and MatMulNT rows of 64 multiply-adds run in 256-row chunks:
/// 4,099 rows are 17 chunks, the last of 3 rows.
const std::vector<Shape> kThinRowShapes = {{4099, 64, 1}, {4099, 1, 64}};

TEST(DenseProductTest, MatMulMatchesRoundingReference) {
  ExpectMatchesReference("MatMul", false, true,
                         tensor::kernels::Store::kOverwrite,
                         tensor::kernels::MatMul, ReferenceMatMul,
                         kThinRowShapes);
}

TEST(DenseProductTest, MatMulNTMatchesRoundingReference) {
  using tensor::kernels::Store;
  ExpectMatchesReference(
      "MatMulNT overwrite", false, false, Store::kOverwrite,
      [](const float* a, const float* b, float* c, int64_t n, int64_t k,
         int64_t m) {
        tensor::kernels::MatMulNT(a, b, c, n, k, m, Store::kOverwrite);
      },
      ReferenceMatMulNT, kThinRowShapes);
  ExpectMatchesReference(
      "MatMulNT accumulate", false, false, Store::kAccumulate,
      [](const float* a, const float* b, float* c, int64_t n, int64_t k,
         int64_t m) {
        tensor::kernels::MatMulNT(a, b, c, n, k, m, Store::kAccumulate);
      },
      ReferenceMatMulNT, kThinRowShapes);
}

TEST(DenseProductTest, MatMulTNMatchesRoundingReference) {
  // n = 4,099 is 65 reduction blocks of 64 rows, the last of 3 rows;
  // k = 130 is five chunks of 32 rows of c, the last of 2 rows.
  ExpectMatchesReference("MatMulTN", true, true,
                         tensor::kernels::Store::kAccumulate,
                         tensor::kernels::MatMulTN, ReferenceMatMulTN,
                         {{4099, 130, 64}, {4099, 64, 1}});
}

/// Every element of c is the two-step reduction -1·p + q·q from c = 0
/// with p = 1 + 2⁻¹¹ and q = 1 + 2⁻¹². The first product is exact; the
/// second, 1 + 2⁻¹¹ + 2⁻²⁴, is not a float. Fused, it leaves 2⁻²⁴;
/// rounded first, it cancels to 0. So c shows which rounding ran, in
/// every tile shape: one column (the matrix-vector path), a full and a
/// partial 64-column block, and a shorter last row tile. MatMulTN also
/// runs the two steps 101 rows apart, in different reduction blocks.
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
        // MatMul overwrites c, so it starts as NaN.
        std::vector<float> c(static_cast<size_t>(rows * m), kNaN);
        tensor::kernels::MatMul(a_rows.data(), b_nn.data(), c.data(), rows, 2,
                                m);
        for (float v : c) ASSERT_EQ(fused_kernels, v) << "MatMul " << shape;
        std::fill(c.begin(), c.end(), 0.0f);
        tensor::kernels::MatMulNT(a_rows.data(), b_nt.data(), c.data(), rows,
                                  2, m, tensor::kernels::Store::kAccumulate);
        for (float v : c) ASSERT_EQ(0.0f, v) << "MatMulNT " << shape;
        // MatMulTN: a is [2 + gap, rows] with rows (-1, ...), `gap` rows
        // of zeros and (q, ...); b's rows are p, `gap` rows of zeros and
        // q. Zeros of a are skipped, so the gap leaves c as it was.
        for (int64_t gap : {0, 100}) {
          std::vector<float> a_cols(static_cast<size_t>(rows), -1.0f);
          a_cols.resize(static_cast<size_t>((1 + gap) * rows), 0.0f);
          a_cols.resize(static_cast<size_t>((2 + gap) * rows), q);
          std::vector<float> b_tn(static_cast<size_t>(m), p);
          b_tn.resize(static_cast<size_t>((1 + gap) * m), 0.0f);
          b_tn.resize(static_cast<size_t>((2 + gap) * m), q);
          std::fill(c.begin(), c.end(), 0.0f);
          tensor::kernels::MatMulTN(a_cols.data(), b_tn.data(), c.data(),
                                    2 + gap, rows, m);
          for (float v : c) {
            ASSERT_EQ(fused_kernels, v) << "MatMulTN gap=" << gap << " "
                                        << shape;
          }
        }
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

/// PairMatMul's forward and backward against the scalar references
/// over its pair input X = h[a] ‖ h[b] ([n, 2d]): ReferenceMatMul for
/// z, ReferenceMatMulTN for dw, and for dh each pair's row of
/// ReferenceMatMulNT(g, w) scattered into h's rows, the b half for
/// every pair first, then the a half. Column t of h is ±0 in every row
/// and rows t and d + t of w are ±inf, and so are the rows of h that
/// pair 0 names, with g's row 0 ±inf: a tile that forms 0·inf instead
/// of skipping it writes NaN, in z and in dw. dw and dh start at values
/// with some -0, and z at NaN, so a read of z shows. The shapes run the
/// 16-lane tile, ragged blocks, one-column z and h, a dw chunk that
/// spans both halves of w (d = 40), several reduction blocks, several
/// chunks of drugs and three blocks of dh's pairs (9,001 pairs), the
/// gather tests' pairs, and a 2n-row serving block.
TEST(DenseProductTest, PairMatMulMatchesRoundingReference) {
  struct PairProduct {
    int64_t rows, d, n, m;
  };
  const std::vector<PairProduct> shapes = {
      {9, 64, 30, 64},  {9, 21, 30, 13},   {40, 40, 130, 70},
      {5, 1, 41, 3},    {30, 7, 6, 1},     {45, 64, 203, 64},
      {180, 64, 90, 64}, {19, 65, 77, 129}, {37, 64, 9001, 64},
  };
  core::Rng rng(2025);
  int failures = 0;
  for (const auto& [rows, d, n, m] : shapes) {
    std::vector<int32_t> a(static_cast<size_t>(n)), b(a.size());
    for (int64_t i = 0; i < n; ++i) {
      if (rows == 2 * n) {  // the serving block: pair i is (i, n + i)
        a[i] = static_cast<int32_t>(i);
        b[i] = static_cast<int32_t>(n + i);
      } else if (n == static_cast<int64_t>(kGatherA.size())) {
        a[i] = kGatherA[i];
        b[i] = kGatherB[i];
      } else {  // the last row is in no pair
        a[i] = static_cast<int32_t>(rng.UniformInt(rows - 1));
        b[i] = static_cast<int32_t>(rng.UniformInt(rows - 1));
      }
    }
    auto h = DenseInput(&rng, rows * d, 0.3);
    auto w = DenseInput(&rng, 2 * d * m, 0.1);
    auto g = DenseInput(&rng, n * m, 0.1);
    const auto dh0 = DenseInput(&rng, rows * d, 0.2);
    const auto dw0 = DenseInput(&rng, 2 * d * m, 0.2);
    const int64_t t = d / 2;
    for (int64_t r = 0; r < rows; ++r) h[r * d + t] = r % 2 ? -0.0f : 0.0f;
    for (int64_t j = 0; j < d; ++j) {
      h[a[0] * d + j] = j % 2 ? -0.0f : 0.0f;
      h[b[0] * d + j] = j % 2 ? 0.0f : -0.0f;
    }
    for (int64_t j = 0; j < m; ++j) {
      w[t * m + j] = j % 2 ? -kInf : kInf;
      w[(d + t) * m + j] = j % 2 ? kInf : -kInf;
      g[j] = j % 2 ? -kInf : kInf;
    }
    std::vector<float> x(static_cast<size_t>(n * 2 * d));
    for (int64_t i = 0; i < n; ++i) {
      std::copy_n(h.begin() + a[i] * d, d, x.begin() + i * 2 * d);
      std::copy_n(h.begin() + b[i] * d, d, x.begin() + i * 2 * d + d);
    }
    std::vector<float> z_ref(static_cast<size_t>(n * m), 0.0f);
    ReferenceMatMul(x.data(), w.data(), z_ref.data(), n, 2 * d, m);
    std::vector<float> dw_ref = dw0;
    ReferenceMatMulTN(x.data(), g.data(), dw_ref.data(), n, 2 * d, m);
    std::vector<float> dx(x.size(), 0.0f);
    ReferenceMatMulNT(g.data(), w.data(), dx.data(), n, m, 2 * d);
    std::vector<float> dh_ref = dh0;
    ScalarScatterAdd(dx.data() + d, 2 * d, b, d, dh_ref.data());
    ScalarScatterAdd(dx.data(), 2 * d, a, d, dh_ref.data());
    for (const int32_t threads : {1, 2, 4}) {
      core::SetNumThreads(threads);
      std::vector<float> z(z_ref.size(), kNaN);
      tensor::kernels::PairMatMul(h.data(), rows, d, a.data(), b.data(), n,
                                  w.data(), m, z.data());
      std::vector<float> dh = dh0, dw = dw0;
      tensor::kernels::PairMatMulBackward(h.data(), rows, d, a.data(),
                                          b.data(), n, w.data(), m, g.data(),
                                          dh.data(), dw.data());
      core::SetNumThreads(1);
      const std::string shape =
          "rows=" + std::to_string(rows) + " d=" + std::to_string(d) +
          " n=" + std::to_string(n) + " m=" + std::to_string(m) +
          " threads=" + std::to_string(threads);
      const bool same = SameBits(z, z_ref) && SameBits(dw, dw_ref) &&
                        SameBits(dh, dh_ref);
      EXPECT_TRUE(SameBits(z, z_ref)) << "z " << shape;
      EXPECT_TRUE(SameBits(dw, dw_ref)) << "dw " << shape;
      EXPECT_TRUE(SameBits(dh, dh_ref)) << "dh " << shape;
      if (!same && ++failures >= 5) return;
    }
  }
}

/// LeakyPairScore's forward and backward against the scalar references
/// over its explicit input X = x ‖ table[idx] ([n, dx + dt]) and its
/// LeakyRelu V: ReferenceMatMul(V, w) for z, ReferenceMatMulTN(V, g)
/// for dw, and for x's and table's gradients each element of
/// ReferenceMatMulNT(g, w) times the slope factor at X, rounded and
/// added onto +0 as LeakyRelu's backward adds it into a zero-filled
/// gradient, then added into x's gradient, and into table's rows as the
/// gather's scatter adds it: summed onto +0 first, pairs ascending.
/// Column dx/2 of x and dt/2 of table are ±0 in every row and w is ±inf
/// there, so a forward or dw step that forms 0·inf instead of skipping
/// it writes NaN. Most entries are negative for the slope branch, pairs
/// share table rows, the gradients start at values with some -0, and z
/// at NaN, so a read of z shows. g of pair 0 is the least negative
/// subnormal and x's gradient starts at -0 in that row, so a slope step
/// fused into one MulAdd there would leave -0 where the rounded product
/// added onto +0 leaves +0. The shapes run n below one 16-row tile,
/// ragged tiles and column blocks, dx or dt of 1, a dw chunk that spans
/// both halves (dx = 40), several dw chunks and rows of w's reduction,
/// and the encoder's widths.
TEST(DenseProductTest, LeakyPairScoreMatchesRoundingReference) {
  struct ScoreProduct {
    int64_t n, dx, rows, dt;
  };
  const std::vector<ScoreProduct> shapes = {
      {7, 3, 2, 5},     {30, 21, 9, 13},  {41, 1, 5, 3},    {33, 5, 4, 1},
      {16, 16, 3, 16},  {130, 40, 7, 40}, {203, 64, 45, 64},
      {4099, 64, 37, 64},
  };
  constexpr float kSlope = 0.2f;
  const auto leaky = [](float v) { return v >= 0.0f ? v : kSlope * v; };
  const auto leaky_grad = [](float v) { return v >= 0.0f ? 1.0f : kSlope; };
  core::Rng rng(2026);
  int failures = 0;
  for (const auto& [n, dx, rows, dt] : shapes) {
    const int64_t depth = dx + dt;
    std::vector<int32_t> idx(static_cast<size_t>(n));
    for (int32_t& i : idx) i = static_cast<int32_t>(rng.UniformInt(rows));
    const auto negative = [&](std::vector<float> v) {
      for (float& e : v) {
        if (rng.Bernoulli(0.6)) e = -std::fabs(e);
      }
      return v;
    };
    auto x = negative(DenseInput(&rng, n * dx, 0.2));
    auto table = negative(DenseInput(&rng, rows * dt, 0.2));
    auto w = DenseInput(&rng, depth, 0.1);
    auto g = DenseInput(&rng, n, 0.1);
    g[0] = -0x1p-149f;
    auto dx0 = DenseInput(&rng, n * dx, 0.2);
    std::fill_n(dx0.begin(), dx, -0.0f);
    const auto dt0 = DenseInput(&rng, rows * dt, 0.2);
    const auto dw0 = DenseInput(&rng, depth, 0.2);
    for (int64_t i = 0; i < n; ++i) x[i * dx + dx / 2] = i % 2 ? -0.0f : 0.0f;
    for (int64_t r = 0; r < rows; ++r) {
      table[r * dt + dt / 2] = r % 2 ? 0.0f : -0.0f;
    }
    w[dx / 2] = kInf;
    w[dx + dt / 2] = -kInf;
    std::vector<float> input(static_cast<size_t>(n * depth));
    std::vector<float> v(input.size());
    for (int64_t i = 0; i < n; ++i) {
      std::copy_n(x.begin() + i * dx, dx, input.begin() + i * depth);
      std::copy_n(table.begin() + idx[i] * dt, dt,
                  input.begin() + i * depth + dx);
    }
    std::transform(input.begin(), input.end(), v.begin(), leaky);
    std::vector<float> z_ref(static_cast<size_t>(n), 0.0f);
    ReferenceMatMul(v.data(), w.data(), z_ref.data(), n, depth, 1);
    std::vector<float> dw_ref = dw0;
    ReferenceMatMulTN(v.data(), g.data(), dw_ref.data(), n, depth, 1);
    std::vector<float> dv(input.size(), 0.0f);
    ReferenceMatMulNT(g.data(), w.data(), dv.data(), n, 1, depth);
    std::vector<float> dinput(input.size());
    for (size_t e = 0; e < input.size(); ++e) {
      dinput[e] = 0.0f + RoundedProduct(dv[e], leaky_grad(input[e]));
    }
    std::vector<float> dx_ref = dx0;
    std::vector<float> dtable_half(static_cast<size_t>(n * dt));
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t t = 0; t < dx; ++t) {
        dx_ref[i * dx + t] = dx_ref[i * dx + t] + dinput[i * depth + t];
      }
      for (int64_t t = 0; t < dt; ++t) {
        dtable_half[i * dt + t] = 0.0f + dinput[i * depth + dx + t];
      }
    }
    std::vector<float> dt_ref = dt0;
    ScalarScatterAdd(dtable_half.data(), dt, idx, dt, dt_ref.data());
    for (const int32_t threads : {1, 2, 4}) {
      core::SetNumThreads(threads);
      std::vector<float> z(z_ref.size(), kNaN);
      tensor::kernels::LeakyPairScore(x.data(), n, dx, table.data(), dt,
                                      idx.data(), w.data(), kSlope, z.data());
      std::vector<float> dx_got = dx0, dt_got = dt0, dw_got = dw0;
      core::Csr table_groups;
      table_groups.GroupBy(idx, rows);
      tensor::kernels::LeakyPairScoreBackward(
          x.data(), n, dx, table.data(), dt, idx.data(), table_groups,
          w.data(), kSlope, g.data(), dx_got.data(), dt_got.data(),
          dw_got.data());
      core::SetNumThreads(1);
      const std::string shape =
          "n=" + std::to_string(n) + " dx=" + std::to_string(dx) +
          " rows=" + std::to_string(rows) + " dt=" + std::to_string(dt) +
          " threads=" + std::to_string(threads);
      const bool same = SameBits(z, z_ref) && SameBits(dw_got, dw_ref) &&
                        SameBits(dx_got, dx_ref) && SameBits(dt_got, dt_ref);
      EXPECT_TRUE(SameBits(z, z_ref)) << "z " << shape;
      EXPECT_TRUE(SameBits(dw_got, dw_ref)) << "dw " << shape;
      EXPECT_TRUE(SameBits(dx_got, dx_ref)) << "dx " << shape;
      EXPECT_TRUE(SameBits(dt_got, dt_ref)) << "dtable " << shape;
      if (!same && ++failures >= 5) return;
    }
  }
}

/// The NaN that 0·inf produces on this target. Where every NaN is this
/// one, a memcmp compares signs, zeros and infinities, not which of two
/// NaNs an add kept.
float DefaultNaN() {
  volatile float zero = 0.0f;
  return zero * kInf;
}

/// OrderSensitive's magnitudes with every seventh entry ±1e-25, so the
/// product of two such entries underflows to ±0, every eleventh ±0,
/// and with `specials` DefaultNaN, +inf and -inf at three entries.
std::vector<float> WeightedSumValues(int64_t n, uint64_t seed,
                                     bool specials) {
  core::Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (size_t i = 0; i < v.size(); ++i) {
    const float u = rng.UniformFloat() * 2.0f - 1.0f;
    if (i % 11 == 0) {
      v[i] = u < 0.0f ? -0.0f : 0.0f;
    } else if (i % 7 == 0) {
      v[i] = u < 0.0f ? -1e-25f : 1e-25f;
    } else {
      v[i] = i % 3 == 0 ? u * 1e8f : u;
    }
  }
  if (specials && n > 9) {
    v[5] = DefaultNaN();
    v[n / 2 + 1] = kInf;
    v[n - 2] = -kInf;
  }
  return v;
}

/// WeightedSegmentSum's kernels against scalar references that spell
/// out the composition's roundings (kernels.h, segment.cc): forward,
/// out[s][j] = +0, then out + ReferenceMulAdd(w[i], x[i][j], +0) for
/// s's rows ascending; dx[i][j] = ReferenceMulAdd(w[i], t[j], dx[i][j])
/// with t = +0 + g[seg[i]]; and dw[i] += the dot of t with x[i] as
/// RowwiseDotAccumulate, the composition's kernel, rounds it. Ids are
/// unsorted and repeated with empty segments, or one segment holding
/// every row. The starting gradients hold values, ±0 and tiny entries,
/// so a fused product that rounds to -0 shows, and out starts at NaN,
/// so a read of out shows. dx and dw are also each computed alone.
TEST(SegmentKernelTest, WeightedSegmentSumMatchesRoundingReference) {
  struct Case {
    std::vector<int32_t> ids;
    int64_t segments;
  };
  std::vector<int32_t> many(300);
  core::Rng rng(78);
  for (int32_t& id : many) {
    do {
      id = static_cast<int32_t>(rng.UniformInt(40));
    } while (id % 13 == 5);
  }
  const std::vector<Case> cases = {
      {{4, 0, 4, 2, 6, 0, 0, 3, 6, 4, 2, 0, 6, 3, 4, 4, 0, 2, 6, 3, 0, 4, 2},
       7},
      {std::vector<int32_t>(19, 0), 1},
      {many, 40},
  };
  int failures = 0;
  for (const Case& c : cases) {
    const auto n = static_cast<int64_t>(c.ids.size());
    core::Csr groups;
    groups.GroupBy(c.ids, c.segments);
    for (const int64_t d : {1, 3, 5, 8, 9, 13, 64, 65}) {
      for (const bool specials : {false, true}) {
        const auto x = WeightedSumValues(n * d, 60 + d, specials);
        const auto w = WeightedSumValues(n, 61 + d, specials);
        const auto g = WeightedSumValues(c.segments * d, 62 + d, specials);
        const auto dx0 = WeightedSumValues(n * d, 63 + d, false);
        const auto dw0 = WeightedSumValues(n, 64 + d, false);
        std::vector<float> out_ref(static_cast<size_t>(c.segments * d), 0.0f);
        std::vector<float> t(static_cast<size_t>(n * d));
        std::vector<float> dx_ref = dx0;
        for (int64_t i = 0; i < n; ++i) {
          const int64_t s = c.ids[static_cast<size_t>(i)];
          for (int64_t j = 0; j < d; ++j) {
            float& o = out_ref[static_cast<size_t>(s * d + j)];
            o = o + ReferenceMulAdd(w[i], x[i * d + j], 0.0f);
            t[i * d + j] = 0.0f + g[s * d + j];
            dx_ref[i * d + j] =
                ReferenceMulAdd(w[i], t[i * d + j], dx_ref[i * d + j]);
          }
        }
        std::vector<float> dw_ref = dw0;
        tensor::kernels::RowwiseDotAccumulate(t.data(), x.data(),
                                              dw_ref.data(), n, d);
        for (const int32_t threads : {1, 2, 4}) {
          core::SetNumThreads(threads);
          std::vector<float> out(out_ref.size(), kNaN);
          tensor::kernels::WeightedSegmentSum(x.data(), w.data(), groups, d,
                                              out.data());
          std::vector<float> dx = dx0, dw = dw0;
          tensor::kernels::WeightedSegmentSumBackward(
              x.data(), w.data(), c.ids.data(), n, d, g.data(), dx.data(),
              dw.data());
          std::vector<float> dx_alone = dx0, dw_alone = dw0;
          tensor::kernels::WeightedSegmentSumBackward(
              x.data(), w.data(), c.ids.data(), n, d, g.data(),
              dx_alone.data(), nullptr);
          tensor::kernels::WeightedSegmentSumBackward(
              x.data(), w.data(), c.ids.data(), n, d, g.data(), nullptr,
              dw_alone.data());
          core::SetNumThreads(1);
          const std::string shape =
              "n=" + std::to_string(n) + " segments=" +
              std::to_string(c.segments) + " d=" + std::to_string(d) +
              (specials ? " specials" : "") +
              " threads=" + std::to_string(threads);
          const bool same = SameBits(out, out_ref) && SameBits(dx, dx_ref) &&
                            SameBits(dw, dw_ref) &&
                            SameBits(dx_alone, dx_ref) &&
                            SameBits(dw_alone, dw_ref);
          EXPECT_TRUE(SameBits(out, out_ref)) << "out " << shape;
          EXPECT_TRUE(SameBits(dx, dx_ref)) << "dx " << shape;
          EXPECT_TRUE(SameBits(dw, dw_ref)) << "dw " << shape;
          EXPECT_TRUE(SameBits(dx_alone, dx_ref)) << "dx alone " << shape;
          EXPECT_TRUE(SameBits(dw_alone, dw_ref)) << "dw alone " << shape;
          if (!same && ++failures >= 5) return;
        }
      }
    }
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
        return tensor::ReduceSum(tensor::MatMul(x, b));
      });
}

TEST_F(ThreadedGradcheckTest, SegmentSoftmax) {
  const std::vector<int32_t> seg = {0, 1, 0, 2, 1, 0, 2, 2, 1, 0, 3, 3};
  testing::ExpectGradMatchesNumeric(
      [] { return GradcheckInput(12, 1); },
      [&seg](const tensor::Tensor& x) {
        tensor::Tensor alpha = tensor::SegmentSoftmax(x, seg, 4);
        return tensor::ReduceSum(tensor::RowwiseDot(alpha, alpha));
      });
}

TEST_F(ThreadedGradcheckTest, SegmentSum) {
  const std::vector<int32_t> seg = {0, 1, 0, 2, 1, 0, 2, 2, 1};
  testing::ExpectGradMatchesNumeric(
      [] { return GradcheckInput(9, 4); },
      [&seg](const tensor::Tensor& x) {
        return tensor::ReduceSum(tensor::SegmentSum(x, seg, 3));
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
