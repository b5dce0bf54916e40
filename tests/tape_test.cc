// Tape tests: (1) the fused ops PairMatMul, BiasRelu, LeakyPairScore
// and WeightedSegmentSum are bit-identical to the compositions they
// replace — values and every gradient, with duplicate indices, ±0, NaN
// and ±inf — alone and (the decoder's two) inside the MLP decoder's
// chain, at 1, 2 and 4 threads; (2) full training runs
// are bit-identical at 1 and 4 threads, losses AND trained weight bytes;
// (3) gradcheck passes over chains through the fused ops; (4) the fused
// ops save kernel invocations and buffers (ExecStats) and appear by name
// in the obs attribution table; (5) laziness semantics: pending graphs
// lint clean, an intermediate's value stays readable, and SpMM and the
// losses record without executing anything; (6) MatMul's
// backward adds into a gradient another consumer already started; (7)
// the buffer recycler: reused storage keeps every result bit, also when
// the decoder's overwriting kernels run on dirty storage, only buffers
// of at least 32 MiB are held, a miss or a TryFit return frees what is
// held, and concurrent drops and re-creations arrive zero-filled.

#include "tensor/tape.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/logging.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "data/featurize.h"
#include "data/generator.h"
#include "data/pairs.h"
#include "graph/builders.h"
#include "hygnn/model.h"
#include "hygnn/trainer.h"
#include "obs/optime.h"
#include "tensor/debug.h"
#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"
#include "tests/gradcheck.h"

namespace hygnn {
namespace {

/// Every test leaves the kernel pool at one thread.
class TapeTest : public ::testing::Test {
 protected:
  void TearDown() override { core::SetNumThreads(1); }
};

tensor::Tensor SeededInput(int64_t rows, int64_t cols, uint64_t seed = 3) {
  core::Rng rng(seed);
  std::vector<float> values(static_cast<size_t>(rows * cols));
  for (auto& v : values) v = rng.UniformFloat() * 2.0f - 1.0f;
  return tensor::Tensor::FromVector(std::move(values), rows, cols,
                                    /*requires_grad=*/true);
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<float> ValuesOf(const tensor::Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.size());
}

std::vector<float> GradOf(const tensor::Tensor& t) {
  return std::vector<float>(t.grad(), t.grad() + t.size());
}

/// SeededInput's values in a tensor that takes no gradient.
tensor::Tensor FixedInput(int64_t rows, int64_t cols, uint64_t seed) {
  return tensor::Tensor::FromVector(ValuesOf(SeededInput(rows, cols, seed)),
                                    rows, cols);
}

/// Specials a case sets at fixed positions of its inputs.
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// Output value and input gradients of one run, in a fixed order.
using Captured = std::vector<std::vector<float>>;

/// Runs `run` at 1, 2 and 4 threads and expects each capture to memcmp
/// `reference`, buffer by buffer.
void ExpectBitsAtThreads(const Captured& reference,
                         const std::function<Captured()>& run,
                         const std::string& what) {
  for (const int32_t threads : {1, 2, 4}) {
    core::SetNumThreads(threads);
    const Captured got = run();
    core::SetNumThreads(1);
    ASSERT_EQ(got.size(), reference.size()) << what;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(SameBits(got[i], reference[i]))
          << what << ": buffer " << i << " differs at " << threads
          << " threads";
    }
  }
}

/// Incoming gradient for y: loss = sum of y's row dots with g, so y's
/// gradient is g.
/// Holds NaN, ±inf and ±0, and magnitudes far apart, so a sum over a
/// column or a source row rounds differently in another order.
tensor::Tensor IncomingGradient(int64_t rows, int64_t cols, uint64_t seed) {
  // The specials below sit at fixed positions up to 17.
  HYGNN_CHECK_GE(rows * cols, 18);
  core::Rng rng(seed);
  std::vector<float> g(static_cast<size_t>(rows * cols));
  for (size_t i = 0; i < g.size(); ++i) {
    const float u = rng.UniformFloat() * 2.0f - 1.0f;
    g[i] = i % 3 == 0 ? u * 1e8f : u;
  }
  g[1] = kNaN;
  g[5] = kInf;
  g[9] = -kInf;
  g[13] = 0.0f;
  g[17] = -0.0f;
  return tensor::Tensor::FromVector(std::move(g), rows, cols);
}

/// Table of 7 rows: row 4 is in no pair, row 2 is in the a half (pairs
/// 0 and 3) and the b half (pairs 1 and 5), and rows 0 and 6 repeat.
const std::vector<int32_t> kPairA = {2, 0, 6, 2, 1, 6, 0, 3};
const std::vector<int32_t> kPairB = {5, 2, 0, 3, 0, 2, 6, 6};

/// One PairMatMul case: n pairs over a table of `rows` rows and d
/// columns, and a [2d, m] weight. `block` pairs row i with row n + i of
/// a 2n-row table, as PairScorer's serving block does; otherwise the
/// pairs are drawn from every row but the last, pair 0 pairs a row with
/// itself and pair 2 repeats pair 1.
struct PairShape {
  int64_t rows, d, n, m;
  bool block = false;
};

std::pair<std::vector<int32_t>, std::vector<int32_t>> ShapePairs(
    const PairShape& shape) {
  std::vector<int32_t> a(static_cast<size_t>(shape.n));
  std::vector<int32_t> b(a.size());
  core::Rng rng(static_cast<uint64_t>(shape.rows * 7 + shape.n));
  for (size_t i = 0; i < a.size(); ++i) {
    if (shape.block) {
      a[i] = static_cast<int32_t>(i);
      b[i] = static_cast<int32_t>(shape.n + static_cast<int64_t>(i));
    } else {
      a[i] = static_cast<int32_t>(rng.UniformInt(shape.rows - 1));
      b[i] = static_cast<int32_t>(rng.UniformInt(shape.rows - 1));
    }
  }
  if (!shape.block) {
    b[0] = a[0];
    a[2] = a[1];
    b[2] = b[1];
  }
  return {std::move(a), std::move(b)};
}

/// The NaN an invalid operation such as 0·inf produces on this target
/// (0xffc00000 on x86), computed at run time. When two NaNs meet in an
/// add, the one that survives depends on the operand order the compiler
/// picked for that add, which no rounding contract fixes, so a memcmp
/// of NaN bits would compare compiler choices. Where every NaN is this
/// one, NaN meets only its own bits, and the memcmp sees every sign,
/// zero and infinity.
float DefaultNaN() {
  volatile float zero = 0.0f;
  return zero * kInf;
}

/// Sets -0, +0, NaN, +inf and -inf at spread positions of t.
void PlantSpecials(tensor::Tensor* t) {
  float* v = t->data();
  const int64_t size = t->size();
  v[(3 * size) / 7] = -0.0f;
  v[(2 * size) / 5] = 0.0f;
  v[size / 2] = DefaultNaN();
  v[(2 * size) / 3] = kInf;
  v[(5 * size) / 6] = -kInf;
}

/// IncomingGradient with its NaN replaced by DefaultNaN.
tensor::Tensor IncomingGradientDefaultNaN(int64_t rows, int64_t cols,
                                          uint64_t seed) {
  tensor::Tensor g = IncomingGradient(rows, cols, seed);
  std::replace_if(
      g.data(), g.data() + g.size(), [](float v) { return std::isnan(v); },
      DefaultNaN());
  return g;
}

/// PairMatMul(h, a, b, w) or the ops it replaces, with specials in h
/// and w and an incoming gradient that holds them too (every NaN is
/// DefaultNaN): the output and the gradients of h and w. With `shared_h`, a second consumer of h
/// runs its backward first, so the pair op adds into a gradient that
/// is already started.
Captured RunPairMatMul(const PairShape& shape, bool fused, bool shared_h) {
  const auto [a, b] = ShapePairs(shape);
  tensor::Tensor h = SeededInput(shape.rows, shape.d, /*seed=*/31);
  tensor::Tensor w = SeededInput(2 * shape.d, shape.m, /*seed=*/32);
  PlantSpecials(&h);
  PlantSpecials(&w);
  const tensor::Tensor y =
      fused ? tensor::PairMatMul(h, a, b, w)
            : tensor::MatMul(tensor::ConcatCols(tensor::IndexSelectRows(h, a),
                                                tensor::IndexSelectRows(h, b)),
                             w);
  tensor::Tensor loss = tensor::ReduceSum(tensor::RowwiseDot(
      y, IncomingGradientDefaultNaN(shape.n, shape.m, 33)));
  if (shared_h) {
    const tensor::Tensor scale = FixedInput(shape.rows, shape.d, /*seed=*/34);
    loss = tensor::Add(loss, tensor::ReduceSum(tensor::RowwiseDot(h, scale)));
  }
  loss.Backward();
  return {ValuesOf(y), GradOf(h), GradOf(w)};
}

/// Each case's pair count is a multiple of neither 4 nor 16. They run
/// the 16-lane tile (d = m = 64), ragged column blocks, a one-column
/// output and a one-column table, dW chunks that span both halves of w
/// (d = 40), several chunks of drugs in dh, two blocks of dh's pairs
/// (4,500 pairs), and tables with more rows than pairs.
const std::vector<PairShape> kPairShapes = {
    {7, 21, 37, 13},         {30, 64, 101, 64},       {12, 40, 70, 70},
    {9, 5, 19, 1},           {6, 1, 43, 3},           {50, 16, 7, 24},
    {90, 64, 45, 64, true}, {20, 10, 9, 18, true},   {60, 64, 4500, 64},
};

TEST_F(TapeTest, PairMatMulBitIdenticalToComposition) {
  for (const PairShape& shape : kPairShapes) {
    for (const bool shared_h : {false, true}) {
      const std::string what =
          "PairMatMul rows=" + std::to_string(shape.rows) +
          " d=" + std::to_string(shape.d) + " n=" + std::to_string(shape.n) +
          " m=" + std::to_string(shape.m) +
          (shared_h ? " shared h" : "");
      const Captured reference = RunPairMatMul(shape, false, shared_h);
      ExpectBitsAtThreads(
          reference, [&] { return RunPairMatMul(shape, true, shared_h); },
          what);
    }
  }
}

/// One LeakyPairScore case: n pairs, x [n, dx], and a table of `rows`
/// rows and dt columns. Every pair reads a table row drawn from all but
/// the last, which no pair reads, so rows repeat; pairs 1 and 2 read
/// the same row.
struct ScoreShape {
  int64_t n, dx, rows, dt;
};

std::vector<int32_t> ScoreIndices(const ScoreShape& shape) {
  std::vector<int32_t> idx(static_cast<size_t>(shape.n));
  core::Rng rng(static_cast<uint64_t>(shape.rows * 13 + shape.n));
  for (int32_t& i : idx) {
    i = static_cast<int32_t>(rng.UniformInt(shape.rows - 1));
  }
  if (shape.n > 2) idx[2] = idx[1];
  return idx;
}

/// SeededInput with column `zero_col` ±0 in every row (the product
/// skips it, so w's ±inf there meets no finite factor) and NaN, +inf
/// and -inf at three entries outside that column (every NaN is
/// DefaultNaN). Half of the other entries are negative, so LeakyRelu
/// takes its slope there.
tensor::Tensor ScoreInput(int64_t rows, int64_t cols, uint64_t seed) {
  tensor::Tensor t = SeededInput(rows, cols, seed);
  float* v = t.data();
  const int64_t zero_col = cols / 2;
  for (int64_t r = 0; r < rows; ++r) {
    v[r * cols + zero_col] = r % 2 ? -0.0f : 0.0f;
  }
  if (cols > 1) {
    const int64_t other = (zero_col + 1) % cols;
    v[other] = DefaultNaN();
    v[((rows / 2) * cols) + other] = kInf;
    v[((rows - 1) * cols) + other] = -kInf;
  }
  return t;
}

/// The score's incoming gradient: magnitudes far apart (so a sum over
/// pairs rounds differently in another order), ±0, and with `specials`
/// NaN and ±inf too. A NaN or inf in g reaches every entry of w's
/// gradient, so a case runs both ways.
tensor::Tensor ScoreGradient(int64_t n, bool specials, uint64_t seed) {
  core::Rng rng(seed);
  std::vector<float> g(static_cast<size_t>(n));
  for (size_t i = 0; i < g.size(); ++i) {
    const float u = rng.UniformFloat() * 2.0f - 1.0f;
    g[i] = i % 3 == 0 ? u * 1e8f : u;
  }
  g[0] = -0.0f;
  if (n > 4) g[4] = 0.0f;
  if (specials) {
    g[n / 2] = DefaultNaN();
    g[n - 1] = n % 2 ? kInf : -kInf;
  }
  return tensor::Tensor::FromVector(std::move(g), n, 1);
}

/// LeakyPairScore(x, table, idx, w) or the ops it replaces: the score
/// and the gradients of x, table and w. w's entries for the ±0 columns
/// of x and table are +inf and -inf. With `shared`, x and table each
/// have a second reader whose backward starts their gradient first, as
/// in the encoder: x weighted by the score's segment softmax over the
/// table rows and summed per row (MulColumnBroadcast, then
/// SegmentSum), and a row dot of the table.
Captured RunLeakyPairScore(const ScoreShape& shape, bool fused, bool shared,
                           bool special_g) {
  constexpr float kSlope = 0.2f;
  const std::vector<int32_t> idx = ScoreIndices(shape);
  const tensor::Tensor x = ScoreInput(shape.n, shape.dx, /*seed=*/41);
  const tensor::Tensor table = ScoreInput(shape.rows, shape.dt, /*seed=*/42);
  tensor::Tensor w = SeededInput(shape.dx + shape.dt, 1, /*seed=*/43);
  w.data()[shape.dx / 2] = kInf;
  w.data()[shape.dx + shape.dt / 2] = -kInf;
  const tensor::Tensor z =
      fused ? tensor::LeakyPairScore(x, table, idx, w, kSlope)
            : tensor::MatMul(
                  tensor::LeakyRelu(
                      tensor::ConcatCols(x,
                                         tensor::IndexSelectRows(table, idx)),
                      kSlope),
                  w);
  tensor::Tensor loss = tensor::ReduceSum(
      tensor::RowwiseDot(z, ScoreGradient(shape.n, special_g, 44)));
  if (shared) {
    const tensor::Tensor attention =
        tensor::SegmentSoftmax(z, idx, shape.rows);
    const tensor::Tensor messages = tensor::SegmentSum(
        tensor::MulColumnBroadcast(x, attention), idx, shape.rows);
    loss = tensor::Add(
        tensor::Add(loss,
                    tensor::ReduceSum(tensor::RowwiseDot(
                        messages, FixedInput(shape.rows, shape.dx, 45)))),
        tensor::ReduceSum(tensor::RowwiseDot(
            table, FixedInput(shape.rows, shape.dt, 46))));
  }
  loss.Backward();
  return {ValuesOf(z), GradOf(x), GradOf(table), GradOf(w)};
}

/// n below, at and far above one 16-row tile and never a multiple of
/// 16 but once; dx != dt, dx = 1 and dt = 1; ragged 16-column
/// transposes; w's gradient in chunks that span both halves (dx = 40);
/// and the encoder's widths (64 and 64).
const std::vector<ScoreShape> kScoreShapes = {
    {9, 5, 3, 1},     {37, 21, 7, 13},   {45, 1, 6, 7},
    {16, 16, 4, 16},  {300, 64, 20, 64}, {1000, 40, 40, 40},
};

TEST_F(TapeTest, LeakyPairScoreBitIdenticalToComposition) {
  for (const ScoreShape& shape : kScoreShapes) {
    for (const bool shared : {false, true}) {
      for (const bool special_g : {false, true}) {
        const std::string what =
            "LeakyPairScore n=" + std::to_string(shape.n) +
            " dx=" + std::to_string(shape.dx) +
            " rows=" + std::to_string(shape.rows) +
            " dt=" + std::to_string(shape.dt) +
            (shared ? " shared" : "") + (special_g ? " special g" : "");
        const Captured reference =
            RunLeakyPairScore(shape, false, shared, special_g);
        ExpectBitsAtThreads(
            reference,
            [&] { return RunLeakyPairScore(shape, true, shared, special_g); },
            what);
      }
    }
  }
}

/// One WeightedSegmentSum case: row i's segment is ids[i], of
/// `segments`.
struct SegmentCase {
  std::string name;
  std::vector<int32_t> ids;
  int64_t segments;
};

/// Unsorted, repeated ids with two empty segments (1 and 5); one
/// segment that holds every row; and 300 rows over 40 segments, three
/// of them empty, which run several chunks of rows and of segments.
std::vector<SegmentCase> WeightedSumCases() {
  std::vector<int32_t> many(300);
  core::Rng rng(77);
  for (int32_t& id : many) {
    do {
      id = static_cast<int32_t>(rng.UniformInt(40));
    } while (id % 13 == 5);
  }
  return {
      {"unsorted",
       {4, 0, 4, 2, 6, 0, 0, 3, 6, 4, 2, 0, 6, 3, 4, 4, 0, 2, 6, 3, 0, 4, 2},
       7},
      {"one segment", std::vector<int32_t>(19, 0), 1},
      {"many", std::move(many), 40},
  };
}

/// Order-sensitive values for a weighted sum's operands: magnitudes far
/// apart (a sum in another order rounds differently), every fifth entry
/// ±1e-25, so products of two such entries underflow to ±0, and ±0 in
/// row 1. With `specials`, DefaultNaN, +inf and -inf in rows 3, 4 and
/// 5.
tensor::Tensor WeightedSumInput(int64_t rows, int64_t cols, bool specials,
                                bool requires_grad, uint64_t seed) {
  core::Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(rows * cols));
  for (size_t e = 0; e < v.size(); ++e) {
    const float u = rng.UniformFloat() * 2.0f - 1.0f;
    v[e] = e % 5 == 0 ? (u < 0.0f ? -1e-25f : 1e-25f)
                      : (e % 3 == 0 ? u * 1e8f : u);
  }
  if (rows > 1) {
    for (int64_t j = 0; j < cols; ++j) v[cols + j] = j % 2 ? -0.0f : 0.0f;
  }
  if (specials && rows > 5) {
    v[3 * cols] = DefaultNaN();
    v[4 * cols + cols - 1] = kInf;
    v[5 * cols] = -kInf;
  }
  return tensor::Tensor::FromVector(std::move(v), rows, cols, requires_grad);
}

/// WeightedSegmentSum(x, w, ids) or SegmentSum(MulColumnBroadcast(x,
/// w), ids): the output and the gradients of x and w. With `shared`, a
/// second reader of x runs its backward first, so the op adds into a
/// gradient that is already started, as pair_node_feat's in the
/// encoder.
Captured RunWeightedSegmentSum(const SegmentCase& c, int64_t d, bool fused,
                               bool shared, bool specials) {
  const auto n = static_cast<int64_t>(c.ids.size());
  const tensor::Tensor x = WeightedSumInput(n, d, specials, true, 51);
  const tensor::Tensor w = WeightedSumInput(n, 1, specials, true, 52);
  const tensor::Tensor out =
      fused ? tensor::WeightedSegmentSum(x, w, c.ids, c.segments)
            : tensor::SegmentSum(tensor::MulColumnBroadcast(x, w), c.ids,
                                 c.segments);
  tensor::Tensor loss = tensor::ReduceSum(tensor::RowwiseDot(
      out, WeightedSumInput(c.segments, d, specials, false, 53)));
  if (shared) {
    loss = tensor::Add(loss, tensor::ReduceSum(tensor::RowwiseDot(
                                 x, FixedInput(n, d, /*seed=*/54))));
  }
  loss.Backward();
  return {ValuesOf(out), GradOf(x), GradOf(w)};
}

TEST_F(TapeTest, WeightedSegmentSumBitIdenticalToComposition) {
  for (const SegmentCase& c : WeightedSumCases()) {
    for (const int64_t d : {1, 3, 5, 8, 9, 13, 64, 65}) {
      for (const bool shared : {false, true}) {
        for (const bool specials : {false, true}) {
          const std::string what =
              "WeightedSegmentSum " + c.name + " d=" + std::to_string(d) +
              (shared ? " shared" : "") + (specials ? " specials" : "");
          const Captured reference =
              RunWeightedSegmentSum(c, d, false, shared, specials);
          ExpectBitsAtThreads(
              reference,
              [&] {
                return RunWeightedSegmentSum(c, d, true, shared, specials);
              },
              what);
        }
      }
    }
  }
}

Captured RunBiasRelu(bool fused) {
  constexpr int64_t kN = 41, kD = 37;  // three 16-column chunks
  tensor::Tensor z = SeededInput(kN, kD, /*seed=*/33);
  tensor::Tensor bias = SeededInput(1, kD, /*seed=*/34);
  // z + b is exactly -0 at (0, 0); ±0 meets a nonzero bias elsewhere.
  z.data()[0] = -0.0f;
  bias.data()[0] = -0.0f;
  z.data()[1] = 0.0f;
  z.data()[kD + 2] = -0.0f;
  z.data()[7] = kNaN;
  z.data()[kD + 8] = kInf;
  z.data()[2 * kD + 8] = -kInf;
  bias.data()[3] = 0.0f;
  bias.data()[20] = kNaN;
  bias.data()[30] = kInf;
  bias.data()[31] = -kInf;
  const tensor::Tensor y =
      fused ? tensor::BiasRelu(z, bias)
            : tensor::Relu(tensor::AddRowBroadcast(z, bias));
  tensor::ReduceSum(tensor::RowwiseDot(y, IncomingGradient(kN, kD, 35)))
      .Backward();
  return {ValuesOf(y), GradOf(z), GradOf(bias)};
}

TEST_F(TapeTest, BiasReluBitIdenticalToAddRowBroadcastAndRelu) {
  const Captured reference = RunBiasRelu(/*fused=*/false);
  ExpectBitsAtThreads(reference, [] { return RunBiasRelu(true); },
                      "BiasRelu");
}

/// The MLP decoder's chain with dropout, as the model records it
/// (fused) or through the ops the fused ones replace: loss, then the
/// gradients of the table, both weights and the hidden bias.
Captured RunDecoderChain(bool fused) {
  tensor::Tensor h = SeededInput(7, 8, /*seed=*/36);
  tensor::Tensor w1 = SeededInput(16, 24, /*seed=*/37);
  tensor::Tensor b1 = SeededInput(1, 24, /*seed=*/38);
  tensor::Tensor w2 = SeededInput(24, 1, /*seed=*/39);
  core::Rng rng(17);
  const tensor::Tensor z =
      fused ? tensor::PairMatMul(h, kPairA, kPairB, w1)
            : tensor::MatMul(
                  tensor::ConcatCols(tensor::IndexSelectRows(h, kPairA),
                                     tensor::IndexSelectRows(h, kPairB)),
                  w1);
  const tensor::Tensor hidden =
      fused ? tensor::BiasRelu(z, b1)
            : tensor::Relu(tensor::AddRowBroadcast(z, b1));
  tensor::Tensor y = tensor::ReduceSum(tensor::MatMul(
      tensor::LeakyRelu(tensor::Dropout(hidden, 0.3f, true, &rng), 0.1f), w2));
  y.Backward();
  return {{y.item()}, GradOf(h), GradOf(w1), GradOf(b1), GradOf(w2)};
}

TEST_F(TapeTest, FusedChainBitIdenticalToUnfused) {
  const Captured reference = RunDecoderChain(/*fused=*/false);
  ExpectBitsAtThreads(reference, [] { return RunDecoderChain(true); },
                      "decoder chain");
}

TEST_F(TapeTest, FusionReducesKernelInvocationsAndAllocations) {
  const auto run_stats = [](bool fused) {
    tensor::ResetExecStats();
    RunDecoderChain(fused);
    return tensor::ExecStats();
  };
  const auto fused = run_stats(true);
  const auto unfused = run_stats(false);
  EXPECT_EQ(unfused.fused_groups, 0u);
  EXPECT_EQ(fused.fused_groups, 2u);  // one PairMatMul, one BiasRelu
  // Two gathers, a concat and a product become one op, a bias add and a
  // Relu one more: 4 fewer kernel launches and 4 fewer forward buffers.
  EXPECT_EQ(fused.ops_executed + 4, unfused.ops_executed);
  EXPECT_EQ(fused.buffers_allocated + 4, unfused.buffers_allocated);
}

// ---------------------------------------------------------------------------
// Gradcheck over chains through the fused ops
// ---------------------------------------------------------------------------

using FusedGradcheckTest = TapeTest;

/// Sum over rows of y's row dot with itself: a loss whose incoming
/// gradient, 2y, differs at every element.
tensor::Tensor SumOfSquares(const tensor::Tensor& y) {
  return tensor::ReduceSum(tensor::RowwiseDot(y, y));
}

TEST_F(FusedGradcheckTest, Length2Chain) {
  const tensor::Tensor bias =
      tensor::Tensor::FromVector({0.25f, -0.3f, 0.1f}, 1, 3);
  const tensor::Tensor mix = FixedInput(5, 3, /*seed=*/6);
  testing::ExpectGradMatchesNumeric(
      [] { return SeededInput(5, 3); },
      [&](const tensor::Tensor& x) {
        return tensor::ReduceSum(
            tensor::RowwiseDot(tensor::BiasRelu(x, bias), mix));
      });
}

TEST_F(FusedGradcheckTest, Length3ChainWithDropout) {
  testing::ExpectGradMatchesNumeric(
      [] { return SeededInput(4, 4); },
      [](const tensor::Tensor& x) {
        // Re-seeded per call so every finite-difference evaluation draws
        // the identical mask.
        core::Rng rng(5);
        const tensor::Tensor w = tensor::Tensor::FromVector(
            {0.9f, -0.4f, 0.3f, 1.2f, -0.7f, 0.5f, 0.2f, 0.8f, -1.1f, 0.6f,
             0.4f, -0.2f, 0.3f, 0.7f, -0.5f, 1.0f},
            8, 2);
        return tensor::ReduceSum(tensor::RowwiseDot(
            tensor::LeakyRelu(
                tensor::Dropout(tensor::PairMatMul(x, {0, 2, 2, 1, 3},
                                                   {3, 3, 0, 2, 2}, w),
                                0.25f, true, &rng),
                0.2f),
            FixedInput(5, 2, /*seed=*/7)));
      });
}

TEST_F(FusedGradcheckTest, Length4Chain) {
  const tensor::Tensor w =
      tensor::Tensor::FromVector({0.9f, -0.4f, 0.3f, 1.2f, -0.7f, 0.5f,
                                  0.2f, 0.8f, -1.1f, 0.6f, 0.4f, -0.2f},
                                 4, 3);
  const tensor::Tensor bias =
      tensor::Tensor::FromVector({0.1f, 0.2f, -0.1f}, 1, 3);
  testing::ExpectGradMatchesNumeric(
      [] { return SeededInput(6, 2); },
      [&](const tensor::Tensor& x) {
        const tensor::Tensor z =
            tensor::PairMatMul(x, {0, 1, 5, 3}, {4, 1, 2, 0}, w);
        return SumOfSquares(tensor::BiasRelu(z, bias));
      });
}

TEST_F(FusedGradcheckTest, BroadcastOpsAtChainBoundary) {
  // The bias side of BiasRelu is differentiated too; the chain around
  // it is unchanged.
  const tensor::Tensor z = tensor::Tensor::FromVector(
      {0.4f, -0.9f, 1.3f, -0.2f, 0.7f, -1.4f, 0.6f, 1.1f, -0.5f, 0.9f, -0.3f,
       0.8f},
      4, 3);
  testing::ExpectGradMatchesNumeric(
      [] {
        return tensor::Tensor::FromVector({0.3f, -0.2f, 0.5f}, 1, 3,
                                          /*requires_grad=*/true);
      },
      [&z](const tensor::Tensor& bias) {
        return SumOfSquares(tensor::BiasRelu(
            tensor::MulColumnBroadcast(z, tensor::Tensor::Full(4, 1, 1.3f)),
            bias));
      });
  const tensor::Tensor w =
      tensor::Tensor::FromVector({0.5f, -1.0f, 2.0f, 0.25f}, 4, 1);
  testing::ExpectGradMatchesNumeric(
      [] { return SeededInput(4, 3, /*seed=*/9); },
      [&w](const tensor::Tensor& x) {
        return SumOfSquares(tensor::MulColumnBroadcast(x, w));
      });
}

TEST_F(FusedGradcheckTest, SmallestShapes) {
  // Tensors cannot be empty (Tensor::Full checks rows/cols > 0), so the
  // boundary cases are a one-row table paired with itself through a
  // [2, 1] weight, and a single-element bias.
  const tensor::Tensor w = tensor::Tensor::FromVector({0.8f, -0.6f}, 2, 1);
  testing::ExpectGradMatchesNumeric(
      [] { return SeededInput(1, 1); },
      [&w](const tensor::Tensor& x) {
        return SumOfSquares(tensor::PairMatMul(x, {0}, {0}, w));
      });
  const tensor::Tensor bias = tensor::Tensor::FromVector({0.35f}, 1, 1);
  testing::ExpectGradMatchesNumeric(
      [] { return SeededInput(1, 1, /*seed=*/4); },
      [&bias](const tensor::Tensor& x) {
        return SumOfSquares(tensor::BiasRelu(x, bias));
      });
}

// ---------------------------------------------------------------------------
// A gradient with several consumers
// ---------------------------------------------------------------------------

/// x feeds MatMul(x, a), MatMul(x, b) and Relu(x). MatMul's backward
/// overwrites x's gradient when it creates it and adds into it when
/// another consumer started it first, so a lost contribution fails the
/// gradcheck. Relu's backward runs first when Relu(x) is the last
/// operand of the sum (both MatMuls add), and last when it is the first
/// (MatMul(x, b) creates the gradient, then MatMul(x, a) and Relu add).
TEST_F(TapeTest, MatMulBackwardAddsToAGradientAlreadyStarted) {
  const tensor::Tensor a = FixedInput(6, 6, 51);
  const tensor::Tensor b = FixedInput(6, 6, 52);
  const tensor::Tensor mix = FixedInput(5, 6, 54);
  const auto products = [&](const tensor::Tensor& x) {
    return tensor::Add(tensor::MatMul(x, a), tensor::MatMul(x, b));
  };
  for (const int32_t threads : {1, 4}) {
    core::SetNumThreads(threads);
    testing::ExpectGradMatchesNumeric(
        [] { return SeededInput(5, 6, 53); },
        [&](const tensor::Tensor& x) {
          return tensor::ReduceSum(tensor::RowwiseDot(
              tensor::Add(products(x), tensor::Relu(x)), mix));
        });
    testing::ExpectGradMatchesNumeric(
        [] { return SeededInput(5, 6, 53); },
        [&](const tensor::Tensor& x) {
          return tensor::ReduceSum(tensor::RowwiseDot(
              tensor::Add(tensor::Relu(x), products(x)), mix));
        });
  }
}

// ---------------------------------------------------------------------------
// Laziness semantics
// ---------------------------------------------------------------------------

TEST_F(TapeTest, PendingGraphLintsCleanAndMaterializesOnRead) {
  tensor::Tensor x = SeededInput(3, 3);
  tensor::Tensor y = tensor::MulColumnBroadcast(
      tensor::Relu(x), tensor::Tensor::Full(3, 1, 2.0f));
  // Nothing has executed yet; the pending graph must still lint clean.
  EXPECT_TRUE(tensor::GraphLint(y).clean());
  // First read executes the tape.
  const float v00 = y.At(0, 0);
  EXPECT_EQ(v00, 2.0f * std::max(x.At(0, 0), 0.0f));
  EXPECT_TRUE(tensor::GraphLint(y).clean());
}

TEST_F(TapeTest, ExternalHandleOnIntermediateKeepsItsValue) {
  tensor::Tensor x = SeededInput(8, 4);
  // `mid` is a live external handle on an intermediate: after the
  // backward pass its value is still there to read.
  tensor::Tensor mid = tensor::Relu(x);
  tensor::Tensor y = SumOfSquares(mid);
  y.Backward();
  for (int64_t i = 0; i < mid.size(); ++i) {
    const int64_t r = i / mid.cols(), c = i % mid.cols();
    EXPECT_EQ(mid.At(r, c), std::max(x.At(r, c), 0.0f)) << i;
  }
  EXPECT_TRUE(x.has_grad());
}

TEST_F(TapeTest, SpMMAndLossesRecordWithoutExecuting) {
  // Recorded over a pending input, SpMM and both losses execute nothing:
  // the input and every result stay pending until item() or Backward().
  const auto a = tensor::CsrMatrix::FromCoo(4, 3, {0, 1, 1, 3}, {2, 0, 1, 2},
                                            {0.5f, 1.0f, -2.0f, 1.5f});
  tensor::Tensor x = SeededInput(3, 2);
  tensor::ResetExecStats();
  const tensor::Tensor hidden = tensor::Relu(x);
  const tensor::Tensor product = tensor::SpMM(a, hidden);
  const tensor::Tensor bce = tensor::BceWithLogitsLoss(
      tensor::MatMul(product, FixedInput(2, 1, /*seed=*/8)),
      {1.0f, 0.0f, 0.0f, 1.0f});
  tensor::Tensor ce = tensor::SoftmaxCrossEntropyLoss(product, {1, 0, 1, 1});
  EXPECT_EQ(tensor::ExecStats().ops_executed, 0u);
  for (const auto& node :
       {hidden.impl(), product.impl(), bce.impl(), ce.impl()}) {
    EXPECT_FALSE(node->materialized) << node->op;
  }
  (void)bce.item();  // Relu, SpMM, MatMul and the BCE loss
  EXPECT_EQ(tensor::ExecStats().ops_executed, 4u);
  EXPECT_TRUE(product.impl()->materialized);
  EXPECT_FALSE(ce.impl()->materialized);
  ce.Backward();
  EXPECT_EQ(tensor::ExecStats().ops_executed, 5u);
  EXPECT_TRUE(ce.impl()->materialized);
  EXPECT_TRUE(x.has_grad());
}

TEST_F(TapeTest, InferenceForwardLeavesPlainValueNodes) {
  tensor::Tensor x = SeededInput(4, 4);
  tensor::InferenceModeScope inference;
  tensor::Tensor y = tensor::LeakyRelu(tensor::Relu(x), 0.2f);
  (void)y.At(0, 0);  // materialize
  // After execution the no-grad nodes drop parents and tape records:
  // serving allocates no graph.
  const auto report = tensor::GraphLint(y);
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_EQ(report.nodes_visited, 1);
}

// ---------------------------------------------------------------------------
// obs attribution of the fused ops
// ---------------------------------------------------------------------------

TEST_F(TapeTest, FusedGroupsAppearInOpTimeAttribution) {
  obs::ResetOpTimes();
  obs::SetKernelTimingEnabled(true);
  RunDecoderChain(/*fused=*/true);
  obs::SetKernelTimingEnabled(false);
  const auto snapshot = obs::OpTimeSnapshot();
  for (const std::string op : {"PairMatMul", "BiasRelu"}) {
    const auto entry =
        std::find_if(snapshot.begin(), snapshot.end(),
                     [&op](const obs::OpTimeEntry& e) { return e.op == op; });
    ASSERT_NE(entry, snapshot.end()) << op << " not in the attribution table";
    EXPECT_EQ(entry->forward_calls, 1u) << op;
    EXPECT_EQ(entry->backward_calls, 1u) << op;
  }
  obs::ResetOpTimes();
}

// ---------------------------------------------------------------------------
// End-to-end: training is memcmp-identical at any thread count
// ---------------------------------------------------------------------------

struct TrainArtifacts {
  std::vector<float> losses;
  std::string weight_bytes;
};

TrainArtifacts TrainOnce(int32_t threads) {
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

  TrainArtifacts artifacts;
  artifacts.losses = trainer.epoch_losses();
  std::vector<std::pair<std::string, tensor::Tensor>> named;
  int index = 0;
  for (const auto& p : model.Parameters()) {
    named.emplace_back("p" + std::to_string(index++), p);
  }
  std::ostringstream bytes;
  EXPECT_TRUE(tensor::SaveTensorsToStream(named, bytes).ok());
  artifacts.weight_bytes = bytes.str();
  core::SetNumThreads(1);
  return artifacts;
}

TEST_F(TapeTest, TrainingBitIdenticalAcrossThreadCounts) {
  const TrainArtifacts reference = TrainOnce(/*threads=*/1);
  ASSERT_EQ(reference.losses.size(), 8u);
  ASSERT_FALSE(reference.weight_bytes.empty());
  const TrainArtifacts run = TrainOnce(/*threads=*/4);
  ASSERT_EQ(run.losses.size(), reference.losses.size());
  EXPECT_EQ(std::memcmp(run.losses.data(), reference.losses.data(),
                        run.losses.size() * sizeof(float)),
            0)
      << "epoch losses diverged at 4 threads";
  ASSERT_EQ(run.weight_bytes.size(), reference.weight_bytes.size());
  EXPECT_EQ(std::memcmp(run.weight_bytes.data(), reference.weight_bytes.data(),
                        run.weight_bytes.size()),
            0)
      << "trained weight bytes diverged at 4 threads";
}

// ---------------------------------------------------------------------------
// Buffer recycler (~TensorImpl holds storage of at least 32 MiB)
// ---------------------------------------------------------------------------

/// [65,536 x 128] floats is exactly the 32 MiB floor.
constexpr int64_t kFloorRows = 65536;
constexpr int64_t kCols = 128;
constexpr uint64_t kFloorBytes = uint64_t{32} << 20;

/// A bare node whose data comes from tensor::AssignZeros, as a tape
/// output's does; dropping it hands the storage to the recycler.
std::shared_ptr<tensor::TensorImpl> ZeroedNode(int64_t rows) {
  auto node = std::make_shared<tensor::TensorImpl>();
  node->rows = rows;
  node->cols = kCols;
  tensor::AssignZeros(node.get());
  return node;
}

class BufferRecyclerTest : public TapeTest {
 protected:
  void SetUp() override {
    tensor::ReleaseHeldBuffers();
    tensor::ResetExecStats();
  }
  void TearDown() override {
    tensor::ReleaseHeldBuffers();
    TapeTest::TearDown();
  }
};

/// Loss, output and gradients of sum(relu(x)) over a 32 MiB x.
struct FloorPass {
  float loss = 0.0f;
  std::vector<float> y, y_grad, x_grad;
};

/// Runs the pass, copies its results, then overwrites the output and
/// both gradients with NaN before they are dropped, so storage the
/// next pass recycles arrives dirty unless the recycler zero-fills it.
FloorPass RunFloorPass() {
  tensor::Tensor x = SeededInput(kFloorRows, kCols);
  tensor::Tensor y = tensor::Relu(x);
  tensor::Tensor loss = tensor::ReduceSum(y);
  loss.Backward();
  FloorPass pass;
  pass.loss = loss.item();
  const auto n = static_cast<size_t>(y.size());
  pass.y.assign(y.data(), y.data() + n);
  pass.y_grad.assign(y.grad(), y.grad() + n);
  pass.x_grad.assign(x.grad(), x.grad() + n);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::fill(y.data(), y.data() + n, nan);
  std::fill(y.grad(), y.grad() + n, nan);
  std::fill(x.grad(), x.grad() + n, nan);
  return pass;
}

TEST_F(BufferRecyclerTest, ReusedStorageKeepsEveryBit) {
  const FloorPass first = RunFloorPass();
  // y's data and both gradients are held now; x's data is a caller's
  // vector and was freed.
  EXPECT_EQ(tensor::ExecStats().bytes_held, 3 * kFloorBytes);
  EXPECT_EQ(tensor::ExecStats().buffers_recycled, 0u);
  const FloorPass second = RunFloorPass();
  // y's output, y's gradient and x's gradient came from held storage.
  EXPECT_EQ(tensor::ExecStats().buffers_recycled, 3u);
  EXPECT_EQ(std::memcmp(&first.loss, &second.loss, sizeof(float)), 0);
  EXPECT_TRUE(SameBits(first.y, second.y));
  EXPECT_TRUE(SameBits(first.y_grad, second.y_grad));
  EXPECT_TRUE(SameBits(first.x_grad, second.x_grad));
}

/// The live tensors of one RunDecoderFloorPass.
struct DecoderFloorPass {
  tensor::Tensor loss;
  std::vector<tensor::Tensor> outputs;  // z, h, scores, y
  std::vector<tensor::Tensor> leaves;   // table, w1, b1, w2
};

/// The MLP decoder's chain at the floor: PairMatMul of kFloorRows pairs
/// of a 64-wide table by [128 x 128], whose [65,536 x 128] output z is
/// exactly 32 MiB, BiasRelu, MatMul by [128 x 1], then
/// MulColumnBroadcast of z by those scores, an accumulating kind on a
/// floor-sized buffer, and ReduceSum, forward and backward.
/// MulColumnBroadcast starts z's gradient and BiasRelu adds to it; the
/// second MatMul creates the hidden layer's gradient by overwriting it,
/// as it does in the decoder.
DecoderFloorPass RunDecoderFloorPass() {
  constexpr int64_t kTableRows = 97;
  std::vector<int32_t> a(static_cast<size_t>(kFloorRows));
  std::vector<int32_t> b(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<int32_t>(i % kTableRows);
    b[i] = static_cast<int32_t>((i * 31 + 7) % kTableRows);
  }
  DecoderFloorPass pass;
  pass.leaves = {SeededInput(kTableRows, kCols / 2, /*seed=*/41),
                 SeededInput(kCols, kCols, /*seed=*/42),
                 SeededInput(1, kCols, /*seed=*/43),
                 SeededInput(kCols, 1, /*seed=*/44)};
  const tensor::Tensor z =
      tensor::PairMatMul(pass.leaves[0], a, b, pass.leaves[1]);
  const tensor::Tensor h = tensor::BiasRelu(z, pass.leaves[2]);
  const tensor::Tensor scores = tensor::MatMul(h, pass.leaves[3]);
  const tensor::Tensor y = tensor::MulColumnBroadcast(z, scores);
  pass.outputs = {z, h, scores, y};
  pass.loss = tensor::ReduceSum(y);
  pass.loss.Backward();
  return pass;
}

/// Every output's values, then every output's and leaf's gradient.
std::vector<const std::vector<float>*> Results(const DecoderFloorPass& pass) {
  std::vector<const std::vector<float>*> results;
  for (const auto& t : pass.outputs) results.push_back(&t.impl()->data);
  for (const auto& t : pass.outputs) results.push_back(&t.impl()->grad);
  for (const auto& t : pass.leaves) results.push_back(&t.impl()->grad);
  return results;
}

/// Overwrites every output and gradient with NaN, as RunFloorPass does,
/// so storage the next pass recycles arrives dirty.
void Poison(DecoderFloorPass* pass) {
  for (tensor::Tensor& t : pass->outputs) {
    std::fill(t.data(), t.data() + t.size(), kNaN);
    std::fill(t.grad(), t.grad() + t.size(), kNaN);
  }
}

TEST_F(BufferRecyclerTest, DecoderPassOnDirtyStorageKeepsEveryBit) {
  // z, h and y, and their three gradients, are floor-sized.
  constexpr uint64_t kFloorBuffers = 6;
  float fresh_loss = 0.0f;
  Captured fresh;
  {
    DecoderFloorPass pass = RunDecoderFloorPass();
    EXPECT_EQ(tensor::ExecStats().buffers_recycled, 0u);
    fresh_loss = pass.loss.item();
    for (const std::vector<float>* result : Results(pass)) {
      fresh.push_back(*result);
    }
    Poison(&pass);
  }
  EXPECT_EQ(tensor::ExecStats().bytes_held, kFloorBuffers * kFloorBytes);
  // A kernel that read storage it had not written would meet NaN, in
  // DCHECK builds even on fresh storage.
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_TRUE(std::all_of(fresh[i].begin(), fresh[i].end(),
                            [](float v) { return std::isfinite(v); }))
        << "buffer " << i;
  }
  for (const int32_t threads : {1, 4}) {
    tensor::ResetExecStats();
    core::SetNumThreads(threads);
    DecoderFloorPass pass = RunDecoderFloorPass();
    core::SetNumThreads(1);
    EXPECT_EQ(tensor::ExecStats().buffers_recycled, kFloorBuffers)
        << threads << " threads";
    const float loss = pass.loss.item();
    EXPECT_EQ(std::memcmp(&fresh_loss, &loss, sizeof(float)), 0)
        << threads << " threads";
    const auto results = Results(pass);
    ASSERT_EQ(results.size(), fresh.size());
    for (size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_TRUE(SameBits(fresh[i], *results[i]))
          << "buffer " << i << " differs at " << threads << " threads";
    }
    Poison(&pass);
  }
}

TEST_F(BufferRecyclerTest, RepeatedPassesHoldOnePassOfStorage) {
  // Each pass builds a new 32 MiB leaf from a vector; were the leaf's
  // storage held too, every pass would leave one more buffer behind.
  for (int32_t pass = 0; pass < 5; ++pass) {
    RunFloorPass();
    EXPECT_EQ(tensor::ExecStats().bytes_held, 3 * kFloorBytes)
        << "after pass " << pass;
  }
  EXPECT_EQ(tensor::ExecStats().buffers_recycled, 4 * 3u);
}

TEST_F(BufferRecyclerTest, HoldsOnlyStorageItHandedOut) {
  const auto large = [] {
    return std::vector<float>(static_cast<size_t>(kFloorRows * kCols), 1.0f);
  };
  tensor::Tensor::FromVector(large(), kFloorRows, kCols);
  tensor::Tensor::Full(kFloorRows, kCols, 0.0f);
  EXPECT_EQ(tensor::ExecStats().bytes_held, 0u);

  tensor::Tensor zeros = tensor::Tensor::Zeros(kFloorRows, kCols);
  std::fill(zeros.data(), zeros.data() + zeros.size(), 2.0f);
  // A copy's storage was never handed out, so it is freed.
  zeros.Detach();
  EXPECT_EQ(tensor::ExecStats().bytes_held, 0u);
  zeros = tensor::Tensor();
  EXPECT_EQ(tensor::ExecStats().bytes_held, kFloorBytes);

  const tensor::Tensor again = tensor::Tensor::Zeros(kFloorRows, kCols);
  EXPECT_EQ(tensor::ExecStats().buffers_recycled, 1u);
  EXPECT_EQ(tensor::ExecStats().bytes_held, 0u);
  EXPECT_TRUE(std::all_of(again.data(), again.data() + again.size(),
                          [](float v) { return v == 0.0f; }));
}

TEST_F(BufferRecyclerTest, HoldsOnlyBuffersOfAtLeast32MiB) {
  ZeroedNode(kFloorRows - 1);  // one row short of the floor
  EXPECT_EQ(tensor::ExecStats().bytes_held, 0u);
  ZeroedNode(kFloorRows);
  EXPECT_EQ(tensor::ExecStats().bytes_held, kFloorBytes);
}

TEST_F(BufferRecyclerTest, MissFreesEverythingHeld) {
  ZeroedNode(kFloorRows);
  ASSERT_EQ(tensor::ExecStats().bytes_held, kFloorBytes);
  {
    const auto other = ZeroedNode(kFloorRows + 1);
    EXPECT_EQ(tensor::ExecStats().bytes_held, 0u);
    EXPECT_EQ(tensor::ExecStats().buffers_recycled, 0u);
  }
  EXPECT_EQ(tensor::ExecStats().bytes_held,
            static_cast<uint64_t>((kFloorRows + 1) * kCols) * sizeof(float));
}

TEST_F(BufferRecyclerTest, TryFitReturnsWithNothingHeld) {
  ZeroedNode(kFloorRows);
  ASSERT_EQ(tensor::ExecStats().bytes_held, kFloorBytes);
  const TrainArtifacts run = TrainOnce(/*threads=*/1);
  EXPECT_FALSE(run.losses.empty());
  EXPECT_EQ(tensor::ExecStats().bytes_held, 0u);
}

TEST_F(BufferRecyclerTest, ConcurrentDropsAndRecreationsArriveZeroFilled) {
  // Two chunks on the pool, each dropping and re-creating a tensor of
  // its own length: hits, misses and the frees a miss triggers race
  // with the other chunk's drops.
  core::SetNumThreads(4);
  std::atomic<int32_t> dirty{0};
  core::ParallelFor(0, 2, 1, [&](int64_t begin, int64_t) {
    const int64_t rows = kFloorRows + begin;
    for (int32_t round = 0; round < 6; ++round) {
      const auto node = ZeroedNode(rows);
      std::vector<float>& values = node->data;
      if (std::any_of(values.begin(), values.end(),
                      [](float v) { return v != 0.0f; })) {
        dirty.fetch_add(1);
      }
      std::fill(values.begin(), values.end(),
                std::numeric_limits<float>::quiet_NaN());
    }
  });
  EXPECT_EQ(dirty.load(), 0);
}

}  // namespace
}  // namespace hygnn
