// Tape tests: (1) the fused ops PairConcat and BiasRelu are
// bit-identical to the compositions they replace — values and every
// gradient, with duplicate indices, ±0, NaN and ±inf — alone and inside
// the MLP decoder's chain, at 1, 2 and 4 threads; (2) full training runs
// are bit-identical at 1 and 4 threads, losses AND trained weight bytes;
// (3) gradcheck passes over chains through the fused ops; (4) the fused
// ops save kernel invocations and buffers (ExecStats) and appear by name
// in the obs attribution table; (5) laziness semantics: pending graphs
// lint clean, and an intermediate's value stays readable; (6) the buffer
// recycler: reused storage keeps every result bit, only buffers of at
// least 32 MiB are held, a miss or a TryFit return frees what is held,
// and concurrent drops and re-creations arrive zero-filled.

#include "tensor/tape.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
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
#include "obs/optime.h"
#include "tensor/debug.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
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

/// Incoming gradient for y: loss = sum(y ⊙ g), so y's gradient is g.
/// Holds NaN, ±inf and ±0, and magnitudes far apart, so a sum over a
/// column or a source row rounds differently in another order.
tensor::Tensor IncomingGradient(int64_t rows, int64_t cols, uint64_t seed) {
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

Captured RunPairConcat(bool fused) {
  tensor::Tensor h = SeededInput(7, 21, /*seed=*/31);
  h.data()[3] = -0.0f;
  h.data()[22] = kNaN;
  h.data()[40] = -kInf;
  const tensor::Tensor y =
      fused ? tensor::PairConcat(h, kPairA, kPairB)
            : tensor::ConcatCols(tensor::IndexSelectRows(h, kPairA),
                                 tensor::IndexSelectRows(h, kPairB));
  const auto n = static_cast<int64_t>(kPairA.size());
  tensor::ReduceSum(tensor::Mul(y, IncomingGradient(n, 42, 32))).Backward();
  return {ValuesOf(y), GradOf(h)};
}

TEST_F(TapeTest, PairConcatBitIdenticalToGatherAndConcat) {
  const Captured reference = RunPairConcat(/*fused=*/false);
  ExpectBitsAtThreads(reference, [] { return RunPairConcat(true); },
                      "PairConcat");
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
  tensor::ReduceSum(tensor::Mul(y, IncomingGradient(kN, kD, 35))).Backward();
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
  const tensor::Tensor input =
      fused ? tensor::PairConcat(h, kPairA, kPairB)
            : tensor::ConcatCols(tensor::IndexSelectRows(h, kPairA),
                                 tensor::IndexSelectRows(h, kPairB));
  const tensor::Tensor z = tensor::MatMul(input, w1);
  const tensor::Tensor hidden =
      fused ? tensor::BiasRelu(z, b1)
            : tensor::Relu(tensor::AddRowBroadcast(z, b1));
  tensor::Tensor y = tensor::ReduceMean(tensor::MatMul(
      tensor::Scale(
          tensor::LeakyRelu(tensor::Dropout(hidden, 0.3f, true, &rng), 0.1f),
          0.5f),
      w2));
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
  EXPECT_EQ(fused.fused_groups, 2u);  // one PairConcat, one BiasRelu
  // Two gathers and a concat become one op, a bias add and a Relu one
  // more: 3 fewer kernel launches and 3 fewer forward buffers.
  EXPECT_EQ(fused.ops_executed + 3, unfused.ops_executed);
  EXPECT_EQ(fused.buffers_allocated + 3, unfused.buffers_allocated);
}

// ---------------------------------------------------------------------------
// Gradcheck over chains through the fused ops
// ---------------------------------------------------------------------------

using FusedGradcheckTest = TapeTest;

TEST_F(FusedGradcheckTest, Length2Chain) {
  const tensor::Tensor bias =
      tensor::Tensor::FromVector({0.25f, -0.3f, 0.1f}, 1, 3);
  testing::ExpectGradMatchesNumeric(
      [] { return SeededInput(5, 3); },
      [&bias](const tensor::Tensor& x) {
        return tensor::ReduceMean(
            tensor::Scale(tensor::BiasRelu(x, bias), 0.5f));
      });
}

TEST_F(FusedGradcheckTest, Length3ChainWithDropout) {
  testing::ExpectGradMatchesNumeric(
      [] { return SeededInput(4, 4); },
      [](const tensor::Tensor& x) {
        // Re-seeded per call so every finite-difference evaluation draws
        // the identical mask.
        core::Rng rng(5);
        return tensor::ReduceMean(tensor::Scale(
            tensor::LeakyRelu(
                tensor::Dropout(tensor::PairConcat(x, {0, 2, 2, 1, 3},
                                                   {3, 3, 0, 2, 2}),
                                0.25f, true, &rng),
                0.2f),
            0.7f));
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
        const tensor::Tensor pairs =
            tensor::PairConcat(x, {0, 1, 5, 3}, {4, 1, 2, 0});
        return tensor::ReduceMean(tensor::Scale(
            tensor::Sigmoid(tensor::BiasRelu(tensor::MatMul(pairs, w), bias)),
            0.7f));
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
        return tensor::ReduceMean(
            tensor::Sigmoid(tensor::BiasRelu(tensor::Scale(z, 1.3f), bias)));
      });
  const tensor::Tensor w =
      tensor::Tensor::FromVector({0.5f, -1.0f, 2.0f, 0.25f}, 4, 1);
  testing::ExpectGradMatchesNumeric(
      [] { return SeededInput(4, 3, /*seed=*/9); },
      [&w](const tensor::Tensor& x) {
        return tensor::ReduceMean(
            tensor::Tanh(tensor::MulColumnBroadcast(x, w)));
      });
}

TEST_F(FusedGradcheckTest, SmallestShapes) {
  // Tensors cannot be empty (Tensor::Full checks rows/cols > 0), so the
  // boundary cases are a one-row table paired with itself and a
  // single-element bias.
  testing::ExpectGradMatchesNumeric(
      [] { return SeededInput(1, 1); },
      [](const tensor::Tensor& x) {
        return tensor::ReduceMean(
            tensor::Scale(tensor::Tanh(tensor::PairConcat(x, {0}, {0})),
                          2.0f));
      });
  const tensor::Tensor bias = tensor::Tensor::FromVector({0.35f}, 1, 1);
  testing::ExpectGradMatchesNumeric(
      [] { return SeededInput(1, 1, /*seed=*/4); },
      [&bias](const tensor::Tensor& x) {
        return tensor::ReduceMean(
            tensor::Sigmoid(tensor::BiasRelu(x, bias)));
      });
}

// ---------------------------------------------------------------------------
// Laziness semantics
// ---------------------------------------------------------------------------

TEST_F(TapeTest, PendingGraphLintsCleanAndMaterializesOnRead) {
  tensor::Tensor x = SeededInput(3, 3);
  tensor::Tensor y = tensor::Scale(tensor::Relu(x), 2.0f);
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
  tensor::Tensor y = tensor::ReduceMean(tensor::Scale(mid, 3.0f));
  y.Backward();
  for (int64_t i = 0; i < mid.size(); ++i) {
    const int64_t r = i / mid.cols(), c = i % mid.cols();
    EXPECT_EQ(mid.At(r, c), std::max(x.At(r, c), 0.0f)) << i;
  }
  EXPECT_TRUE(x.has_grad());
}

TEST_F(TapeTest, InferenceForwardLeavesPlainValueNodes) {
  tensor::Tensor x = SeededInput(4, 4);
  tensor::InferenceModeScope inference;
  tensor::Tensor y = tensor::Scale(tensor::Sigmoid(x), 2.0f);
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
  for (const std::string op : {"PairConcat", "BiasRelu"}) {
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
