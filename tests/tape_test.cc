// Tape + fusion tests: (1) fused and unfused execution are bit-identical
// — single chains, full training runs (losses AND trained weight bytes)
// at 1 and 4 threads; (2) gradcheck passes over fused chains of length
// 2-4, including broadcast ops at chain boundaries and smallest shapes;
// (3) the fusion pass actually reduces kernel invocations and buffer
// allocations (ExecStats); (4) the obs attribution table names fused
// groups by their constituent ops; (5) laziness semantics: pending
// graphs lint clean, and an external handle on an intermediate breaks
// fusion for that link without changing results; (6) the buffer
// recycler: reused storage keeps every result bit, only buffers of at
// least 32 MiB are held, a miss or a TryFit return frees what is held,
// and concurrent drops and re-creations arrive zero-filled.

#include "tensor/tape.h"

#include <algorithm>
#include <atomic>
#include <cstring>
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

/// Every test leaves the process-wide fusion flag the way the trainer
/// default would: enabled.
class TapeTest : public ::testing::Test {
 protected:
  void TearDown() override {
    tensor::SetFusionEnabled(true);
    core::SetNumThreads(1);
  }
};

tensor::Tensor SeededInput(int64_t rows, int64_t cols, uint64_t seed = 3) {
  core::Rng rng(seed);
  std::vector<float> values(static_cast<size_t>(rows * cols));
  for (auto& v : values) v = rng.UniformFloat() * 2.0f - 1.0f;
  return tensor::Tensor::FromVector(std::move(values), rows, cols,
                                    /*requires_grad=*/true);
}

/// Runs dropout -> activation -> scale -> mean, backward included, and
/// captures the loss value and input gradient.
std::pair<float, std::vector<float>> RunChain(bool fuse, int32_t threads) {
  core::SetNumThreads(threads);
  tensor::SetFusionEnabled(fuse);
  tensor::Tensor x = SeededInput(37, 8);
  core::Rng rng(17);
  tensor::Tensor y = tensor::ReduceMean(tensor::Scale(
      tensor::LeakyRelu(tensor::Dropout(x, 0.3f, /*training=*/true, &rng),
                        0.1f),
      0.5f));
  y.Backward();
  return {y.item(), std::vector<float>(x.grad(), x.grad() + x.size())};
}

TEST_F(TapeTest, FusedChainBitIdenticalToUnfused) {
  const auto unfused = RunChain(false, 1);
  for (const bool fuse : {true, false}) {
    for (const int32_t threads : {1, 4}) {
      const auto run = RunChain(fuse, threads);
      EXPECT_EQ(std::memcmp(&run.first, &unfused.first, sizeof(float)), 0)
          << "loss, fuse=" << fuse << " threads=" << threads;
      ASSERT_EQ(run.second.size(), unfused.second.size());
      EXPECT_EQ(std::memcmp(run.second.data(), unfused.second.data(),
                            run.second.size() * sizeof(float)),
                0)
          << "grad, fuse=" << fuse << " threads=" << threads;
    }
  }
}

TEST_F(TapeTest, FusionReducesKernelInvocationsAndAllocations) {
  const auto run_stats = [](bool fuse) {
    tensor::SetFusionEnabled(fuse);
    tensor::ResetExecStats();
    tensor::Tensor x = SeededInput(64, 16);
    tensor::Tensor y = tensor::ReduceMean(
        tensor::Scale(tensor::Sigmoid(tensor::LeakyRelu(x, 0.1f)), 0.5f));
    y.Backward();
    return tensor::ExecStats();
  };
  const auto fused = run_stats(true);
  const auto unfused = run_stats(false);
  EXPECT_EQ(unfused.fused_groups, 0u);
  EXPECT_GE(fused.fused_groups, 1u);
  // LeakyRelu|Sigmoid|Scale collapse into one invocation: 2 fewer
  // kernel launches and 2 fewer intermediate buffers.
  EXPECT_LT(fused.ops_executed, unfused.ops_executed);
  EXPECT_LT(fused.buffers_allocated, unfused.buffers_allocated);
}

// ---------------------------------------------------------------------------
// Gradcheck over fused chains
// ---------------------------------------------------------------------------

class FusedGradcheckTest : public TapeTest {
 protected:
  void SetUp() override { tensor::SetFusionEnabled(true); }
};

TEST_F(FusedGradcheckTest, Length2Chain) {
  testing::ExpectGradMatchesNumeric(
      [] { return SeededInput(5, 3); },
      [](const tensor::Tensor& x) {
        return tensor::ReduceMean(tensor::Scale(tensor::Relu(x), 0.5f));
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
            tensor::LeakyRelu(tensor::Dropout(x, 0.25f, true, &rng), 0.2f),
            0.7f));
      });
}

TEST_F(FusedGradcheckTest, Length4Chain) {
  testing::ExpectGradMatchesNumeric(
      [] { return SeededInput(6, 2); },
      [](const tensor::Tensor& x) {
        return tensor::ReduceMean(tensor::Scale(
            tensor::Sigmoid(tensor::LeakyRelu(tensor::Scale(x, 1.1f), 0.1f)),
            0.7f));
      });
}

TEST_F(FusedGradcheckTest, BroadcastOpsAtChainBoundary) {
  // AddRowBroadcast / MulColumnBroadcast fuse only when the broadcast
  // side needs no grad; the chain still differentiates through x.
  const tensor::Tensor bias =
      tensor::Tensor::FromVector({0.3f, -0.2f, 0.5f}, 1, 3);
  testing::ExpectGradMatchesNumeric(
      [] { return SeededInput(4, 3); },
      [&bias](const tensor::Tensor& x) {
        return tensor::ReduceMean(
            tensor::Sigmoid(tensor::AddRowBroadcast(tensor::Scale(x, 1.3f),
                                                    bias)));
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
  // boundary cases are single-element and single-row chains.
  testing::ExpectGradMatchesNumeric(
      [] { return SeededInput(1, 1); },
      [](const tensor::Tensor& x) {
        return tensor::ReduceMean(tensor::Scale(tensor::Tanh(x), 2.0f));
      });
  testing::ExpectGradMatchesNumeric(
      [] { return SeededInput(1, 8); },
      [](const tensor::Tensor& x) {
        return tensor::ReduceMean(
            tensor::Sigmoid(tensor::Scale(tensor::Relu(x), 0.9f)));
      });
}

// ---------------------------------------------------------------------------
// Laziness semantics
// ---------------------------------------------------------------------------

TEST_F(TapeTest, PendingGraphLintsCleanAndMaterializesOnRead) {
  tensor::SetFusionEnabled(true);
  tensor::Tensor x = SeededInput(3, 3);
  tensor::Tensor y = tensor::Scale(tensor::Relu(x), 2.0f);
  // Nothing has executed yet; the pending graph must still lint clean.
  EXPECT_TRUE(tensor::GraphLint(y).clean());
  // First read executes the tape.
  const float v00 = y.At(0, 0);
  EXPECT_EQ(v00, 2.0f * std::max(x.At(0, 0), 0.0f));
  EXPECT_TRUE(tensor::GraphLint(y).clean());
}

TEST_F(TapeTest, ExternalHandleOnIntermediateBreaksFusionNotResults) {
  tensor::SetFusionEnabled(true);
  tensor::Tensor x = SeededInput(8, 4);
  // `mid` is a live external handle: its use_count > 1 makes it
  // ineligible as a fused interior, so its value stays observable.
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
  tensor::SetFusionEnabled(true);
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
// obs attribution of fused groups
// ---------------------------------------------------------------------------

TEST_F(TapeTest, FusedGroupsAppearInOpTimeAttribution) {
  tensor::SetFusionEnabled(true);
  obs::ResetOpTimes();
  obs::SetKernelTimingEnabled(true);
  tensor::Tensor x = SeededInput(32, 8);
  tensor::Tensor y = tensor::ReduceMean(
      tensor::Scale(tensor::Sigmoid(tensor::LeakyRelu(x, 0.1f)), 0.5f));
  y.Backward();
  obs::SetKernelTimingEnabled(false);
  const auto snapshot = obs::OpTimeSnapshot();
  bool found = false;
  for (const auto& entry : snapshot) {
    if (entry.op == "Fused[LeakyRelu|Sigmoid|Scale]") {
      found = true;
      EXPECT_EQ(entry.forward_calls, 1u);
      EXPECT_EQ(entry.backward_calls, 1u);
    }
  }
  EXPECT_TRUE(found) << "no fused group in the attribution table";
  obs::ResetOpTimes();
}

// ---------------------------------------------------------------------------
// End-to-end: fused and unfused training are memcmp-identical
// ---------------------------------------------------------------------------

struct TrainArtifacts {
  std::vector<float> losses;
  std::string weight_bytes;
};

TrainArtifacts TrainOnce(bool fuse, int32_t threads) {
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
  train_config.fuse = fuse;
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

TEST_F(TapeTest, TrainingBitIdenticalWithFusionOnOrOff) {
  const TrainArtifacts reference = TrainOnce(/*fuse=*/false, /*threads=*/1);
  ASSERT_EQ(reference.losses.size(), 8u);
  ASSERT_FALSE(reference.weight_bytes.empty());
  const struct {
    bool fuse;
    int32_t threads;
  } variants[] = {{true, 1}, {true, 4}, {false, 4}};
  for (const auto& variant : variants) {
    const TrainArtifacts run = TrainOnce(variant.fuse, variant.threads);
    ASSERT_EQ(run.losses.size(), reference.losses.size());
    EXPECT_EQ(std::memcmp(run.losses.data(), reference.losses.data(),
                          run.losses.size() * sizeof(float)),
              0)
        << "epoch losses diverged, fuse=" << variant.fuse
        << " threads=" << variant.threads;
    ASSERT_EQ(run.weight_bytes.size(), reference.weight_bytes.size());
    EXPECT_EQ(std::memcmp(run.weight_bytes.data(),
                          reference.weight_bytes.data(),
                          run.weight_bytes.size()),
              0)
        << "trained weight bytes diverged, fuse=" << variant.fuse
        << " threads=" << variant.threads;
  }
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

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
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
  const TrainArtifacts run = TrainOnce(/*fuse=*/true, /*threads=*/1);
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
