// Micro harness for the substrate operations that dominate HyGNN
// training: dense matmul, sparse-dense SpMM, the segment attention
// primitives, ESPF mining/segmentation, hypergraph construction, and
// random-walk generation.
//
// Default run: a thread-scaling sweep over the parallelized kernels
// (the MLP decoder's dense products at the paper's training and serving
// shapes, SegmentSoftmax, SegmentSum, IndexSelectRows, Relu) at 1, 2,
// and 4 threads, verifying bit-identical outputs against the 1-thread
// reference, counting minor page faults and recycled tensor buffers
// per iteration, and writing machine-readable JSON to BENCH_micro_ops.json
// (override with --json_out=PATH), followed by the decoder-glue rows:
// PairConcat and BiasRelu, forward and backward at the paper's
// 136,241 x 64 training shape, each timed against the op composition it
// replaces (two IndexSelectRows and a ConcatCols; AddRowBroadcast and
// Relu) and checked bit for bit against it. Exits 1 on any mismatch.
// Pass --gbench to additionally run the google-benchmark suite below
// (plus any --benchmark_* flags).

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "chem/espf.h"
#include "chem/generator.h"
#include "core/rng.h"
#include "core/stopwatch.h"
#include "core/thread_pool.h"
#include "data/featurize.h"
#include "data/generator.h"
#include "graph/builders.h"
#include "graph/random_walk.h"
#include "hygnn/encoder.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"
#include "tensor/tape.h"
#include "tensor/tensor.h"

namespace hygnn {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  core::Rng rng(1);
  tensor::Tensor a = tensor::NormalInit(n, n, 1.0f, &rng, false);
  tensor::Tensor b = tensor::NormalInit(n, n, 1.0f, &rng, false);
  for (auto _ : state) {
    // data() forces the lazy tape to execute; without it the loop would
    // only measure op recording.
    benchmark::DoNotOptimize(tensor::MatMul(a, b).data()[0]);
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_SpMM(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t nnz_per_row = 16;
  core::Rng rng(2);
  std::vector<int32_t> rows, cols;
  std::vector<float> vals;
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t k = 0; k < nnz_per_row; ++k) {
      rows.push_back(static_cast<int32_t>(r));
      cols.push_back(static_cast<int32_t>(rng.UniformInt(n)));
      vals.push_back(1.0f);
    }
  }
  auto a = tensor::CsrMatrix::FromCoo(n, n, rows, cols, vals);
  tensor::Tensor x = tensor::NormalInit(n, 64, 1.0f, &rng, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::SpMM(a, x));
  }
  state.SetItemsProcessed(state.iterations() * a->nnz() * 64);
}
BENCHMARK(BM_SpMM)->Arg(1024)->Arg(4096);

void BM_SegmentSoftmaxSum(benchmark::State& state) {
  const int64_t pairs = state.range(0);
  const int64_t segments = pairs / 16;
  core::Rng rng(3);
  std::vector<int32_t> segment_ids(pairs);
  for (auto& s : segment_ids) {
    s = static_cast<int32_t>(rng.UniformInt(segments));
  }
  tensor::Tensor scores = tensor::NormalInit(pairs, 1, 1.0f, &rng, false);
  tensor::Tensor values = tensor::NormalInit(pairs, 64, 1.0f, &rng, false);
  for (auto _ : state) {
    tensor::Tensor alpha =
        tensor::SegmentSoftmax(scores, segment_ids, segments);
    tensor::Tensor pooled = tensor::SegmentSum(
        tensor::MulColumnBroadcast(values, alpha), segment_ids, segments);
    benchmark::DoNotOptimize(pooled.data()[0]);  // materialize the tape
  }
  state.SetItemsProcessed(state.iterations() * pairs * 64);
}
BENCHMARK(BM_SegmentSoftmaxSum)->Arg(1 << 12)->Arg(1 << 16);

void BM_HyGnnEncoderForward(benchmark::State& state) {
  const int32_t num_drugs = static_cast<int32_t>(state.range(0));
  data::DatasetConfig data_config;
  data_config.num_drugs = num_drugs;
  auto dataset = data::GenerateDataset(data_config).value();
  data::FeaturizeConfig feat_config;
  feat_config.espf_frequency_threshold = 3;
  auto featurizer =
      data::SubstructureFeaturizer::Build(dataset.drugs(), feat_config)
          .value();
  auto hypergraph = graph::BuildDrugHypergraph(
      featurizer.drug_substructures(), featurizer.num_substructures());
  auto context = model::HypergraphContext::FromHypergraph(hypergraph);
  core::Rng rng(4);
  model::EncoderConfig encoder_config;
  model::HypergraphEdgeEncoder encoder(featurizer.num_substructures(),
                                       encoder_config, &rng);
  for (auto _ : state) {
    // data() forces the lazy tape to execute the recorded forward pass.
    benchmark::DoNotOptimize(encoder.Forward(context, false, nullptr).data()[0]);
  }
  state.SetItemsProcessed(state.iterations() * hypergraph.num_incidences());
}
BENCHMARK(BM_HyGnnEncoderForward)->Arg(100)->Arg(300);

void BM_EspfTrain(benchmark::State& state) {
  const int32_t num_drugs = static_cast<int32_t>(state.range(0));
  data::DatasetConfig data_config;
  data_config.num_drugs = num_drugs;
  auto dataset = data::GenerateDataset(data_config).value();
  std::vector<std::string> corpus;
  for (const auto& drug : dataset.drugs()) corpus.push_back(drug.smiles);
  chem::EspfConfig espf_config;
  espf_config.frequency_threshold = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chem::Espf::Train(corpus, espf_config));
  }
}
BENCHMARK(BM_EspfTrain)->Arg(100)->Arg(300);

void BM_EspfSegment(benchmark::State& state) {
  data::DatasetConfig data_config;
  data_config.num_drugs = 200;
  auto dataset = data::GenerateDataset(data_config).value();
  std::vector<std::string> corpus;
  for (const auto& drug : dataset.drugs()) corpus.push_back(drug.smiles);
  chem::EspfConfig espf_config;
  espf_config.frequency_threshold = 3;
  auto espf = chem::Espf::Train(corpus, espf_config).value();
  size_t index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(espf.Segment(corpus[index % corpus.size()]));
    ++index;
  }
}
BENCHMARK(BM_EspfSegment);

void BM_HypergraphBuild(benchmark::State& state) {
  const int32_t num_drugs = static_cast<int32_t>(state.range(0));
  data::DatasetConfig data_config;
  data_config.num_drugs = num_drugs;
  auto dataset = data::GenerateDataset(data_config).value();
  data::FeaturizeConfig feat_config;
  auto featurizer =
      data::SubstructureFeaturizer::Build(dataset.drugs(), feat_config)
          .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::BuildDrugHypergraph(
        featurizer.drug_substructures(), featurizer.num_substructures()));
  }
}
BENCHMARK(BM_HypergraphBuild)->Arg(100)->Arg(300);

void BM_RandomWalks(benchmark::State& state) {
  core::Rng graph_rng(5);
  std::vector<std::pair<int32_t, int32_t>> edges;
  const int32_t n = 500;
  for (int32_t i = 0; i < n * 10; ++i) {
    edges.push_back({static_cast<int32_t>(graph_rng.UniformInt(n)),
                     static_cast<int32_t>(graph_rng.UniformInt(n))});
  }
  graph::Graph graph(n, edges);
  graph::RandomWalkConfig walk_config;
  walk_config.walk_length = 40;
  walk_config.num_walks_per_node = 2;
  core::Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::UniformRandomWalks(graph, walk_config, &rng));
  }
}
BENCHMARK(BM_RandomWalks);

void BM_BiasedRandomWalks(benchmark::State& state) {
  core::Rng graph_rng(7);
  std::vector<std::pair<int32_t, int32_t>> edges;
  const int32_t n = 500;
  for (int32_t i = 0; i < n * 10; ++i) {
    edges.push_back({static_cast<int32_t>(graph_rng.UniformInt(n)),
                     static_cast<int32_t>(graph_rng.UniformInt(n))});
  }
  graph::Graph graph(n, edges);
  graph::RandomWalkConfig walk_config;
  walk_config.walk_length = 40;
  walk_config.num_walks_per_node = 2;
  walk_config.p = 0.5;
  walk_config.q = 2.0;
  core::Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::BiasedRandomWalks(graph, walk_config, &rng));
  }
}
BENCHMARK(BM_BiasedRandomWalks);

// ---------------------------------------------------------------------------
// Thread-scaling JSON harness (the repo's bench trajectory record)
// ---------------------------------------------------------------------------

/// Per-iteration cost of one timed configuration.
struct IterCost {
  double ns = 0.0;
  double minflt = 0.0;    // minor page faults (getrusage ru_minflt)
  double recycled = 0.0;  // tensor buffers served from held storage
};

/// One timed configuration of one op.
struct ScalingResult {
  std::string op;
  int64_t rows = 0;
  int64_t cols = 0;
  int32_t threads = 0;
  IterCost cost;
  double speedup_vs_1t = 1.0;
  bool bit_identical = true;
};

int64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

/// Times `run` until ~200 ms of samples or 64 iterations, whichever
/// first, and counts the page faults and recycled buffers of the timed
/// iterations.
template <typename Fn>
IterCost TimeIterations(Fn run) {
  run();  // warmup + first-touch
  const int64_t faults = MinorFaults();
  const uint64_t recycled = tensor::ExecStats().buffers_recycled;
  core::Stopwatch watch;
  int64_t iters = 0;
  do {
    run();
    ++iters;
  } while (watch.ElapsedSeconds() < 0.2 && iters < 64);
  const double seconds = watch.ElapsedSeconds();
  const auto n = static_cast<double>(iters);
  IterCost cost;
  cost.ns = seconds * 1e9 / n;
  cost.minflt = static_cast<double>(MinorFaults() - faults) / n;
  cost.recycled =
      static_cast<double>(tensor::ExecStats().buffers_recycled - recycled) /
      n;
  return cost;
}

/// Runs one op at 1/2/4 threads, timing `run` and comparing what
/// `output` reads after the last run (untimed) bit-for-bit against the
/// 1-thread run.
template <typename Run, typename Output>
void SweepThreads(const std::string& op, int64_t rows, int64_t cols, Run run,
                  Output output, std::vector<ScalingResult>* results) {
  std::vector<float> reference;
  double ns_1t = 0.0;
  for (int32_t threads : {1, 2, 4}) {
    core::SetNumThreads(threads);
    const IterCost cost = TimeIterations(run);
    const std::vector<float> out = output();
    ScalingResult r;
    r.op = op;
    r.rows = rows;
    r.cols = cols;
    r.threads = threads;
    r.cost = cost;
    if (threads == 1) {
      reference = out;
      ns_1t = cost.ns;
    }
    r.speedup_vs_1t = threads == 1 ? 1.0 : ns_1t / cost.ns;
    r.bit_identical = out.size() == reference.size() &&
                      std::memcmp(out.data(), reference.data(),
                                  out.size() * sizeof(float)) == 0;
    results->push_back(r);
    std::printf("%-22s %6lldx%-5lld threads=%d  %12.0f ns/iter  "
                "x%.2f  %9.1f minflt/iter  %4.1f recycled/iter  %s\n",
                op.c_str(), static_cast<long long>(rows),
                static_cast<long long>(cols), threads, cost.ns,
                r.speedup_vs_1t, cost.minflt, cost.recycled,
                r.bit_identical ? "bit-identical" : "MISMATCH");
  }
  core::SetNumThreads(1);
}

/// SweepThreads over one op whose result tensor is the checked output.
template <typename Op>
void SweepOp(const std::string& op, int64_t rows, int64_t cols, Op make,
             std::vector<ScalingResult>* results) {
  tensor::Tensor out;
  SweepThreads(
      op, rows, cols,
      [&] {
        out = make();
        // data() forces the lazy tape to execute the op.
        benchmark::DoNotOptimize(out.data());
      },
      [&] { return std::vector<float>(out.data(), out.data() + out.size()); },
      results);
}

// ---------------------------------------------------------------------------
// Dense products at the shapes that dominate training and serving
// ---------------------------------------------------------------------------

/// The paper's Table I training set: 136,241 pairs over 824 drugs.
constexpr int64_t kPairs = 136241, kDrugs = 824;

/// `n` uniformly drawn drug pairs, as the two index lists PairConcat
/// takes.
std::pair<std::vector<int32_t>, std::vector<int32_t>> RandomPairs(
    int64_t n, int64_t drugs, core::Rng* rng) {
  std::vector<int32_t> a(static_cast<size_t>(n)), b(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<int32_t>(rng->UniformInt(drugs));
    b[i] = static_cast<int32_t>(rng->UniformInt(drugs));
  }
  return {std::move(a), std::move(b)};
}

/// The MLP decoder at the paper's Table I configuration, through the op
/// API: layer 1 maps the 128-wide pair embedding of 136,241 training
/// pairs to 64 hidden units, layer 2 maps the ReLU output to one logit
/// (an m = 1 product). Rows:
///  - Decoder.L1 fwd: MatMul [136241x128]·[128x64].
///  - Decoder.L2 fwd: MatMul [136241x64]·[64x1] on a ReLU output.
///  - Decoder.L2 fwd+bwd: that forward, its sum, and the backward's
///    MatMulNT (k = 1) and MatMulTN (m = 1).
///  - Decoder fwd+bwd: the model's decoder op sequence, forward and
///    backward: PairConcat of an 824-drug table, layer 1, BiasRelu,
///    layer 2 and its bias, so all six products of a training step plus
///    the glue around them.
///  - Serve.batch90 fwd: both layers over one 90-pair serving batch.
/// The fwd+bwd rows zero the leaves' gradients each iteration, as the
/// optimizer does each step, and check the loss and every gradient.
void SweepDenseProducts(std::vector<ScalingResult>* results) {
  constexpr int64_t kIn = 128, kHidden = 64, kBatch = 90;
  core::Rng rng(1);
  tensor::Tensor x = tensor::NormalInit(kPairs, kIn, 1.0f, &rng, true);
  tensor::Tensor w1 = tensor::NormalInit(kIn, kHidden, 0.1f, &rng, true);
  tensor::Tensor w2 = tensor::NormalInit(kHidden, 1, 0.1f, &rng, true);
  tensor::Tensor h = tensor::Relu(
      tensor::NormalInit(kPairs, kHidden, 1.0f, &rng, false));
  h = tensor::Tensor::FromVector(
      std::vector<float>(h.data(), h.data() + h.size()), kPairs, kHidden,
      /*requires_grad=*/true);
  const tensor::Tensor batch =
      tensor::NormalInit(kBatch, kIn, 1.0f, &rng, false);
  tensor::Tensor table =
      tensor::NormalInit(kDrugs, kIn / 2, 1.0f, &rng, true);
  tensor::Tensor b1 = tensor::NormalInit(1, kHidden, 0.1f, &rng, true);
  tensor::Tensor b2 = tensor::NormalInit(1, 1, 0.1f, &rng, true);
  const auto pairs = RandomPairs(kPairs, kDrugs, &rng);

  SweepOp("Decoder.L1 fwd", kPairs, kHidden,
          [&] { return tensor::MatMul(x, w1); }, results);
  SweepOp("Decoder.L2 fwd", kPairs, 1, [&] { return tensor::MatMul(h, w2); },
          results);

  // Loss followed by each leaf's gradient, read after the last run.
  const auto loss_and_grads = [](const tensor::Tensor& loss,
                                 std::vector<tensor::Tensor> leaves) {
    std::vector<float> out{loss.item()};
    for (const auto& leaf : leaves) {
      out.insert(out.end(), leaf.grad(), leaf.grad() + leaf.size());
    }
    return out;
  };
  tensor::Tensor loss;
  SweepThreads(
      "Decoder.L2 fwd+bwd", kPairs, 1,
      [&] {
        h.ZeroGrad();
        w2.ZeroGrad();
        loss = tensor::ReduceSum(tensor::MatMul(h, w2));
        loss.Backward();
      },
      [&] { return loss_and_grads(loss, {h, w2}); }, results);
  SweepThreads(
      "Decoder fwd+bwd", kPairs, 1,
      [&] {
        for (tensor::Tensor leaf : {table, w1, b1, w2, b2}) leaf.ZeroGrad();
        loss = tensor::ReduceSum(tensor::AddRowBroadcast(
            tensor::MatMul(
                tensor::BiasRelu(
                    tensor::MatMul(tensor::PairConcat(table, pairs.first,
                                                      pairs.second),
                                   w1),
                    b1),
                w2),
            b2));
        loss.Backward();
      },
      [&] { return loss_and_grads(loss, {table, w1, b1, w2, b2}); },
      results);

  SweepOp("Serve.batch90 fwd", kBatch, 1,
          [&] {
            return tensor::MatMul(tensor::Relu(tensor::MatMul(batch, w1)),
                                  w2);
          },
          results);
}

// ---------------------------------------------------------------------------
// Decoder glue: the fused ops against the compositions they replace
// ---------------------------------------------------------------------------

/// One glue op at one thread count: fused and composed cost per
/// forward+backward iteration.
struct GlueResult {
  std::string op;
  std::string composed_of;
  int64_t rows = 0;
  int64_t cols = 0;
  int32_t threads = 0;
  IterCost fused;
  IterCost composed;
  bool bit_identical = true;  // fused vs composed: output and gradients
};

/// Backward from a non-scalar `y` whose gradient is seeded with `g`, in
/// the reverse post-order Tensor::Backward walks, so the timed backward
/// is the glue's own kernels and nothing downstream of it.
void BackwardFrom(const tensor::Tensor& y, const std::vector<float>& g) {
  std::vector<tensor::TensorImpl*> order;
  std::unordered_set<tensor::TensorImpl*> visited;
  std::vector<std::pair<tensor::TensorImpl*, size_t>> stack;
  stack.emplace_back(y.impl().get(), 0);
  visited.insert(y.impl().get());
  while (!stack.empty()) {
    auto& [node, next] = stack.back();
    if (next < node->parents.size()) {
      tensor::TensorImpl* parent = node->parents[next++].get();
      if (visited.insert(parent).second) stack.emplace_back(parent, 0);
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  y.impl()->EnsureGrad();
  std::copy(g.begin(), g.end(), y.impl()->grad.begin());
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    tensor::ExecuteNodeBackward(*it, /*time_ops=*/false);
  }
}

using BuildFn = std::function<tensor::Tensor()>;

/// Times `fused` and `composed` (each builds y from the leaves and
/// returns it) forward and backward at 1/2/4 threads, and compares
/// their outputs and leaf gradients bit for bit.
void SweepGlue(const std::string& op, const std::string& composed_of,
               std::vector<tensor::Tensor> leaves,
               const std::vector<float>& g, const BuildFn& fused,
               const BuildFn& composed, std::vector<GlueResult>* results) {
  std::vector<float> out;
  int64_t rows = 0, cols = 0;
  const auto step = [&](const BuildFn& build) {
    for (tensor::Tensor& leaf : leaves) leaf.ZeroGrad();
    const tensor::Tensor y = build();
    benchmark::DoNotOptimize(y.data());
    BackwardFrom(y, g);
    out.assign(y.data(), y.data() + y.size());
    rows = y.rows();
    cols = y.cols();
  };
  const auto captured = [&] {
    std::vector<float> all = out;
    for (const tensor::Tensor& leaf : leaves) {
      all.insert(all.end(), leaf.grad(), leaf.grad() + leaf.size());
    }
    return all;
  };
  for (int32_t threads : {1, 2, 4}) {
    core::SetNumThreads(threads);
    GlueResult r;
    r.op = op;
    r.composed_of = composed_of;
    r.threads = threads;
    r.composed = TimeIterations([&] { step(composed); });
    const std::vector<float> reference = captured();
    r.fused = TimeIterations([&] { step(fused); });
    const std::vector<float> got = captured();
    r.rows = rows;
    r.cols = cols;
    r.bit_identical =
        got.size() == reference.size() &&
        std::memcmp(got.data(), reference.data(),
                    got.size() * sizeof(float)) == 0;
    std::printf("%-10s fwd+bwd threads=%d  %12.0f ns/iter  vs %s "
                "%12.0f ns/iter  x%.2f  %s\n",
                op.c_str(), threads, r.fused.ns, composed_of.c_str(),
                r.composed.ns, r.composed.ns / r.fused.ns,
                r.bit_identical ? "bit-identical" : "MISMATCH");
    results->push_back(r);
  }
  core::SetNumThreads(1);
}

/// The two glue rows at the MLP decoder's training shape: 136,241 pairs
/// over an 824-drug, 64-wide embedding table, and the [136241 x 64]
/// hidden pre-activation. The incoming gradients are Gaussian.
std::vector<GlueResult> SweepDecoderGlue() {
  constexpr int64_t kD = 64;
  core::Rng rng(11);
  std::vector<GlueResult> results;
  {
    const tensor::Tensor table =
        tensor::NormalInit(kDrugs, kD, 1.0f, &rng, true);
    const auto pairs = RandomPairs(kPairs, kDrugs, &rng);
    const std::vector<int32_t>& a = pairs.first;
    const std::vector<int32_t>& b = pairs.second;
    const tensor::Tensor g =
        tensor::NormalInit(kPairs, 2 * kD, 1.0f, &rng, false);
    SweepGlue(
        "PairConcat", "2xIndexSelectRows+ConcatCols", {table},
        std::vector<float>(g.data(), g.data() + g.size()),
        [&] { return tensor::PairConcat(table, a, b); },
        [&] {
          return tensor::ConcatCols(tensor::IndexSelectRows(table, a),
                                    tensor::IndexSelectRows(table, b));
        },
        &results);
  }
  {
    const tensor::Tensor z = tensor::NormalInit(kPairs, kD, 1.0f, &rng, true);
    const tensor::Tensor bias = tensor::NormalInit(1, kD, 0.1f, &rng, true);
    const tensor::Tensor g = tensor::NormalInit(kPairs, kD, 1.0f, &rng, false);
    SweepGlue(
        "BiasRelu", "AddRowBroadcast+Relu", {z, bias},
        std::vector<float>(g.data(), g.data() + g.size()),
        [&] { return tensor::BiasRelu(z, bias); },
        [&] { return tensor::Relu(tensor::AddRowBroadcast(z, bias)); },
        &results);
  }
  return results;
}

int RunScalingHarness(const std::string& json_path) {
  std::vector<ScalingResult> results;

  SweepDenseProducts(&results);
  {
    const int64_t pairs = 1 << 16;
    const int64_t segments = pairs / 16;
    core::Rng rng(3);
    std::vector<int32_t> segment_ids(pairs);
    for (auto& s : segment_ids) {
      s = static_cast<int32_t>(rng.UniformInt(segments));
    }
    tensor::Tensor scores = tensor::NormalInit(pairs, 1, 1.0f, &rng, false);
    SweepOp("SegmentSoftmax", pairs, 1,
            [&] {
              return tensor::SegmentSoftmax(scores, segment_ids, segments);
            },
            &results);
    tensor::Tensor values = tensor::NormalInit(pairs, 64, 1.0f, &rng, false);
    SweepOp("SegmentSum", pairs, 64,
            [&] { return tensor::SegmentSum(values, segment_ids, segments); },
            &results);
  }
  {
    const int64_t rows = 1 << 14, d = 64, picks = 1 << 13;
    core::Rng rng(5);
    tensor::Tensor x = tensor::NormalInit(rows, d, 1.0f, &rng, false);
    std::vector<int32_t> indices(picks);
    for (auto& idx : indices) {
      idx = static_cast<int32_t>(rng.UniformInt(rows));
    }
    SweepOp("IndexSelectRows", picks, d,
            [&] { return tensor::IndexSelectRows(x, indices); }, &results);
  }
  {
    const int64_t n = 1 << 20;
    core::Rng rng(7);
    tensor::Tensor x = tensor::NormalInit(n, 1, 1.0f, &rng, false);
    SweepOp("Relu", n, 1, [&] { return tensor::Relu(x); }, &results);
  }

  const std::vector<GlueResult> glue = SweepDecoderGlue();

  std::FILE* file = std::fopen(json_path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(file, "{\n  \"bench\": \"micro_ops\",\n  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(file,
                 "    {\"op\": \"%s\", \"rows\": %lld, \"cols\": %lld, "
                 "\"threads\": %d, \"ns_per_iter\": %.1f, "
                 "\"speedup_vs_1t\": %.3f, \"minflt_per_iter\": %.1f, "
                 "\"recycled_per_iter\": %.1f, \"bit_identical\": %s}%s\n",
                 r.op.c_str(), static_cast<long long>(r.rows),
                 static_cast<long long>(r.cols), r.threads, r.cost.ns,
                 r.speedup_vs_1t, r.cost.minflt, r.cost.recycled,
                 r.bit_identical ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(file, "  ],\n  \"decoder_glue\": [\n");
  for (size_t i = 0; i < glue.size(); ++i) {
    const auto& r = glue[i];
    std::fprintf(file,
                 "    {\"op\": \"%s\", \"composed_of\": \"%s\", "
                 "\"rows\": %lld, \"cols\": %lld, \"threads\": %d, "
                 "\"ns_per_iter\": %.1f, \"composed_ns_per_iter\": %.1f, "
                 "\"speedup_vs_composed\": %.3f, \"bit_identical\": %s}%s\n",
                 r.op.c_str(), r.composed_of.c_str(),
                 static_cast<long long>(r.rows),
                 static_cast<long long>(r.cols), r.threads, r.fused.ns,
                 r.composed.ns, r.composed.ns / r.fused.ns,
                 r.bit_identical ? "true" : "false",
                 i + 1 < glue.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  std::fclose(file);
  std::printf("wrote %s\n", json_path.c_str());

  for (const auto& r : results) {
    if (!r.bit_identical) {
      std::fprintf(stderr, "FAIL: %s at %d threads is not bit-identical\n",
                   r.op.c_str(), r.threads);
      return 1;
    }
  }
  for (const auto& r : glue) {
    if (!r.bit_identical) {
      std::fprintf(stderr,
                   "FAIL: %s at %d threads is not bit-identical to %s\n",
                   r.op.c_str(), r.threads, r.composed_of.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace hygnn

int main(int argc, char** argv) {
  std::string json_path = "BENCH_micro_ops.json";
  bool run_gbench = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json_out=", 0) == 0) {
      json_path = arg.substr(std::string("--json_out=").size());
    } else if (arg == "--gbench") {
      run_gbench = true;
    } else if (arg.rfind("--benchmark_", 0) == 0) {
      run_gbench = true;  // any google-benchmark flag implies the suite
    }
  }
  const int status = hygnn::RunScalingHarness(json_path);
  if (status != 0) return status;
  if (run_gbench) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
