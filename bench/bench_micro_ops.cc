// Micro harness for the tensor kernels that dominate HyGNN training and
// serving: a thread-scaling sweep over the parallelized kernels
// (the MLP decoder's dense products at the paper's training and serving
// shapes, SegmentSoftmax, SegmentSum, IndexSelectRows, Relu, and the
// k-mer encoder's SpMM and Adam step over its 13,108 x 64 projection)
// at 1, 2, and 4 threads, verifying bit-identical outputs against the 1-thread
// reference, counting minor page faults and recycled tensor buffers
// per iteration, and writing machine-readable JSON to BENCH_micro_ops.json
// (override with --json_out=PATH), followed by the fused-op rows, each
// forward and backward, timed against the op composition it replaces
// and checked bit for bit against it: PairMatMul (MatMul of a
// ConcatCols of two IndexSelectRows) and BiasRelu (AddRowBroadcast and
// Relu) at the paper's 136,241-pair training shape, and LeakyPairScore
// (MatMul of a LeakyRelu of a ConcatCols with an IndexSelectRows) and
// WeightedSegmentSum (SegmentSum of MulColumnBroadcast) at the k-mer
// encoder's 24,262 incidences. Exits 1 on any mismatch.
// The output opens with a header: build type, compiler, nproc, and which
// dense-product tile the build runs (HYGNN_DENSE_TILE_AVX512).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "obs/metrics.h"
#include "tensor/init.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/sparse.h"
#include "tensor/tape.h"
#include "tensor/tensor.h"

namespace hygnn {
namespace {

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
  obs::Timer watch;
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
        out.data();
      },
      [&] { return std::vector<float>(out.data(), out.data() + out.size()); },
      results);
}

// ---------------------------------------------------------------------------
// Dense products at the shapes that dominate training and serving
// ---------------------------------------------------------------------------

/// The paper's Table I training set: 136,241 pairs over 824 drugs.
constexpr int64_t kPairs = 136241, kDrugs = 824;

/// `n` uniformly drawn drug pairs, as the two index lists PairMatMul
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
///  - Decoder.L1 fwd+bwd: layer 1's forward, its sum, and the
///    backward's MatMulNT (dX) and MatMulTN (dW1, which reduces over
///    all 136,241 rows).
///  - Decoder.L2 fwd+bwd: layer 2's forward, its sum, and the
///    backward's MatMulNT (k = 1) and MatMulTN (m = 1).
///  - Decoder fwd+bwd: the model's decoder op sequence, forward and
///    backward: layer 1 as PairMatMul over an 824-drug table, BiasRelu,
///    layer 2 and its bias, so every product of a training step plus
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
      "Decoder.L1 fwd+bwd", kPairs, kHidden,
      [&] {
        x.ZeroGrad();
        w1.ZeroGrad();
        loss = tensor::ReduceSum(tensor::MatMul(x, w1));
        loss.Backward();
      },
      [&] { return loss_and_grads(loss, {x, w1}); }, results);
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
                tensor::BiasRelu(tensor::PairMatMul(table, pairs.first,
                                                    pairs.second, w1),
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

/// The k-mer encoder's (HyGNN-kmer, k = 10) first product and the
/// optimizer step it feeds, at their training shape:
///  - SpMM fwd+bwd: the [824 x 13,108] drug-by-k-mer incidence, 24,262
///    entries (about 29 per drug), times the [13,108 x 64] projection
///    W_q, its sum, and the backward's Aᵀ·g into W_q's gradient.
///  - Adam.Step: one update of a 13,108 x 64 parameter. The timed steps
///    move the state, so the checked output is a separate, untimed run:
///    three steps from the same start, then w, m and v.
void SweepEncoderProjection(std::vector<ScalingResult>* results) {
  constexpr int64_t kKmers = 13108, kIncidences = 24262, kD = 64;
  core::Rng rng(13);
  std::vector<int32_t> rows, cols;
  std::vector<float> values;
  for (int64_t i = 0; i < kIncidences; ++i) {
    rows.push_back(static_cast<int32_t>(i % kDrugs));
    cols.push_back(static_cast<int32_t>(rng.UniformInt(kKmers)));
    values.push_back(rng.UniformFloat());
  }
  const auto a =
      tensor::CsrMatrix::FromCoo(kDrugs, kKmers, rows, cols, values);
  tensor::Tensor w_q = tensor::NormalInit(kKmers, kD, 0.1f, &rng, true);
  tensor::Tensor loss;
  SweepThreads(
      "SpMM fwd+bwd", kDrugs, kD,
      [&] {
        w_q.ZeroGrad();
        loss = tensor::ReduceSum(tensor::SpMM(a, w_q));
        loss.Backward();
      },
      [&] {
        std::vector<float> out{loss.item()};
        out.insert(out.end(), w_q.grad(), w_q.grad() + w_q.size());
        return out;
      },
      results);

  const std::vector<float> w0(w_q.data(), w_q.data() + w_q.size());
  const tensor::Tensor g = tensor::NormalInit(kKmers, kD, 1.0f, &rng, false);
  const auto start = [&] {
    tensor::Tensor w = tensor::Tensor::FromVector(w0, kKmers, kD, true);
    w.impl()->EnsureGrad();
    std::copy(g.data(), g.data() + g.size(), w.grad());
    return w;
  };
  tensor::Tensor w = start();
  tensor::Adam adam({w}, 0.01f);
  SweepThreads(
      "Adam.Step", kKmers, kD, [&] { adam.Step(); },
      [&] {
        tensor::Tensor fresh = start();
        tensor::Adam check({fresh}, 0.01f);
        for (int step = 0; step < 3; ++step) check.Step();
        const tensor::AdamState state = check.ExportState();
        std::vector<float> out(fresh.data(), fresh.data() + fresh.size());
        out.insert(out.end(), state.m[0].begin(), state.m[0].end());
        out.insert(out.end(), state.v[0].begin(), state.v[0].end());
        return out;
      },
      results);
}

// ---------------------------------------------------------------------------
// The fused ops against the compositions they replace
// ---------------------------------------------------------------------------

/// One fused op at one thread count: fused and composed cost per
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
/// is the op's own kernels and nothing downstream of it.
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
    y.data();  // runs the forward tape before its backward
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
    std::printf("%-18s fwd+bwd threads=%d  %12.0f ns/iter  vs %s "
                "%12.0f ns/iter  x%.2f  %s\n",
                op.c_str(), threads, r.fused.ns, composed_of.c_str(),
                r.composed.ns, r.composed.ns / r.fused.ns,
                r.bit_identical ? "bit-identical" : "MISMATCH");
    results->push_back(r);
  }
  core::SetNumThreads(1);
}

/// The decoder's two rows at its training shape: layer 1 of 136,241
/// pairs over an 824-drug, 64-wide embedding table to 64 hidden units,
/// and the [136241 x 64] hidden pre-activation. Then the encoder's
/// node-level score at HyGNN-kmer's (k = 10) shape: 24,262 incidences,
/// each a 64-wide W_p p_i row and one of the 824 drugs' 64-wide W_q q_j
/// rows, LeakyRelu slope 0.2; and its hyperedge-level message sum at
/// the same shape: the 24,262 gathered 64-wide rows, each weighted by
/// its attention coefficient and summed into one of 13,108 k-mer nodes
/// (each form groups the ids once per forward, in its segment sum). The
/// incoming gradients are Gaussian.
std::vector<GlueResult> SweepFusedOps() {
  constexpr int64_t kD = 64;
  core::Rng rng(11);
  std::vector<GlueResult> results;
  {
    const tensor::Tensor table =
        tensor::NormalInit(kDrugs, kD, 1.0f, &rng, true);
    const tensor::Tensor w = tensor::NormalInit(2 * kD, kD, 0.1f, &rng, true);
    const auto pairs = RandomPairs(kPairs, kDrugs, &rng);
    const std::vector<int32_t>& a = pairs.first;
    const std::vector<int32_t>& b = pairs.second;
    const tensor::Tensor g = tensor::NormalInit(kPairs, kD, 1.0f, &rng, false);
    SweepGlue(
        "PairMatMul", "MatMul(ConcatCols(2xIndexSelectRows))", {table, w},
        std::vector<float>(g.data(), g.data() + g.size()),
        [&] { return tensor::PairMatMul(table, a, b, w); },
        [&] {
          return tensor::MatMul(
              tensor::ConcatCols(tensor::IndexSelectRows(table, a),
                                 tensor::IndexSelectRows(table, b)),
              w);
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
  {
    constexpr int64_t kIncidences = 24262;
    constexpr float kSlope = 0.2f;
    const tensor::Tensor x =
        tensor::NormalInit(kIncidences, kD, 1.0f, &rng, true);
    const tensor::Tensor table =
        tensor::NormalInit(kDrugs, kD, 1.0f, &rng, true);
    const tensor::Tensor w = tensor::NormalInit(2 * kD, 1, 0.1f, &rng, true);
    std::vector<int32_t> idx(static_cast<size_t>(kIncidences));
    for (int32_t& i : idx) i = static_cast<int32_t>(rng.UniformInt(kDrugs));
    const tensor::Tensor g =
        tensor::NormalInit(kIncidences, 1, 1.0f, &rng, false);
    SweepGlue(
        "LeakyPairScore",
        "MatMul(LeakyRelu(ConcatCols(x,IndexSelectRows)))", {x, table, w},
        std::vector<float>(g.data(), g.data() + g.size()),
        [&] { return tensor::LeakyPairScore(x, table, idx, w, kSlope); },
        [&] {
          return tensor::MatMul(
              tensor::LeakyRelu(
                  tensor::ConcatCols(x, tensor::IndexSelectRows(table, idx)),
                  kSlope),
              w);
        },
        &results);
  }
  {
    constexpr int64_t kIncidences = 24262, kNodes = 13108;
    const tensor::Tensor x =
        tensor::NormalInit(kIncidences, kD, 1.0f, &rng, true);
    const tensor::Tensor w =
        tensor::NormalInit(kIncidences, 1, 1.0f, &rng, true);
    std::vector<int32_t> ids(static_cast<size_t>(kIncidences));
    for (int32_t& id : ids) id = static_cast<int32_t>(rng.UniformInt(kNodes));
    const tensor::Tensor g = tensor::NormalInit(kNodes, kD, 1.0f, &rng, false);
    SweepGlue(
        "WeightedSegmentSum", "SegmentSum(MulColumnBroadcast)", {x, w},
        std::vector<float>(g.data(), g.data() + g.size()),
        [&] { return tensor::WeightedSegmentSum(x, w, ids, kNodes); },
        [&] {
          return tensor::SegmentSum(tensor::MulColumnBroadcast(x, w), ids,
                                    kNodes);
        },
        &results);
  }
  return results;
}

/// The header fields this build can know, as one JSON object.
std::string Header() {
  const char* tile = HYGNN_DENSE_TILE_AVX512 ? "avx512" : "portable";
  return std::string("{\"build_type\": \"") + HYGNN_BUILD_TYPE +
         "\", \"compiler\": \"" + HYGNN_COMPILER +
         "\", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"dense_tile\": \"" + tile + "\"}";
}

int RunScalingHarness(const std::string& json_path) {
  const std::string header = Header();
  std::printf("%s\n", header.c_str());
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
  SweepEncoderProjection(&results);

  const std::vector<GlueResult> glue = SweepFusedOps();

  std::FILE* file = std::fopen(json_path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(file,
               "{\n  \"bench\": \"micro_ops\",\n  \"header\": %s,\n"
               "  \"results\": [\n",
               header.c_str());
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
  std::fprintf(file, "  ],\n  \"fused_ops\": [\n");
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
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json_out=", 0) == 0) {
      json_path = arg.substr(std::string("--json_out=").size());
    }
  }
  return hygnn::RunScalingHarness(json_path);
}
