// Training workloads: HyGNN-ESPF full batch at the paper's configuration
// (train_full) and HyGNN-kmer in mini-batches (train_kmer).

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "obs/optime.h"
#include "step.h"
#include "tensor/tape.h"
#include "workload.h"

namespace hygnn::perfbench {

namespace {

/// Kernel threads for both training workloads: main thread plus one
/// pool worker, which leaves half of a 4-CPU host for the rest of the
/// system. Step time at 1 / 2 / 4 threads was 2.0 / 1.35 / 0.97 s on
/// train_full.
constexpr int32_t kKernelThreads = 2;
/// A tail percentile needs at least 20 samples (p50 with 10 beyond).
constexpr int64_t kMinOps = 20;

struct TrainSpec {
  data::SubstructureMode mode;
  int32_t batch_size;  ///< 0 = full batch
  /// Ops per second of --seconds: the op count is fixed by the flag,
  /// not by how fast the program runs.
  double ops_per_second;
};

/// One complete set-up: corpus, split, model, optimizer and a warm-up
/// step.
struct TrainState {
  std::unique_ptr<Corpus> corpus;
  data::PairSplit split;
  std::unique_ptr<model::HyGnnModel> model;
  std::unique_ptr<StepRunner> runner;
  float warmup_loss = 0.0f;
};

/// (Re)creates the model and its step runner from the seed and runs
/// the warm-up step, which is the run's first optimizer step.
void InitTraining(const TrainSpec& spec, uint64_t seed, TrainState* state,
                  SetupPhases* phases) {
  state->runner.reset();
  state->model = InitModel(*state->corpus, SubSeed(seed, 2), phases);
  state->runner = std::make_unique<StepRunner>(
      state->model.get(), &state->corpus->context, state->split.train,
      MakeTrainConfig(SubSeed(seed, 3), spec.batch_size));
  const double start = NowSeconds();
  state->warmup_loss = state->runner->Step();
  phases->warmup_ms = (NowSeconds() - start) * 1e3;
}

void SetUp(const TrainSpec& spec, uint64_t seed, TrainState* state,
           SetupPhases* phases) {
  state->corpus = BuildCorpus(spec.mode, phases);
  state->split = SplitPairs(state->corpus->dataset, SubSeed(seed, 1), phases);
  InitTraining(spec, seed, state, phases);
}

struct Phase {
  std::vector<double> op_ms;
  std::vector<float> losses;
  std::vector<StepTrace> traces;
  double pairs = 0.0;
  double wall_s = 0.0;
};

Phase RunSteps(StepRunner* runner, int64_t n, bool trace) {
  Phase phase;
  phase.op_ms.reserve(static_cast<size_t>(n));
  const double begin = NowSeconds();
  for (int64_t i = 0; i < n; ++i) {
    StepTrace step_trace;
    const double start = NowSeconds();
    const float loss = runner->Step(trace ? &step_trace : nullptr);
    phase.op_ms.push_back((NowSeconds() - start) * 1e3);
    phase.losses.push_back(loss);
    phase.pairs += static_cast<double>(runner->last_step_pairs());
    if (trace) phase.traces.push_back(step_trace);
  }
  phase.wall_s = NowSeconds() - begin;
  return phase;
}

int64_t CheckLosses(const Phase& phase, float first_loss, Report* report) {
  int64_t failed = 0;
  for (float loss : phase.losses) failed += std::isfinite(loss) ? 0 : 1;
  if (failed > 0) {
    report->Fail(std::to_string(failed) + " steps had a non-finite loss");
  }
  if (!(phase.losses.back() < first_loss)) {
    report->Fail("last loss " + std::to_string(phase.losses.back()) +
                 " is not below the first " + std::to_string(first_loss));
  }
  return failed;
}

/// Per-step means of the traced phase's call spans and op-tape tags.
void ReportTrace(const Phase& traced, Report* report) {
  const double steps = static_cast<double>(traced.traces.size());
  StepTrace sum;
  for (const StepTrace& t : traced.traces) {
    sum.encode_ms += t.encode_ms;
    sum.decode_ms += t.decode_ms;
    sum.loss_ms += t.loss_ms;
    sum.backward_ms += t.backward_ms;
    sum.optim_ms += t.optim_ms;
    sum.matmul_flop += t.matmul_flop;
  }
  const double op_mean = Mean(traced.op_ms);
  const double tensor_ms = (sum.encode_ms + sum.decode_ms + sum.loss_ms +
                            sum.backward_ms + sum.optim_ms) /
                           steps;
  report->Layer("trace.op_mean_ms", op_mean);
  report->Layer("hygnn.encode_ms", sum.encode_ms / steps);
  report->Layer("hygnn.decode_ms", sum.decode_ms / steps);
  report->Layer("tensor.loss_ms", sum.loss_ms / steps);
  report->Layer("tensor.backward_ms", sum.backward_ms / steps);
  report->Layer("tensor.optim_ms", sum.optim_ms / steps);
  report->Layer("hygnn.step_rest_ms", op_mean - tensor_ms);

  double tagged_ms = 0.0;
  double other_ms = 0.0;
  double matmul_ms = 0.0;
  const std::string prefix = "tensor.op.";
  for (const obs::OpTimeEntry& entry : obs::OpTimeSnapshot()) {
    const double fwd = entry.forward_ms / steps;
    const double bwd = entry.backward_ms / steps;
    tagged_ms += fwd + bwd;
    bool listed = false;
    for (const char* op : kReportedOps) listed |= entry.op == op;
    if (listed) {
      report->Layer(prefix + entry.op + ".fwd_ms", fwd);
      report->Layer(prefix + entry.op + ".bwd_ms", bwd);
    } else {
      other_ms += fwd + bwd;
    }
    if (entry.op == "MatMul") matmul_ms = fwd + bwd;
  }
  report->Layer("tensor.op_other_ms", other_ms);
  report->Layer("tensor.op_unattributed_ms", tensor_ms - tagged_ms);
  const double gflop = sum.matmul_flop / steps * 1e-9;
  report->Layer("tensor.matmul_gflop_per_step", gflop);
  report->Layer("tensor.matmul_gflops",
                matmul_ms > 0.0 ? gflop / (matmul_ms * 1e-3) : 0.0);
}

void RunTraining(const Options& options, const TrainSpec& spec,
                 Report* report) {
  core::SetNumThreads(kKernelThreads);
  const int64_t n = std::max<int64_t>(
      kMinOps, std::llround(options.seconds * spec.ops_per_second));

  std::vector<double> setup_s;
  std::vector<SetupPhases> phases(kSetupRepeats);
  TrainState state;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double start = r == 0 ? options.process_start_s : NowSeconds();
    state = TrainState{};
    SetUp(spec, options.seed, &state, &phases[static_cast<size_t>(r)]);
    setup_s.push_back(NowSeconds() - start);
  }
  const Corpus& corpus = *state.corpus;
  report->Size("drugs", corpus.dataset.num_drugs());
  report->Size("substructures", corpus.featurizer.num_substructures());
  report->Size("incidences", static_cast<double>(corpus.incidences));
  report->Size("train_pairs", static_cast<double>(state.split.train.size()));
  report->Size("pairs_per_step",
               spec.batch_size > 0
                   ? std::min<double>(spec.batch_size,
                                      static_cast<double>(
                                          state.split.train.size()))
                   : static_cast<double>(state.split.train.size()));
  report->Size("ops", static_cast<double>(n));

  const Usage usage0 = ReadUsage();
  const tensor::ExecStatsSnapshot exec0 = tensor::ExecStats();
  const Phase untraced = RunSteps(state.runner.get(), n, /*trace=*/false);
  const tensor::ExecStatsSnapshot exec1 = tensor::ExecStats();
  const Usage usage1 = ReadUsage();
  report->CountOps(n, CheckLosses(untraced, state.warmup_loss, report));
  report->Note("final_loss (BCE of the last step) = " +
               std::to_string(untraced.losses.back()));

  if (!options.trace) {
    // Training runs one round: its op count is too small to split.
    ReportEndToEnd(setup_s, {{untraced.op_ms, untraced.pairs, untraced.wall_s}},
                   report);
    return;
  }

  ReportSetupPhases(phases, report);
  const double steps = static_cast<double>(n);
  report->Layer("tensor.ops_per_step",
                static_cast<double>(exec1.ops_executed - exec0.ops_executed) /
                    steps);
  report->Layer("tensor.buffers_per_step",
                static_cast<double>(exec1.buffers_allocated -
                                    exec0.buffers_allocated) /
                    steps);
  report->Layer("tensor.fused_per_step",
                static_cast<double>(exec1.fused_groups - exec0.fused_groups) /
                    steps);
  ReportProcess(usage0, usage1, n, untraced.wall_s, report);
  report->Layer("hygnn.final_loss", untraced.losses.back());

  // The traced phase replays the same seed from a fresh model, so its
  // losses must match the untraced phase bit for bit.
  SetupPhases reinit;
  InitTraining(spec, options.seed, &state, &reinit);
  obs::ResetOpTimes();
  obs::SetKernelTimingEnabled(true);
  const Phase traced = RunSteps(state.runner.get(), n, /*trace=*/true);
  obs::SetKernelTimingEnabled(false);
  report->CountOps(n, CheckLosses(traced, state.warmup_loss, report));
  if (std::memcmp(traced.losses.data(), untraced.losses.data(),
                  untraced.losses.size() * sizeof(float)) != 0) {
    report->Fail("traced and untraced losses differ");
  }
  ReportTrace(traced, report);
  report->Layer("obs.trace_overhead_frac",
                Median(traced.op_ms) / Median(untraced.op_ms) - 1.0);
}

}  // namespace

void RunTrainFull(const Options& options, Report* report) {
  RunTraining(options, {data::SubstructureMode::kEspf, 0, 1.0}, report);
}

void RunTrainKmer(const Options& options, Report* report) {
  RunTraining(options, {data::SubstructureMode::kKmer, 1024, 10.0}, report);
}

}  // namespace hygnn::perfbench
