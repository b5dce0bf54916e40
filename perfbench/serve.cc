// Serving workloads: closed-loop medication-list scoring through
// serve::Server (serve_interactive), and the same reads beside Table II
// cold-start onboarding and screening (serve_churn).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/logging.h"
#include "core/thread_pool.h"
#include "obs/metrics.h"
#include "serve/embedding_store.h"
#include "serve/request.h"
#include "serve/scoring.h"
#include "serve/server.h"
#include "workload.h"

namespace hygnn::perfbench {

namespace {

/// Closed loop with a window: one client thread keeps kWindow ops of
/// the sequence outstanding and issues the next op only when one
/// completes. It polls Pending::done() rather than blocking in Wait():
/// on a KVM guest, waking a thread whose vCPU went idle costs 50-100 us
/// that varies with host load, and with three blocking client threads
/// the median moved by 20-40% between runs of the same code. Three
/// outstanding requests, not two: the batcher closes a batch at
/// max_batch = 64 pairs or after max_wait_us = 1 ms, and a medication
/// list averages 45 pairs, so with two about 43% of requests wait out
/// the timer and the median sat at the edge of that 1 ms mode; with
/// three about 25% wait. Onboarding ops run on one helper thread while
/// reads stay in flight. The process runs the client, the helper (churn
/// only) and the server's one worker; kernels run inline.
constexpr size_t kWindow = 3;
/// Every kChurnEvery-th op of serve_churn onboards an unseen drug.
constexpr int64_t kChurnEvery = 20;
constexpr int32_t kTopK = 10;
/// Read requests run through the server before timing starts.
constexpr int64_t kWarmupOps = 2000;

struct ServeSpec {
  bool churn;
  /// Ops per second of --seconds (see TrainSpec::ops_per_second).
  double ops_per_second;
};

/// Ops per round of the timed phase. Short rounds make the per-run
/// medians robust to stretches of host stalls, which on a KVM guest hit
/// more than 1% of requests for seconds at a time; a 500-op round's
/// tail is its p95 (25 samples beyond), a 5,000-op round's p99 moved by
/// 60% between runs of the same code.
constexpr int64_t kOpsPerRound = 500;

/// One complete set-up. Members are destroyed server first.
struct ServeState {
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<model::HyGnnModel> model;
  OpStream ops;
  OpStream warmup;
  std::unique_ptr<serve::EmbeddingStore> store;
  std::unique_ptr<serve::Server> server;
};

struct Outcome {
  double ms = 0.0;
  bool ok = false;
  std::vector<float> scores;              ///< read ops
  std::vector<serve::ScreeningHit> hits;  ///< onboard ops
  int32_t added = -1;                     ///< onboard ops: new row id
  // Traced spans, microseconds.
  double submit_us = 0.0;
  double segment_us = 0.0;
  double add_us = 0.0;
  double screen_us = 0.0;
};

struct Phase {
  std::vector<Outcome> outcomes;
  double wall_s = 0.0;
};

double Us(double start_s) { return (NowSeconds() - start_s) * 1e6; }

/// One onboarding op: the unseen drug joins the catalog, then is
/// screened against it. Traced runs time segmentation and AddDrug
/// separately instead of calling AddDrugSmiles.
void RunOnboard(const ServeState& state, const OpStream& ops, size_t i,
                bool trace, Outcome* out) {
  const double start = NowSeconds();
  const std::string& smiles = ops.unseen[static_cast<size_t>(ops.onboard[i])];
  core::Result<int32_t> added = core::Status::Internal("not run");
  if (trace) {
    double span = NowSeconds();
    auto ids = state.corpus->featurizer.SegmentNewSmiles(smiles);
    out->segment_us = Us(span);
    span = NowSeconds();
    added = ids.ok() ? state.store->AddDrug(ids.value())
                     : core::Result<int32_t>(ids.status());
    out->add_us = Us(span);
  } else {
    added = state.store->AddDrugSmiles(state.corpus->featurizer, smiles);
  }
  if (added.ok()) {
    out->added = added.value();
    const double span = NowSeconds();
    serve::ScreeningEngine engine(state.model.get(), state.store.get());
    auto screened = engine.Screen({added.value(), kTopK});
    out->screen_us = Us(span);
    out->ok = screened.ok();
    if (screened.ok()) out->hits = std::move(screened.value().hits);
  }
  out->ms = (NowSeconds() - start) * 1e3;
}

/// Runs ops [begin, end) of `ops` in order with kWindow outstanding
/// (see kWindow) and returns the wall time. A read's latency runs from
/// SubmitAsync to the client seeing its result.
double RunOps(const ServeState& state, const OpStream& ops, size_t begin,
              size_t end, bool trace, std::vector<Outcome>* outcomes) {
  struct InFlight {
    size_t i;
    double start;
    std::shared_ptr<serve::Server::Pending> pending;  ///< null: onboarding
  };
  constexpr int64_t kIdle = -1;
  constexpr int64_t kStop = -2;
  // Op index the helper is onboarding, kIdle when free.
  std::atomic<int64_t> onboarding{kIdle};
  const bool churn = std::any_of(ops.onboard.begin() + begin,
                                 ops.onboard.begin() + end,
                                 [](int32_t u) { return u >= 0; });
  std::vector<core::WorkerThread> helper;
  if (churn) {
    helper.emplace_back([&] {
      for (int64_t i = onboarding.load(); i != kStop; i = onboarding.load()) {
        if (i == kIdle) {
          std::this_thread::yield();
          continue;
        }
        RunOnboard(state, ops, static_cast<size_t>(i), trace,
                   &(*outcomes)[static_cast<size_t>(i)]);
        onboarding.store(kIdle);
      }
    });
  }
  const double t0 = NowSeconds();
  std::vector<InFlight> window;
  size_t next = begin;
  while (next < end || !window.empty()) {
    while (window.size() < kWindow && next < end) {
      if (ops.onboard[next] >= 0) {
        if (onboarding.load() != kIdle) break;  // one onboarding at a time
        onboarding.store(static_cast<int64_t>(next));
        window.push_back({next, 0.0, nullptr});
      } else {
        Outcome& out = (*outcomes)[next];
        const double start = NowSeconds();
        auto pending = state.server->SubmitAsync(ops.reads[next]);
        if (trace) out.submit_us = Us(start);
        if (pending.ok()) {
          window.push_back({next, start, std::move(pending.value())});
        } else {
          out.ms = (NowSeconds() - start) * 1e3;  // refused: failed op
        }
      }
      ++next;
    }
    for (size_t w = 0; w < window.size();) {
      InFlight& op = window[w];
      if (op.pending == nullptr ? onboarding.load() == kIdle
                                : op.pending->done()) {
        if (op.pending != nullptr) {
          Outcome& out = (*outcomes)[op.i];
          out.ms = (NowSeconds() - op.start) * 1e3;
          auto response = op.pending->Wait();
          out.ok = response.ok();
          if (response.ok()) out.scores = std::move(response.value().scores);
        }
        window.erase(window.begin() + static_cast<ptrdiff_t>(w));
      } else {
        ++w;
      }
    }
    std::this_thread::yield();
  }
  const double wall = NowSeconds() - t0;
  onboarding.store(kStop);
  return wall;
}

Phase RunAll(const ServeState& state, const OpStream& ops, bool trace) {
  Phase phase;
  phase.outcomes.resize(ops.reads.size());
  phase.wall_s = RunOps(state, ops, 0, ops.reads.size(), trace,
                        &phase.outcomes);
  return phase;
}

void StartServing(ServeState* state, SetupPhases* phases) {
  state->server.reset();
  state->store = std::make_unique<serve::EmbeddingStore>(state->model.get());
  double start = NowSeconds();
  const core::Status rebuilt = state->store->Rebuild(state->corpus->context);
  HYGNN_CHECK(rebuilt.ok()) << rebuilt.ToString();
  phases->rebuild_ms = (NowSeconds() - start) * 1e3;
  state->server = std::make_unique<serve::Server>(
      state->model.get(), state->store.get(), serve::ServerOptions{});
  start = NowSeconds();
  const core::Status started = state->server->Start();
  HYGNN_CHECK(started.ok()) << started.ToString();
  phases->start_ms = (NowSeconds() - start) * 1e3;
  start = NowSeconds();
  RunAll(*state, state->warmup, /*trace=*/false);
  phases->warmup_ms = (NowSeconds() - start) * 1e3;
}

void SetUp(const ServeSpec& spec, uint64_t seed, int64_t n,
           ServeState* state, SetupPhases* phases) {
  state->corpus = BuildCorpus(data::SubstructureMode::kEspf, phases);
  state->model = InitModel(*state->corpus, SubSeed(seed, 2), phases);
  const int32_t drugs = state->corpus->dataset.num_drugs();
  state->ops =
      MakeStream(n, spec.churn ? kChurnEvery : 0, drugs, SubSeed(seed, 4));
  state->warmup = MakeStream(kWarmupOps, 0, drugs, SubSeed(seed, 5));
  StartServing(state, phases);
}

/// Serial PairScorer::ScorePairs against `snapshot` of the reads in
/// ops [begin, end) pooled into one request; `offsets[i - begin]` is
/// where op i's scores start. Pooling is exact: the scorer's chunk
/// partition is fixed and its decoder row-independent, which is the
/// same contract that lets the server batch requests.
std::vector<float> ScorePooled(
    const ServeState& state, const OpStream& ops, size_t begin, size_t end,
    const std::shared_ptr<const serve::StoreSnapshot>& snapshot,
    std::vector<size_t>* offsets) {
  serve::ScoreRequest pooled;
  offsets->clear();
  for (size_t i = begin; i < end; ++i) {
    offsets->push_back(pooled.pairs.size());
    pooled.pairs.insert(pooled.pairs.end(), ops.reads[i].pairs.begin(),
                        ops.reads[i].pairs.end());
  }
  const serve::PairScorer scorer(state.model.get(), state.store.get());
  auto scored = scorer.ScorePairs(pooled, snapshot);
  HYGNN_CHECK(scored.ok()) << scored.status().ToString();
  return std::move(scored.value().scores);
}

/// Output checks. Every read must be memcmp-equal to serial scoring
/// against the catalog as it was before the phase (pre-existing rows
/// never move, so this also pins "every old pair scores as before");
/// every shortlist must be a strict ScreeningHitBefore order of kTopK
/// distinct catalog drugs other than the query. Returns failed ops.
/// Runs with the clients joined and the server idle, on kVerifyThreads
/// kernel threads, so the process stays within 4 threads.
int64_t CheckOutcomes(const ServeState& state, const OpStream& ops,
                      const Phase& phase,
                      const std::shared_ptr<const serve::StoreSnapshot>& before,
                      Report* report) {
  constexpr int32_t kVerifyThreads = 3;
  constexpr size_t kVerifyChunk = 2000;
  core::SetNumThreads(kVerifyThreads);
  const int32_t rows = state.store->num_drugs();
  int64_t failed = 0;
  int64_t mismatched = 0;
  std::vector<int32_t> added;
  std::vector<size_t> offsets;
  std::vector<float> expected;
  for (size_t i = 0; i < phase.outcomes.size(); ++i) {
    if (i % kVerifyChunk == 0) {
      expected = ScorePooled(
          state, ops, i, std::min(i + kVerifyChunk, phase.outcomes.size()),
          before, &offsets);
    }
    const Outcome& out = phase.outcomes[i];
    bool good = out.ok;
    if (good && ops.onboard[i] < 0) {
      good = out.scores.size() == ops.reads[i].pairs.size() &&
             std::memcmp(expected.data() + offsets[i % kVerifyChunk],
                         out.scores.data(),
                         out.scores.size() * sizeof(float)) == 0;
      mismatched += good ? 0 : 1;
    } else if (good) {
      good = static_cast<int32_t>(out.hits.size()) == kTopK;
      for (size_t h = 0; good && h < out.hits.size(); ++h) {
        const serve::ScreeningHit& hit = out.hits[h];
        good = hit.drug != out.added && hit.drug >= 0 && hit.drug < rows &&
               (h == 0 || serve::ScreeningHitBefore(out.hits[h - 1], hit));
      }
      added.push_back(out.added);
    }
    failed += good ? 0 : 1;
  }
  core::SetNumThreads(1);
  if (mismatched > 0) {
    report->Fail(std::to_string(mismatched) +
                 " served responses differ from serial scoring");
  }
  std::sort(added.begin(), added.end());
  for (size_t j = 0; j < added.size(); ++j) {
    if (added[j] != before->num_drugs() + static_cast<int32_t>(j)) {
      report->Fail("onboarded drugs did not get consecutive new rows");
      break;
    }
  }
  const auto after = state.store->Snapshot();
  for (int32_t drug = 0; drug < before->num_drugs(); ++drug) {
    if (std::memcmp(before->Row(drug), after->Row(drug),
                    static_cast<size_t>(before->dim()) * sizeof(float)) !=
        0) {
      report->Fail("pre-existing drug " + std::to_string(drug) +
                   " changed its embedding row");
      break;
    }
  }
  if (failed > 0) {
    report->Fail(std::to_string(failed) + " ops failed or failed a check");
  }
  return failed;
}

double PairsOf(const OpStream& ops, const std::vector<Outcome>& outcomes,
               size_t begin, size_t end) {
  double pairs = 0.0;
  for (size_t i = begin; i < end; ++i) {
    // A screen scores the new drug against every other catalog row.
    pairs += ops.onboard[i] < 0
                 ? static_cast<double>(ops.reads[i].pairs.size())
                 : static_cast<double>(outcomes[i].added);
  }
  return pairs;
}

double HistogramMean(const char* name) {
  return obs::MetricsRegistry::Global().GetHistogram(name)->mean();
}

void ReportTrace(const ServeState& state, const OpStream& ops,
                 const Phase& traced,
                 const serve::Server::Stats& stats0,
                 const serve::Server::Stats& stats1, uint64_t generation0,
                 Report* report) {
  std::vector<double> read_us, op_ms;
  double submit = 0.0, segment = 0.0, add = 0.0, screen = 0.0, onboard = 0.0;
  double publish_kb = 0.0;
  double onboards = 0.0;
  const double row_kb =
      static_cast<double>(state.store->dim()) * sizeof(float) / 1024.0;
  for (size_t i = 0; i < traced.outcomes.size(); ++i) {
    const Outcome& out = traced.outcomes[i];
    op_ms.push_back(out.ms);
    if (ops.onboard[i] < 0) {
      read_us.push_back(out.ms * 1e3);
      submit += out.submit_us;
    } else {
      onboards += 1.0;
      segment += out.segment_us;
      add += out.add_us;
      screen += out.screen_us;
      onboard += out.ms * 1e3;
      // The publication copies every row of the new epoch.
      publish_kb += static_cast<double>(out.added + 1) * row_kb;
    }
  }
  const double reads = static_cast<double>(read_us.size());
  auto& registry = obs::MetricsRegistry::Global();
  obs::Histogram* queue_wait =
      registry.GetHistogram("serve.server.queue_wait_us");
  const double read_mean = Mean(read_us);
  const double queue_wait_mean = queue_wait->mean();
  const double batch_score = HistogramMean("serve.server.batch_score_us");
  report->Layer("trace.op_mean_ms", Mean(op_ms));
  report->Layer("serve.read_mean_us", read_mean);
  report->Layer("serve.read_p50_us", Median(read_us));
  report->Layer("serve.submit_us", submit / reads);
  report->Layer("serve.queue_wait_mean_us", queue_wait_mean);
  report->Layer("serve.queue_wait_p50_us", queue_wait->Quantile(0.5));
  report->Layer("serve.queue_wait_p99_us", queue_wait->Quantile(0.99));
  report->Layer("serve.batch_score_us", batch_score);
  report->Layer("serve.handoff_us",
                read_mean - submit / reads - queue_wait_mean - batch_score);
  report->Layer("serve.batch_pairs",
                HistogramMean("serve.server.batch_pairs"));
  const double batches = static_cast<double>(stats1.batches - stats0.batches);
  report->Layer("serve.requests_per_batch",
                static_cast<double>(stats1.accepted - stats0.accepted) /
                    batches);
  report->Layer("serve.gather_us", HistogramMean("serve.gather_us"));
  report->Layer("serve.decode_us", HistogramMean("serve.decode_us"));
  if (onboards > 0.0) {
    report->Layer("serve.onboard_mean_us", onboard / onboards);
    report->Layer("chem.segment_us", segment / onboards);
    report->Layer("serve.add_drug_us", add / onboards);
    report->Layer("serve.screen_us", screen / onboards);
    report->Layer("serve.onboard_rest_us",
                  (onboard - segment - add - screen) / onboards);
    report->Layer("serve.publish_kb", publish_kb / onboards);
  }
  report->Layer("serve.generations",
                static_cast<double>(state.store->generation() - generation0));
  report->Layer("serve.shed", static_cast<double>(stats1.shed - stats0.shed));
  report->Layer("serve.expired",
                static_cast<double>(stats1.expired - stats0.expired));
}

/// Serial PairScorer::ScorePairs, on the serving thread count, over the
/// first round's reads pooled into one request, in ns per pair.
double SerialScoreNsPerPair(const ServeState& state, const OpStream& ops) {
  std::vector<size_t> offsets;
  const double start = NowSeconds();
  const std::vector<float> scores = ScorePooled(
      state, ops, 0, std::min<size_t>(kOpsPerRound, ops.reads.size()),
      state.store->Snapshot(), &offsets);
  return (NowSeconds() - start) * 1e9 / static_cast<double>(scores.size());
}

void RunServing(const Options& options, const ServeSpec& spec,
                Report* report) {
  core::SetNumThreads(1);
  const int64_t n = std::llround(options.seconds * spec.ops_per_second);

  std::vector<double> setup_s;
  std::vector<SetupPhases> phases(kSetupRepeats);
  ServeState state;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double start = r == 0 ? options.process_start_s : NowSeconds();
    state = ServeState{};
    SetUp(spec, options.seed, n, &state, &phases[static_cast<size_t>(r)]);
    setup_s.push_back(NowSeconds() - start);
  }
  double read_pairs = 0.0;
  double reads = 0.0;
  for (size_t i = 0; i < state.ops.reads.size(); ++i) {
    if (state.ops.onboard[i] >= 0) continue;
    read_pairs += static_cast<double>(state.ops.reads[i].pairs.size());
    reads += 1.0;
  }
  report->Size("drugs", state.corpus->dataset.num_drugs());
  report->Size("substructures", state.corpus->featurizer.num_substructures());
  report->Size("incidences", static_cast<double>(state.corpus->incidences));
  report->Size("catalog_rows", state.store->num_drugs());
  report->Size("mean_pairs_per_request", read_pairs / reads);
  report->Size("onboarded_drugs",
               static_cast<double>(state.ops.unseen.size()));
  report->Size("ops", static_cast<double>(n));

  const auto before = state.store->Snapshot();
  const Usage usage0 = ReadUsage();
  Phase untraced;
  untraced.outcomes.resize(static_cast<size_t>(n));
  std::vector<Round> rounds;
  for (int64_t begin = 0; begin < n; begin += kOpsPerRound) {
    const size_t lo = static_cast<size_t>(begin);
    const size_t hi = static_cast<size_t>(std::min(n, begin + kOpsPerRound));
    Round round;
    round.wall_s = RunOps(state, state.ops, lo, hi, /*trace=*/false,
                          &untraced.outcomes);
    round.pairs = PairsOf(state.ops, untraced.outcomes, lo, hi);
    for (size_t i = lo; i < hi; ++i) {
      round.op_ms.push_back(untraced.outcomes[i].ms);
    }
    untraced.wall_s += round.wall_s;
    rounds.push_back(std::move(round));
  }
  const Usage usage1 = ReadUsage();
  const serve::Server::Stats stats = state.server->stats();
  report->CountOps(
      n, CheckOutcomes(state, state.ops, untraced, before, report));
  report->Note("server: " + std::to_string(stats.batches) + " batches, " +
               std::to_string(stats.shed) + " shed, " +
               std::to_string(stats.expired) + " expired");
  std::vector<double> op_ms;
  for (const Outcome& out : untraced.outcomes) op_ms.push_back(out.ms);

  if (!options.trace) {
    ReportEndToEnd(setup_s, rounds, report);
    return;
  }

  ReportSetupPhases(phases, report);
  ReportProcess(usage0, usage1, n, untraced.wall_s, report);

  // The traced phase serves the same op stream from a fresh catalog.
  SetupPhases restart;
  StartServing(&state, &restart);
  const auto traced_before = state.store->Snapshot();
  const serve::Server::Stats stats0 = state.server->stats();
  const uint64_t generation0 = state.store->generation();
  obs::MetricsRegistry::Global().ResetValues();
  obs::SetMetricsEnabled(true);
  const Phase traced = RunAll(state, state.ops, /*trace=*/true);
  obs::SetMetricsEnabled(false);
  const serve::Server::Stats stats1 = state.server->stats();
  report->CountOps(
      n, CheckOutcomes(state, state.ops, traced, traced_before, report));
  ReportTrace(state, state.ops, traced, stats0, stats1, generation0, report);
  report->Layer("serve.score_ns_per_pair",
                SerialScoreNsPerPair(state, state.ops));
  std::vector<double> traced_ms;
  for (const Outcome& out : traced.outcomes) traced_ms.push_back(out.ms);
  report->Layer("obs.trace_overhead_frac",
                Median(traced_ms) / Median(op_ms) - 1.0);
}

}  // namespace

void RunServeInteractive(const Options& options, Report* report) {
  RunServing(options, {/*churn=*/false, 7500.0}, report);
}

void RunServeChurn(const Options& options, Report* report) {
  RunServing(options, {/*churn=*/true, 5000.0}, report);
}

}  // namespace hygnn::perfbench
