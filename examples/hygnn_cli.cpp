// hygnn_cli — end-to-end command-line interface over the library,
// working from CSV files so the whole pipeline can be driven without
// writing C++.
//
//   hygnn_cli generate --drugs 150 --seed 7
//       --out_drugs drugs.csv --out_pairs pairs.csv
//   hygnn_cli train   --drugs_csv drugs.csv --pairs_csv pairs.csv
//       --mode espf --epochs 150 --model model.bin
//       [--numerics_guard]   # report first op producing NaN/Inf
//       [--threads N]        # kernel thread pool size (also via the
//                            # HYGNN_NUM_THREADS env var; results are
//                            # bit-identical at any thread count)
//       [--checkpoint_dir d] # durably checkpoint training into d
//       [--checkpoint_every N]  # epochs between checkpoints (default 1)
//       [--resume]           # continue from d's checkpoint, bit-identical
//                            # to a run that never stopped; starts fresh
//                            # when no checkpoint exists yet
//       [--metrics_out f]    # write training observability (per-epoch
//                            # events, latency histograms, per-op kernel
//                            # times) to f as checksummed JSONL; also via
//                            # the HYGNN_METRICS env var. Never perturbs
//                            # training — weights are bit-identical with
//                            # the flag on or off
//   hygnn_cli evaluate --drugs_csv drugs.csv --pairs_csv pairs.csv
//       --mode espf --model model.bin
//   hygnn_cli predict --drugs_csv drugs.csv --mode espf
//       --model model.bin --a DB00003 --b DB00017
//   hygnn_cli screen  --drugs_csv drugs.csv --mode espf
//       --model model.bin --query DB00003 --top 10
//       [--metrics_out f]    # serving-stage latency histograms, cache
//                            # counters, per-op kernel times as JSONL
//   hygnn_cli serve-load --drugs_csv drugs.csv --mode espf
//       --model model.bin --qps 500 --seconds 2
//       [--workers N --max_batch N --max_wait_us N --queue_capacity N]
//       [--pairs_per_request N --submitters N --seed N]
//       [--metrics_out f]    # adds serve.server.* queue-wait/batch-size
//                            # /score-latency histograms to the JSONL
//
// `train` writes a self-describing model bundle (serve::ModelBundle):
// config, substructure vocabulary, and weights in one file. The later
// commands restore the model from the bundle alone — no architecture
// flags needed — and only use the drugs CSV for the catalog hypergraph
// and DrugBank-id lookup. `screen` serves ranked interaction partners
// from the cached embedding store.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/flags.h"
#include "data/featurize.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/pairs.h"
#include "graph/builders.h"
#include "hygnn/model.h"
#include "hygnn/trainer.h"
#include "obs/metrics.h"
#include "obs/optime.h"
#include "obs/sink.h"
#include "core/rng.h"
#include "serve/embedding_store.h"
#include "serve/loadgen.h"
#include "serve/request.h"
#include "serve/scoring.h"
#include "serve/server.h"

namespace {

using namespace hygnn;

data::FeaturizeConfig FeatConfigFromFlags(const core::FlagParser& flags) {
  data::FeaturizeConfig config;
  const std::string mode = flags.GetString("mode", "espf");
  if (mode == "kmer") {
    config.mode = data::SubstructureMode::kKmer;
  } else if (mode == "strobemer") {
    config.mode = data::SubstructureMode::kStrobemer;
  } else {
    config.mode = data::SubstructureMode::kEspf;
  }
  config.espf_frequency_threshold = flags.GetInt("espf_threshold", 3);
  config.kmer_k = flags.GetInt("kmer_k", 6);
  return config;
}

model::HyGnnConfig ModelConfigFromFlags(const core::FlagParser& flags) {
  model::HyGnnConfig config;
  const int64_t dim = flags.GetInt("hidden_dim", 64);
  config.encoder.hidden_dim = dim;
  config.encoder.output_dim = dim;
  config.num_layers = static_cast<int32_t>(flags.GetInt("layers", 1));
  config.decoder = flags.GetString("decoder", "mlp") == "dot"
                       ? model::DecoderKind::kDot
                       : model::DecoderKind::kMlp;
  config.decoder_hidden_dim = dim;
  return config;
}

int Fail(const core::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Flags every corpus-loading command understands (LoadCorpus +
/// FeatConfigFromFlags + ModelConfigFromFlags).
const std::vector<std::string> kCorpusFlags = {
    "drugs_csv", "mode", "espf_threshold", "kmer_k",
    "hidden_dim", "layers", "decoder"};

std::vector<std::string> KnownFlags(std::vector<std::string> extra) {
  extra.insert(extra.end(), kCorpusFlags.begin(), kCorpusFlags.end());
  return extra;
}

int CmdGenerate(const core::FlagParser& flags) {
  if (auto s = flags.RequireKnown(
          {"drugs", "seed", "out_drugs", "out_pairs"});
      !s.ok()) {
    return Fail(s);
  }
  data::DatasetConfig config;
  config.num_drugs = static_cast<int32_t>(flags.GetInt("drugs", 150));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  auto dataset_or = data::GenerateDataset(config);
  if (!dataset_or.ok()) return Fail(dataset_or.status());
  const auto& dataset = dataset_or.value();

  core::Rng rng(config.seed ^ 0x1234);
  auto pairs = data::BuildBalancedPairs(dataset, &rng);

  const std::string drugs_path = flags.GetString("out_drugs", "drugs.csv");
  const std::string pairs_path = flags.GetString("out_pairs", "pairs.csv");
  if (auto s = data::WriteDrugsCsv(dataset.drugs(), drugs_path); !s.ok()) {
    return Fail(s);
  }
  if (auto s = data::WritePairsCsv(pairs, pairs_path); !s.ok()) {
    return Fail(s);
  }
  std::printf("wrote %d drugs to %s and %zu labeled pairs to %s\n",
              dataset.num_drugs(), drugs_path.c_str(), pairs.size(),
              pairs_path.c_str());
  return 0;
}

/// Shared loading for train/evaluate/predict.
struct LoadedCorpus {
  std::vector<data::DrugRecord> drugs;
  data::SubstructureFeaturizer featurizer;
  model::HypergraphContext context;
};

core::Result<LoadedCorpus> LoadCorpus(const core::FlagParser& flags) {
  auto drugs_or =
      data::ReadDrugsCsv(flags.GetString("drugs_csv", "drugs.csv"));
  if (!drugs_or.ok()) return drugs_or.status();
  auto featurizer_or = data::SubstructureFeaturizer::Build(
      drugs_or.value(), FeatConfigFromFlags(flags));
  if (!featurizer_or.ok()) return featurizer_or.status();
  auto hypergraph = graph::BuildDrugHypergraph(
      featurizer_or.value().drug_substructures(),
      featurizer_or.value().num_substructures());
  LoadedCorpus corpus{std::move(drugs_or).value(),
                      std::move(featurizer_or).value(),
                      model::HypergraphContext::FromHypergraph(hypergraph)};
  return corpus;
}

int CmdTrain(const core::FlagParser& flags) {
  // A typo'd flag must fail loudly: --resme silently starting a 600-epoch
  // run from scratch is exactly the failure mode --resume exists to stop.
  if (auto s = flags.RequireKnown(KnownFlags(
          {"pairs_csv", "seed", "epochs", "numerics_guard", "threads",
           "model", "checkpoint_dir", "checkpoint_every", "resume",
           "metrics_out"}));
      !s.ok()) {
    return Fail(s);
  }
  auto corpus_or = LoadCorpus(flags);
  if (!corpus_or.ok()) return Fail(corpus_or.status());
  auto& corpus = corpus_or.value();
  auto pairs_or =
      data::ReadPairsCsv(flags.GetString("pairs_csv", "pairs.csv"));
  if (!pairs_or.ok()) return Fail(pairs_or.status());
  if (auto s = data::ValidatePairs(
          pairs_or.value(),
          static_cast<int32_t>(corpus.drugs.size()));
      !s.ok()) {
    return Fail(s);
  }

  core::Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
  model::HyGnnModel hygnn(corpus.featurizer.num_substructures(),
                          ModelConfigFromFlags(flags), &rng);
  model::TrainConfig train_config;
  train_config.epochs = static_cast<int32_t>(flags.GetInt("epochs", 150));
  train_config.verbose = true;
  train_config.log_every = 25;
  train_config.numerics_guard = flags.GetBool("numerics_guard", false);
  train_config.threads = static_cast<int32_t>(flags.GetInt("threads", 0));
  train_config.checkpoint_dir = flags.GetString("checkpoint_dir", "");
  train_config.checkpoint_every =
      static_cast<int32_t>(flags.GetInt("checkpoint_every", 1));
  train_config.resume = flags.GetBool("resume", false);
  train_config.metrics_path = flags.GetString("metrics_out", "");
  model::HyGnnTrainer trainer(&hygnn, train_config);
  auto loss_or = trainer.TryFit(corpus.context, pairs_or.value());
  if (!loss_or.ok()) return Fail(loss_or.status());
  const float loss = loss_or.value();
  std::printf("final training loss: %.4f\n", loss);

  const std::string model_path = flags.GetString("model", "model.bin");
  if (auto s = hygnn.Save(model_path, corpus.featurizer.vocabulary());
      !s.ok()) {
    return Fail(s);
  }
  std::printf("saved model bundle to %s\n", model_path.c_str());
  return 0;
}

int CmdEvaluate(const core::FlagParser& flags) {
  if (auto s = flags.RequireKnown(KnownFlags({"pairs_csv", "model"}));
      !s.ok()) {
    return Fail(s);
  }
  auto corpus_or = LoadCorpus(flags);
  if (!corpus_or.ok()) return Fail(corpus_or.status());
  auto& corpus = corpus_or.value();
  auto pairs_or =
      data::ReadPairsCsv(flags.GetString("pairs_csv", "pairs.csv"));
  if (!pairs_or.ok()) return Fail(pairs_or.status());
  if (auto s = data::ValidatePairs(
          pairs_or.value(),
          static_cast<int32_t>(corpus.drugs.size()));
      !s.ok()) {
    return Fail(s);
  }

  auto hygnn_or = model::HyGnnModel::Load(flags.GetString("model", "model.bin"));
  if (!hygnn_or.ok()) return Fail(hygnn_or.status());
  auto& hygnn = hygnn_or.value();
  if (hygnn.input_dim() != corpus.featurizer.num_substructures()) {
    return Fail(core::Status::FailedPrecondition(
        "bundle vocabulary does not match the drugs CSV featurization"));
  }
  auto scores = hygnn.PredictProbabilities(corpus.context, pairs_or.value());
  auto result =
      metrics::EvaluateBinary(scores, model::LabelsOf(pairs_or.value()));
  std::printf("F1 %.3f  ROC-AUC %.3f  PR-AUC %.3f  (%zu pairs)\n",
              result.f1, result.roc_auc, result.pr_auc,
              pairs_or.value().size());
  return 0;
}

int CmdPredict(const core::FlagParser& flags) {
  if (auto s = flags.RequireKnown(KnownFlags({"model", "a", "b"}));
      !s.ok()) {
    return Fail(s);
  }
  auto corpus_or = LoadCorpus(flags);
  if (!corpus_or.ok()) return Fail(corpus_or.status());
  auto& corpus = corpus_or.value();

  auto find_drug = [&corpus](const std::string& id) -> int32_t {
    for (const auto& drug : corpus.drugs) {
      if (drug.drugbank_id == id || drug.name == id) return drug.index;
    }
    return -1;
  };
  const int32_t a = find_drug(flags.GetString("a", ""));
  const int32_t b = find_drug(flags.GetString("b", ""));
  if (a < 0 || b < 0) {
    std::fprintf(stderr, "error: --a/--b must name drugs from the CSV\n");
    return 1;
  }

  auto hygnn_or = model::HyGnnModel::Load(flags.GetString("model", "model.bin"));
  if (!hygnn_or.ok()) return Fail(hygnn_or.status());
  auto& hygnn = hygnn_or.value();
  std::vector<data::LabeledPair> query{{a, b, 0.0f}};
  auto scores = hygnn.PredictProbabilities(corpus.context, query);
  std::printf("%s + %s -> interaction probability %.4f\n",
              corpus.drugs[static_cast<size_t>(a)].drugbank_id.c_str(),
              corpus.drugs[static_cast<size_t>(b)].drugbank_id.c_str(),
              scores[0]);
  return 0;
}

int CmdScreen(const core::FlagParser& flags) {
  if (auto s = flags.RequireKnown(
          KnownFlags({"model", "query", "top", "metrics_out"}));
      !s.ok()) {
    return Fail(s);
  }
  // Serving observability: per-stage latency histograms, cache
  // counters, and per-op kernel times, flushed as checksummed JSONL.
  obs::MetricsRecorder recorder(flags.GetString("metrics_out", ""));
  std::optional<obs::ScopedMetricsEnabled> metrics_scope;
  if (recorder.active()) {
    metrics_scope.emplace(true);
    obs::SetKernelTimingEnabled(true);
  }
  auto corpus_or = LoadCorpus(flags);
  if (!corpus_or.ok()) return Fail(corpus_or.status());
  auto& corpus = corpus_or.value();

  auto hygnn_or = model::HyGnnModel::Load(flags.GetString("model", "model.bin"));
  if (!hygnn_or.ok()) return Fail(hygnn_or.status());
  auto& hygnn = hygnn_or.value();

  int32_t query = -1;
  const std::string id = flags.GetString("query", "");
  for (const auto& drug : corpus.drugs) {
    if (drug.drugbank_id == id || drug.name == id) query = drug.index;
  }
  if (query < 0) {
    std::fprintf(stderr, "error: --query must name a drug from the CSV\n");
    return 1;
  }

  serve::EmbeddingStore store(&hygnn);
  if (auto s = store.Rebuild(corpus.context); !s.ok()) return Fail(s);
  serve::ScreeningEngine engine(&hygnn, &store);
  serve::ScreenRequest request;
  request.query = query;
  request.top_k = static_cast<int32_t>(flags.GetInt("top", 10));
  auto response = engine.Screen(request);
  if (!response.ok()) return Fail(response.status());
  const auto& hits = response.value().hits;
  std::printf("top %zu interaction candidates for %s:\n", hits.size(),
              corpus.drugs[static_cast<size_t>(query)].drugbank_id.c_str());
  for (const auto& hit : hits) {
    const auto& drug = corpus.drugs[static_cast<size_t>(hit.drug)];
    std::printf("  %-10s %-20s %.4f\n", drug.drugbank_id.c_str(),
                drug.name.c_str(), hit.score);
  }
  if (recorder.active()) {
    obs::SetKernelTimingEnabled(false);
    if (auto s = recorder.Flush(); !s.ok()) return Fail(s);
    std::printf("wrote metrics to %s\n", recorder.path().c_str());
  }
  return 0;
}

/// serve-load: stands up an in-process serve::Server over the model
/// bundle's embedding cache and drives it open-loop at --qps for
/// --seconds, reporting sustained QPS, end-to-end latency percentiles,
/// and how many requests admission control shed. --timeout_us stamps a
/// per-request deadline (expired requests are reported separately) and
/// --retry resubmits shed requests with jittered backoff.
int CmdServeLoad(const core::FlagParser& flags) {
  if (auto s = flags.RequireKnown(KnownFlags(
          {"model", "queue_capacity", "max_batch", "max_wait_us", "workers",
           "qps", "seconds", "pairs_per_request", "submitters", "seed",
           "timeout_us", "retry", "metrics_out"}));
      !s.ok()) {
    return Fail(s);
  }
  obs::MetricsRecorder recorder(flags.GetString("metrics_out", ""));
  std::optional<obs::ScopedMetricsEnabled> metrics_scope;
  if (recorder.active()) metrics_scope.emplace(true);
  auto corpus_or = LoadCorpus(flags);
  if (!corpus_or.ok()) return Fail(corpus_or.status());
  auto& corpus = corpus_or.value();
  auto hygnn_or =
      model::HyGnnModel::Load(flags.GetString("model", "model.bin"));
  if (!hygnn_or.ok()) return Fail(hygnn_or.status());
  auto& hygnn = hygnn_or.value();

  serve::EmbeddingStore store(&hygnn);
  if (auto s = store.Rebuild(corpus.context); !s.ok()) return Fail(s);

  serve::ServerOptions options;
  options.queue_capacity =
      static_cast<int32_t>(flags.GetInt("queue_capacity", 256));
  options.max_batch = static_cast<int32_t>(flags.GetInt("max_batch", 64));
  options.max_wait_us = flags.GetInt("max_wait_us", 1000);
  options.workers = static_cast<int32_t>(flags.GetInt("workers", 2));
  serve::Server server(&hygnn, &store, options);
  if (auto s = server.Start(); !s.ok()) return Fail(s);

  // A fixed pool of random in-catalog requests the submitters cycle
  // through; seeded, so two runs offer identical work.
  const int32_t catalog = store.num_drugs();
  if (catalog < 2) {
    return Fail(core::Status::FailedPrecondition(
        "serving catalog needs at least 2 drugs"));
  }
  const auto pairs_per_request =
      static_cast<int32_t>(flags.GetInt("pairs_per_request", 8));
  core::Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 42)));
  std::vector<serve::ScoreRequest> pool(64);
  for (auto& request : pool) {
    request.pairs.reserve(static_cast<size_t>(pairs_per_request));
    for (int32_t i = 0; i < pairs_per_request; ++i) {
      const auto a = static_cast<int32_t>(
          rng.UniformInt(static_cast<uint64_t>(catalog)));
      auto b = static_cast<int32_t>(
          rng.UniformInt(static_cast<uint64_t>(catalog - 1)));
      if (b >= a) ++b;
      request.pairs.push_back({a, b, 0.0f});
    }
  }

  serve::LoadConfig load;
  load.offered_qps = flags.GetDouble("qps", 500.0);
  load.duration_seconds = flags.GetDouble("seconds", 2.0);
  load.submitters = static_cast<int32_t>(flags.GetInt("submitters", 2));
  // --timeout_us stamps a per-request deadline (0 = none); --retry
  // turns on jittered-backoff retries of shed/doomed submissions.
  load.timeout_us = flags.GetInt("timeout_us", 0);
  load.retry = flags.GetBool("retry", false);
  if (load.offered_qps <= 0.0 || load.duration_seconds <= 0.0 ||
      load.submitters < 1 || load.timeout_us < 0) {
    return Fail(core::Status::InvalidArgument(
        "--qps, --seconds and --timeout_us must be positive, "
        "--submitters >= 1"));
  }
  const auto report = serve::RunLoad(&server, pool, load);
  server.Shutdown();
  const auto stats = server.stats();

  std::printf("serve-load: offered %.0f req/s for %.1fs "
              "(workers=%d max_batch=%d max_wait_us=%lld queue=%d)\n",
              report.offered_qps, report.duration_seconds, options.workers,
              options.max_batch,
              static_cast<long long>(options.max_wait_us),
              options.queue_capacity);
  std::printf("  requests %llu (%llu attempts)  completed %llu  shed %llu  "
              "failed %llu  expired %llu\n",
              static_cast<unsigned long long>(report.submitted),
              static_cast<unsigned long long>(report.attempts),
              static_cast<unsigned long long>(report.completed),
              static_cast<unsigned long long>(report.shed),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.expired));
  if (load.retry) {
    std::printf("  retries: %llu backed-off resubmits, %llu eventually "
                "accepted\n",
                static_cast<unsigned long long>(report.retried),
                static_cast<unsigned long long>(report.retried_ok));
  }
  std::printf("  sustained %.0f req/s  latency p50 %.0f us  p95 %.0f us  "
              "p99 %.0f us\n",
              report.sustained_qps, report.p50_us, report.p95_us,
              report.p99_us);
  std::printf("  server: %llu batches for %llu requests (%.1f req/batch)\n",
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.completed),
              stats.batches > 0
                  ? static_cast<double>(stats.completed) /
                        static_cast<double>(stats.batches)
                  : 0.0);
  if (recorder.active()) {
    if (auto s = recorder.Flush(); !s.ok()) return Fail(s);
    std::printf("wrote metrics to %s\n", recorder.path().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  core::FlagParser flags;
  if (!flags.Parse(argc, argv).ok() || flags.positional().empty()) {
    std::fprintf(stderr,
                 "usage: hygnn_cli "
                 "<generate|train|evaluate|predict|screen|serve-load> "
                 "[flags]\n");
    return 1;
  }
  const std::string& command = flags.positional()[0];
  if (command == "generate") return CmdGenerate(flags);
  if (command == "train") return CmdTrain(flags);
  if (command == "evaluate") return CmdEvaluate(flags);
  if (command == "predict") return CmdPredict(flags);
  if (command == "screen") return CmdScreen(flags);
  if (command == "serve-load") return CmdServeLoad(flags);
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 1;
}
