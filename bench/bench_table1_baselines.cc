// Reproduces Table I of the HyGNN paper: F1 / ROC-AUC / PR-AUC for the
// four baseline families and the four HyGNN variants (ESPF/k-mer x
// MLP/Dot), averaged over `--runs` repeated train/test splits.
//
// Scaled-down defaults; paper scale:
//   bench_table1_baselines --drugs 824 --epochs 600 --runs 5
//       --espf_threshold 5 --kmer_k 10

#include <cstdio>
#include <functional>
#include <vector>

#include "bench/experiment.h"
#include "obs/metrics.h"

namespace hygnn::bench {
namespace {

using baselines::BaselineConfig;
using baselines::GnnKind;
using baselines::MlKind;
using baselines::RweKind;

struct TableEntry {
  std::string group;
  std::string method;
  std::function<model::EvalResult(const Round&)> run;
};

int Main(int argc, const char* const* argv) {
  core::FlagParser flags;
  if (!flags.Parse(argc, argv).ok()) return 1;
  ExperimentConfig config = ExperimentConfig::FromFlags(flags);
  ExperimentContext context(config);
  const BaselineConfig baseline_config = config.ToBaselineConfig();

  std::vector<TableEntry> entries;
  for (GnnKind kind : {GnnKind::kGcn, GnnKind::kSage, GnnKind::kGat}) {
    entries.push_back({"GNN on DDI graph", baselines::GnnKindName(kind),
                       [kind, &baseline_config](const Round& round) {
                         return RunGnnOnDdiGraph(round.MakeBaselineInputs(),
                                                 kind, baseline_config);
                       }});
  }
  for (RweKind kind : {RweKind::kNode2Vec, RweKind::kDeepWalk}) {
    entries.push_back({"RWE on DDI graph", baselines::RweKindName(kind),
                       [kind, &baseline_config](const Round& round) {
                         return RunRweOnDdiGraph(round.MakeBaselineInputs(),
                                                 kind, baseline_config);
                       }});
  }
  for (GnnKind kind : {GnnKind::kGcn, GnnKind::kSage, GnnKind::kGat}) {
    entries.push_back({"GNN on SSG graph", baselines::GnnKindName(kind),
                       [kind, &baseline_config](const Round& round) {
                         return RunGnnOnSsg(round.MakeBaselineInputs(),
                                            kind, baseline_config);
                       }});
  }
  for (MlKind kind : {MlKind::kNn, MlKind::kLr, MlKind::kKnn}) {
    entries.push_back(
        {"ML on drugs' FR", baselines::MlKindName(kind),
         [kind, &baseline_config](const Round& round) {
           return RunMlOnFunctionalRepresentation(
               round.MakeBaselineInputs(), kind, baseline_config);
         }});
  }
  const struct {
    HyGnnFeatures features;
    model::DecoderKind decoder;
    const char* name;
  } hygnn_variants[] = {
      {HyGnnFeatures::kEspf, model::DecoderKind::kMlp, "ESPF & MLP"},
      {HyGnnFeatures::kEspf, model::DecoderKind::kDot, "ESPF & Dot"},
      {HyGnnFeatures::kKmer, model::DecoderKind::kMlp, "k-mer & MLP"},
      {HyGnnFeatures::kKmer, model::DecoderKind::kDot, "k-mer & Dot"},
  };
  for (const auto& variant : hygnn_variants) {
    entries.push_back({"HyGNN", variant.name,
                       [&variant, &config](const Round& round) {
                         return RunHyGnnVariant(round, variant.features,
                                                variant.decoder, config);
                       }});
  }

  // Optional substring filter (e.g. --only HyGNN) for quick iteration.
  const std::string only = flags.GetString("only", "");

  std::printf("=== Table I: DDI prediction, %d drugs, %d runs, %d epochs "
              "===\n",
              config.num_drugs, config.runs, config.epochs);
  PrintTableHeader();
  obs::Timer total;
  for (const auto& entry : entries) {
    if (!only.empty() &&
        entry.group.find(only) == std::string::npos &&
        entry.method.find(only) == std::string::npos) {
      continue;
    }
    obs::Timer watch;
    std::vector<model::EvalResult> results;
    for (int32_t run = 0; run < config.runs; ++run) {
      results.push_back(entry.run(context.MakeRound(run)));
    }
    PrintTableRow(entry.group, entry.method, Aggregate(results));
    if (config.verbose) {
      std::fprintf(stderr, "  [%s %s took %.1fs]\n", entry.group.c_str(),
                   entry.method.c_str(), watch.ElapsedSeconds());
    }
  }
  std::printf("total time: %.1fs\n", total.ElapsedSeconds());
  return 0;
}

}  // namespace
}  // namespace hygnn::bench

int main(int argc, char** argv) { return hygnn::bench::Main(argc, argv); }
