// Reproduces Figure 2 of the HyGNN paper: F1 vs training fraction
// (30% .. 70%) for the best model of each family — Node2Vec (RWE),
// GraphSAGE (GNN on DDI), GraphSAGE (GNN on SSG), LR (ML on FR) and
// HyGNN with k-mer & MLP.
//
// Prints one row per training fraction with one column per model, the
// series the paper plots.

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

struct Series {
  std::string name;
  std::function<model::EvalResult(const Round&)> run;
};

int Main(int argc, const char* const* argv) {
  core::FlagParser flags;
  if (!flags.Parse(argc, argv).ok()) return 1;
  ExperimentConfig config = ExperimentConfig::FromFlags(flags);
  ExperimentContext context(config);
  const BaselineConfig baseline_config = config.ToBaselineConfig();

  const std::vector<Series> series = {
      {"Node2Vec",
       [&baseline_config](const Round& round) {
         return RunRweOnDdiGraph(round.MakeBaselineInputs(),
                                 RweKind::kNode2Vec, baseline_config);
       }},
      {"SAGE-DDI",
       [&baseline_config](const Round& round) {
         return RunGnnOnDdiGraph(round.MakeBaselineInputs(), GnnKind::kSage,
                                 baseline_config);
       }},
      {"SAGE-SSG",
       [&baseline_config](const Round& round) {
         return RunGnnOnSsg(round.MakeBaselineInputs(), GnnKind::kSage,
                            baseline_config);
       }},
      {"LR-FR",
       [&baseline_config](const Round& round) {
         return RunMlOnFunctionalRepresentation(round.MakeBaselineInputs(),
                                                MlKind::kLr,
                                                baseline_config);
       }},
      {"HyGNN",
       [&config](const Round& round) {
         return RunHyGnnVariant(round, HyGnnFeatures::kKmer,
                                model::DecoderKind::kMlp, config);
       }},
  };

  const std::vector<double> fractions{0.3, 0.4, 0.5, 0.6, 0.7};

  std::printf("=== Figure 2: F1 vs training size, %d drugs, %d runs ===\n",
              config.num_drugs, config.runs);
  std::printf("%-10s", "train%");
  for (const auto& s : series) std::printf(" %10s", s.name.c_str());
  std::printf("\n%s\n", std::string(10 + 11 * series.size(), '-').c_str());

  obs::Timer total;
  for (double fraction : fractions) {
    std::printf("%-10.0f", fraction * 100.0);
    for (const auto& s : series) {
      std::vector<model::EvalResult> results;
      for (int32_t run = 0; run < config.runs; ++run) {
        results.push_back(s.run(context.MakeRound(run, fraction)));
      }
      std::printf(" %10.3f", Aggregate(results).f1.mean);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("total time: %.1fs\n", total.ElapsedSeconds());
  return 0;
}

}  // namespace
}  // namespace hygnn::bench

int main(int argc, char** argv) { return hygnn::bench::Main(argc, argv); }
