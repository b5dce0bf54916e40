// Self-tests of the benchmark's own machinery. Run with
//   python3 perfbench/run.py --selftest
// Exits non-zero when any check fails.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/logging.h"
#include "core/rng.h"
#include "data/featurize.h"
#include "data/generator.h"
#include "graph/builders.h"
#include "hygnn/trainer.h"
#include "setup.h"
#include "stats.h"
#include "step.h"

namespace hygnn::perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool SameFloats(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<float> Weights(const model::HyGnnModel& model) {
  std::vector<float> flat;
  for (const auto& p : model.Parameters()) {
    flat.insert(flat.end(), p.data(), p.data() + p.size());
  }
  return flat;
}

/// A small corpus so Fit runs in well under a second.
struct SmallCorpus {
  data::DdiDataset dataset;
  data::SubstructureFeaturizer featurizer;
  model::HypergraphContext context;
  data::PairSplit split;
};

SmallCorpus MakeSmallCorpus(data::SubstructureMode mode) {
  data::DatasetConfig config;
  config.num_drugs = 60;
  config.seed = 11;
  auto dataset = data::GenerateDataset(config);
  HYGNN_CHECK(dataset.ok());
  data::FeaturizeConfig features;
  features.mode = mode;
  features.espf_frequency_threshold = 3;
  features.kmer_k = 6;
  auto featurizer =
      data::SubstructureFeaturizer::Build(dataset.value().drugs(), features);
  HYGNN_CHECK(featurizer.ok());
  const auto hypergraph =
      graph::BuildDrugHypergraph(featurizer.value().drug_substructures(),
                                 featurizer.value().num_substructures());
  auto context = model::HypergraphContext::FromHypergraph(hypergraph);
  SetupPhases phases;
  data::PairSplit split = SplitPairs(dataset.value(), 5, &phases);
  return {std::move(dataset).value(), std::move(featurizer).value(),
          std::move(context), std::move(split)};
}

/// The step runner, traced or not, must follow Fit's trajectory bit for
/// bit: the same per-epoch losses and the same final weights.
void TestStepRunnerMatchesFit(data::SubstructureMode mode, int32_t batch_size,
                              const std::string& name) {
  const SmallCorpus corpus = MakeSmallCorpus(mode);
  const int64_t inputs = corpus.featurizer.num_substructures();
  model::TrainConfig config = MakeTrainConfig(21, batch_size);
  config.epochs = 4;

  core::Rng fit_rng(3);
  model::HyGnnModel fit_model(inputs, model::HyGnnConfig{}, &fit_rng);
  model::HyGnnTrainer trainer(&fit_model, config);
  trainer.Fit(corpus.context, corpus.split.train);

  for (const bool trace : {false, true}) {
    core::Rng rng(3);
    model::HyGnnModel step_model(inputs, model::HyGnnConfig{}, &rng);
    StepRunner runner(&step_model, &corpus.context, corpus.split.train,
                      config);
    std::vector<float> epoch_losses;
    while (static_cast<int32_t>(epoch_losses.size()) < config.epochs) {
      StepTrace step_trace;
      runner.Step(trace ? &step_trace : nullptr);
      if (runner.epoch_done()) epoch_losses.push_back(runner.epoch_loss());
    }
    const std::string label =
        name + (trace ? " (traced)" : "") + ": step runner reproduces Fit";
    Expect(SameFloats(epoch_losses, trainer.epoch_losses()),
           label + " epoch losses");
    Expect(SameFloats(Weights(step_model), Weights(fit_model)),
           label + " weights");
  }
}

bool SameStream(const OpStream& a, const OpStream& b) {
  if (a.onboard != b.onboard || a.unseen != b.unseen ||
      a.reads.size() != b.reads.size()) {
    return false;
  }
  for (size_t i = 0; i < a.reads.size(); ++i) {
    const auto& x = a.reads[i].pairs;
    const auto& y = b.reads[i].pairs;
    if (x.size() != y.size()) return false;
    for (size_t j = 0; j < x.size(); ++j) {
      if (x[j].a != y[j].a || x[j].b != y[j].b) return false;
    }
  }
  return true;
}

void TestStreamsDependOnlyOnSeed() {
  const OpStream a = MakeStream(400, 20, 824, 7);
  const OpStream b = MakeStream(400, 20, 824, 7);
  const OpStream c = MakeStream(400, 20, 824, 8);
  Expect(SameStream(a, b), "op stream: same seed, same ops");
  Expect(!SameStream(a, c), "op stream: another seed, other ops");
  bool valid = a.unseen.size() == 20;
  for (size_t i = 0; i < a.reads.size(); ++i) {
    valid &= (a.onboard[i] >= 0) == (i % 20 == 19);
    const auto& pairs = a.reads[i].pairs;
    if (a.onboard[i] >= 0) continue;
    valid &= pairs.size() >= 1 && pairs.size() <= 120;
    for (const auto& p : pairs) valid &= p.a < p.b && p.b < 824;
  }
  Expect(valid, "op stream: medication lists and onboard cadence");

  SetupPhases phases;
  data::DatasetConfig config;
  config.num_drugs = 60;
  const auto dataset = data::GenerateDataset(config);
  HYGNN_CHECK(dataset.ok());
  const auto s1 = SplitPairs(dataset.value(), 9, &phases);
  const auto s2 = SplitPairs(dataset.value(), 9, &phases);
  const auto s3 = SplitPairs(dataset.value(), 10, &phases);
  auto same_split = [](const data::PairSplit& x, const data::PairSplit& y) {
    if (x.train.size() != y.train.size()) return false;
    for (size_t i = 0; i < x.train.size(); ++i) {
      if (x.train[i].a != y.train[i].a || x.train[i].b != y.train[i].b) {
        return false;
      }
    }
    return true;
  };
  Expect(same_split(s1, s2) && !same_split(s1, s3),
         "split: depends only on the seed");
  Expect(s1.train.size() == s3.train.size(),
         "split: train size is the same for every seed");
}

void TestTail() {
  auto ramp = [](int64_t n) {
    std::vector<double> v;
    for (int64_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
    return v;
  };
  struct Case {
    int64_t n;
    double percentile;
    double value;
    int64_t beyond;
  };
  for (const Case& c : {Case{19, 0.0, 0.0, 0}, Case{20, 50.0, 10.0, 10},
                        Case{40, 75.0, 30.0, 10}, Case{100, 90.0, 90.0, 10},
                        Case{1000, 99.0, 990.0, 10},
                        Case{9999, 99.0, 9900.0, 99},
                        Case{10000, 99.9, 9990.0, 10},
                        Case{45000, 99.9, 44955.0, 45}}) {
    const Tail tail = TailOf(ramp(c.n));
    std::string what = "tail of " + std::to_string(c.n) + " samples is ";
    what += tail.valid() ? tail.Label() : "undefined";
    Expect(tail.percentile == c.percentile && tail.value == c.value &&
               tail.beyond == c.beyond && tail.samples == c.n &&
               tail.valid() == (c.percentile > 0.0),
           what);
  }
  Expect(TailOf(ramp(1000)).Label() == "p99", "tail label p99");
  Expect(TailOf(ramp(10000)).Label() == "p99.9", "tail label p99.9");
  Expect(Percentile({3.0, 1.0, 2.0, 4.0}, 50.0) == 2.0,
         "nearest-rank median of an even sample");
}

}  // namespace
}  // namespace hygnn::perfbench

int main() {
  using namespace hygnn;
  perfbench::TestTail();
  perfbench::TestStreamsDependOnlyOnSeed();
  perfbench::TestStepRunnerMatchesFit(data::SubstructureMode::kEspf, 0,
                                      "full batch (ESPF)");
  perfbench::TestStepRunnerMatchesFit(data::SubstructureMode::kKmer, 64,
                                      "mini-batch (k-mer)");
  std::printf("%d failure(s)\n", perfbench::g_failures);
  return perfbench::g_failures == 0 ? 0 : 1;
}
