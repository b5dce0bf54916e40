#include "setup.h"

#include <algorithm>
#include <utility>

#include "core/logging.h"
#include "core/rng.h"
#include "graph/builders.h"
#include "stats.h"

namespace hygnn::perfbench {

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + (stream + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

double MsSince(double start_s) { return (NowSeconds() - start_s) * 1e3; }

data::DdiDataset Generate(int32_t num_drugs, uint64_t seed) {
  data::DatasetConfig config;
  config.num_drugs = num_drugs;
  config.seed = seed;
  auto dataset = data::GenerateDataset(config);
  HYGNN_CHECK(dataset.ok()) << dataset.status().ToString();
  return std::move(dataset).value();
}

}  // namespace

std::unique_ptr<Corpus> BuildCorpus(data::SubstructureMode mode,
                                    SetupPhases* phases) {
  double start = NowSeconds();
  data::DdiDataset dataset = Generate(kCorpusDrugs, kCorpusSeed);
  phases->generate_ms = MsSince(start);

  start = NowSeconds();
  data::FeaturizeConfig config;
  config.mode = mode;
  config.espf_frequency_threshold = kEspfThreshold;
  config.kmer_k = kKmerK;
  auto featurizer = data::SubstructureFeaturizer::Build(dataset.drugs(),
                                                        config);
  HYGNN_CHECK(featurizer.ok()) << featurizer.status().ToString();
  phases->featurize_ms = MsSince(start);

  start = NowSeconds();
  const graph::Hypergraph hypergraph = graph::BuildDrugHypergraph(
      featurizer.value().drug_substructures(),
      featurizer.value().num_substructures());
  model::HypergraphContext context =
      model::HypergraphContext::FromHypergraph(hypergraph);
  phases->hypergraph_ms = MsSince(start);

  return std::make_unique<Corpus>(Corpus{std::move(dataset),
                                         std::move(featurizer).value(),
                                         std::move(context),
                                         hypergraph.num_incidences()});
}

std::vector<std::string> UnseenSmiles(int32_t count, uint64_t seed) {
  const data::DdiDataset unseen = Generate(count, seed);
  std::vector<std::string> smiles;
  smiles.reserve(static_cast<size_t>(count));
  for (const auto& drug : unseen.drugs()) smiles.push_back(drug.smiles);
  return smiles;
}

data::PairSplit SplitPairs(const data::DdiDataset& dataset, uint64_t seed,
                           SetupPhases* phases) {
  const double start = NowSeconds();
  core::Rng rng(seed);
  auto pairs = data::BuildBalancedPairs(dataset, &rng);
  data::PairSplit split =
      data::RandomSplit(std::move(pairs), kTrainFraction, &rng);
  phases->split_ms = MsSince(start);
  return split;
}

std::unique_ptr<model::HyGnnModel> InitModel(const Corpus& corpus,
                                             uint64_t seed,
                                             SetupPhases* phases) {
  const double start = NowSeconds();
  core::Rng rng(seed);
  auto model = std::make_unique<model::HyGnnModel>(
      corpus.featurizer.num_substructures(), model::HyGnnConfig{}, &rng);
  phases->init_ms = MsSince(start);
  return model;
}

OpStream MakeStream(int64_t n, int64_t onboard_every, int32_t num_drugs,
                    uint64_t seed) {
  OpStream stream;
  core::Rng rng(seed);
  int32_t onboards = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (onboard_every > 0 && i % onboard_every == onboard_every - 1) {
      stream.reads.emplace_back();
      stream.onboard.push_back(onboards++);
      continue;
    }
    const size_t k = 2 + static_cast<size_t>(rng.UniformInt(15));
    std::vector<size_t> drugs =
        rng.SampleWithoutReplacement(static_cast<size_t>(num_drugs), k);
    std::sort(drugs.begin(), drugs.end());
    serve::ScoreRequest request;
    for (size_t a = 0; a < drugs.size(); ++a) {
      for (size_t b = a + 1; b < drugs.size(); ++b) {
        request.pairs.push_back({static_cast<int32_t>(drugs[a]),
                                 static_cast<int32_t>(drugs[b]), 0.0f});
      }
    }
    stream.reads.push_back(std::move(request));
    stream.onboard.push_back(-1);
  }
  if (onboards > 0) stream.unseen = UnseenSmiles(onboards, SubSeed(seed, 1));
  return stream;
}

model::TrainConfig MakeTrainConfig(uint64_t seed, int32_t batch_size) {
  model::TrainConfig config;
  config.seed = seed;
  config.batch_size = batch_size;
  return config;
}

}  // namespace hygnn::perfbench
