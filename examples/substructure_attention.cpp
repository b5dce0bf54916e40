// Substructure attention analysis: the interpretability angle of the
// paper. HyGNN's node-level attention (eq. 8) assigns each substructure
// a weight inside every drug's hyperedge — "not all but a few
// substructures are mainly significant in terms of chemical reactions".
//
// This example trains HyGNN, captures an AttentionSnapshot, and prints
// each sampled drug's substructures ranked by learned attention, so you
// can see which functional groups the model considers load-bearing.
//
// Build & run:  ./build/examples/substructure_attention

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "data/featurize.h"
#include "data/generator.h"
#include "data/pairs.h"
#include "graph/builders.h"
#include "hygnn/model.h"
#include "hygnn/trainer.h"

int main() {
  using namespace hygnn;

  data::DatasetConfig data_config;
  data_config.num_drugs = 120;
  data_config.seed = 321;
  auto dataset = data::GenerateDataset(data_config).value();

  data::FeaturizeConfig feat_config;
  feat_config.mode = data::SubstructureMode::kEspf;
  feat_config.espf_frequency_threshold = 3;
  auto featurizer =
      data::SubstructureFeaturizer::Build(dataset.drugs(), feat_config)
          .value();

  auto hypergraph = graph::BuildDrugHypergraph(
      featurizer.drug_substructures(), featurizer.num_substructures());
  auto context = model::HypergraphContext::FromHypergraph(hypergraph);

  core::Rng rng(1);
  auto pairs = data::BuildBalancedPairs(dataset, &rng);
  auto split = data::RandomSplit(pairs, 0.7, &rng);

  core::Rng model_rng(2);
  model::HyGnnConfig config;
  config.encoder.hidden_dim = 64;
  config.encoder.output_dim = 64;
  model::HyGnnModel hygnn(featurizer.num_substructures(), config,
                          &model_rng);
  model::TrainConfig train_config;
  train_config.epochs = 150;
  model::HyGnnTrainer trainer(&hygnn, train_config);
  trainer.Fit(context, split.train);
  auto metrics = trainer.Evaluate(context, split.test);
  std::printf("trained HyGNN: test ROC-AUC %.3f\n\n", metrics.roc_auc);

  // Capture the attention coefficients of a full forward pass.
  model::AttentionSnapshot attention;
  hygnn.EmbedDrugs(context, /*training=*/false, nullptr, &attention);

  // Group the node-level attention X_ji by drug (hyperedge).
  const std::vector<int32_t>& pair_nodes = context.pair_nodes->ids();
  const std::vector<int32_t>& pair_edges = context.pair_edges->ids();
  std::map<int32_t, std::vector<std::pair<float, int32_t>>> per_drug;
  for (size_t pair_index = 0; pair_index < attention.node_level.size();
       ++pair_index) {
    per_drug[pair_edges[pair_index]].push_back(
        {attention.node_level[pair_index], pair_nodes[pair_index]});
  }

  for (int32_t drug : {0, 1, 2}) {
    const auto& record = dataset.drugs()[static_cast<size_t>(drug)];
    std::printf("%s (%s)  SMILES: %s\n", record.drugbank_id.c_str(),
                record.name.c_str(), record.smiles.c_str());
    auto& weighted = per_drug[drug];
    std::sort(weighted.begin(), weighted.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::printf("  %-20s %s\n", "substructure", "attention");
    const size_t show = std::min<size_t>(6, weighted.size());
    for (size_t i = 0; i < show; ++i) {
      std::printf("  %-20s %9.3f%s\n",
                  featurizer.vocabulary().Text(weighted[i].second).c_str(),
                  weighted[i].first,
                  i == 0 ? "   <- most significant" : "");
    }
    std::printf("\n");
  }

  // Aggregate view: the globally most-attended substructures.
  std::map<int32_t, double> global;
  for (size_t pair_index = 0; pair_index < attention.node_level.size();
       ++pair_index) {
    global[pair_nodes[pair_index]] +=
        attention.node_level[pair_index];
  }
  std::vector<std::pair<double, int32_t>> ranked;
  for (const auto& [node, total] : global) ranked.push_back({total, node});
  std::sort(ranked.rbegin(), ranked.rend());
  std::printf("globally most-attended substructures:\n");
  for (size_t i = 0; i < std::min<size_t>(10, ranked.size()); ++i) {
    std::printf("  %-20s total attention %.2f across %lld drugs\n",
                featurizer.vocabulary().Text(ranked[i].second).c_str(),
                ranked[i].first,
                static_cast<long long>(
                    hypergraph.NodeDegree(ranked[i].second)));
  }
  return 0;
}
