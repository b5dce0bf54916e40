// Protein-protein interaction (PPI) transfer: the paper's conclusion
// names PPI prediction as future work ("we plan to extend our model to
// address other problems in bioinformatics like protein-protein
// interaction prediction"). This example shows that nothing in the
// library is SMILES-specific: the same hypergraph-edge-encoder pipeline
// runs on amino-acid sequences.
//
//   * proteins  = hyperedges, sequence k-mers = nodes,
//   * a latent motif-pair rule generates interactions,
//   * HyGNN predicts held-out protein pairs.
//
// Build & run:  ./build/examples/ppi_transfer

#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "chem/kmer.h"
#include "chem/vocab.h"
#include "core/rng.h"
#include "data/drug.h"
#include "data/pairs.h"
#include "graph/builders.h"
#include "hygnn/model.h"
#include "hygnn/trainer.h"

namespace {

using namespace hygnn;

constexpr const char* kAminoAcids = "ACDEFGHIKLMNPQRSTVWY";

/// Sequence motifs that drive interactions (stand-ins for binding
/// domains). Proteins carrying motifs from an interacting pair of
/// families bind each other.
const std::vector<std::string> kMotifs = {
    "WWPWW", "HKHKH", "DEDED", "FYFYF", "CCGCC",
    "RKRKR", "QNQNQ", "LLVLL", "TSTST", "MGMGM",
};
const std::vector<std::pair<int, int>> kBindingRule = {
    {0, 1}, {2, 5}, {3, 3}, {4, 8}, {6, 9}, {7, 2}};

struct Protein {
  std::string sequence;
  std::vector<int> motifs;
};

Protein MakeProtein(core::Rng* rng) {
  Protein protein;
  const size_t num_motifs = 1 + rng->UniformInt(3);
  auto picks = rng->SampleWithoutReplacement(kMotifs.size(), num_motifs);
  for (size_t pick : picks) protein.motifs.push_back(static_cast<int>(pick));
  // Random residues interleaved with the motifs.
  auto random_run = [rng]() {
    std::string run;
    const size_t len = 4 + rng->UniformInt(10);
    for (size_t i = 0; i < len; ++i) {
      run += kAminoAcids[rng->UniformInt(20)];
    }
    return run;
  };
  protein.sequence = random_run();
  for (int motif : protein.motifs) {
    protein.sequence += kMotifs[static_cast<size_t>(motif)];
    protein.sequence += random_run();
  }
  return protein;
}

bool Binds(const Protein& a, const Protein& b) {
  for (const auto& [x, y] : kBindingRule) {
    const bool ax = std::find(a.motifs.begin(), a.motifs.end(), x) !=
                    a.motifs.end();
    const bool by = std::find(b.motifs.begin(), b.motifs.end(), y) !=
                    b.motifs.end();
    const bool ay = std::find(a.motifs.begin(), a.motifs.end(), y) !=
                    a.motifs.end();
    const bool bx = std::find(b.motifs.begin(), b.motifs.end(), x) !=
                    b.motifs.end();
    if ((ax && by) || (ay && bx)) return true;
  }
  return false;
}

}  // namespace

int main() {
  const int num_proteins = 120;
  core::Rng rng(777);
  std::vector<Protein> proteins;
  proteins.reserve(num_proteins);
  for (int i = 0; i < num_proteins; ++i) {
    proteins.push_back(MakeProtein(&rng));
  }
  std::printf("generated %d synthetic proteins (len %zu..%zu)\n",
              num_proteins, proteins[0].sequence.size(),
              proteins[1].sequence.size());

  // Featurize with sequence 4-mers — chem::ExtractKmers is just a
  // sequence operation; it never assumes SMILES.
  chem::SubstructureVocabulary vocab;
  std::vector<std::vector<int32_t>> memberships(proteins.size());
  for (size_t p = 0; p < proteins.size(); ++p) {
    auto kmers = chem::ExtractUniqueKmers(proteins[p].sequence, 4).value();
    for (const auto& kmer : kmers) {
      memberships[p].push_back(vocab.AddOrGet(kmer));
    }
  }
  std::printf("protein hypergraph: %d k-mer nodes, %d hyperedges\n",
              vocab.size(), num_proteins);

  auto hypergraph = graph::BuildDrugHypergraph(memberships, vocab.size());
  auto context = model::HypergraphContext::FromHypergraph(hypergraph);

  // Labeled pairs from the binding rule, balanced and split.
  std::vector<data::LabeledPair> positives, negatives;
  for (int32_t a = 0; a < num_proteins; ++a) {
    for (int32_t b = a + 1; b < num_proteins; ++b) {
      (Binds(proteins[static_cast<size_t>(a)],
             proteins[static_cast<size_t>(b)])
           ? positives
           : negatives)
          .push_back({a, b, 0.0f});
    }
  }
  rng.Shuffle(negatives);
  std::vector<data::LabeledPair> pairs;
  for (auto& p : positives) {
    p.label = 1.0f;
    pairs.push_back(p);
  }
  pairs.insert(pairs.end(), negatives.begin(),
               negatives.begin() +
                   std::min(positives.size(), negatives.size()));
  auto split = data::RandomSplit(pairs, 0.7, &rng);
  std::printf("PPI pairs: %zu positive / %zu total, 70/30 split\n",
              positives.size(), pairs.size());

  core::Rng model_rng(778);
  model::HyGnnConfig config;
  config.encoder.hidden_dim = 64;
  config.encoder.output_dim = 64;
  model::HyGnnModel hygnn(vocab.size(), config, &model_rng);
  model::TrainConfig train_config;
  train_config.epochs = 150;
  model::HyGnnTrainer trainer(&hygnn, train_config);
  trainer.Fit(context, split.train);

  auto metrics = trainer.Evaluate(context, split.test);
  std::printf("held-out PPI prediction: F1 %.3f  ROC-AUC %.3f  PR-AUC "
              "%.3f\n",
              metrics.f1, metrics.roc_auc, metrics.pr_auc);
  std::printf("\nThe identical encoder/decoder stack that predicts DDIs "
              "from SMILES\nsubstructures predicts PPIs from sequence "
              "motifs — the hypergraph\nformulation is domain-agnostic, "
              "as the paper's future-work section anticipates.\n");
  return 0;
}
