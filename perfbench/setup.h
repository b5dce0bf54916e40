#ifndef HYGNN_PERFBENCH_SETUP_H_
#define HYGNN_PERFBENCH_SETUP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/featurize.h"
#include "data/generator.h"
#include "data/pairs.h"
#include "hygnn/encoder.h"
#include "hygnn/model.h"
#include "hygnn/trainer.h"
#include "serve/request.h"

namespace hygnn::perfbench {

/// The paper's Table I regime (HyGNN, ICDE 2023): an 824-drug corpus,
/// ESPF frequency threshold 5 or k-mer k = 10, a 70/30 split of the
/// balanced pair set, hidden size 64 and the MLP decoder. The corpus is
/// one fixed synthetic DrugBank, as the paper's dataset is one fixed
/// DrugBank release; `--seed` draws everything else (negative pairs and
/// split, weights, dropout and batch order, request streams, and the
/// unseen drugs a churn run onboards), so the input sizes that set the
/// cost of an op stay constant across seeds.
inline constexpr int32_t kCorpusDrugs = 824;
inline constexpr uint64_t kCorpusSeed = 42;
inline constexpr int64_t kEspfThreshold = 5;
inline constexpr int64_t kKmerK = 10;
inline constexpr double kTrainFraction = 0.7;

/// Independent stream `stream` of the run seed (splitmix64 finaliser),
/// so each input is reproducible on its own.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Wall time of each set-up phase, in milliseconds.
struct SetupPhases {
  double generate_ms = 0.0;
  double featurize_ms = 0.0;
  double hypergraph_ms = 0.0;
  double split_ms = 0.0;
  double init_ms = 0.0;
  double rebuild_ms = 0.0;  ///< EmbeddingStore::Rebuild
  double start_ms = 0.0;    ///< Server::Start
  double warmup_ms = 0.0;   ///< ops run before timing starts
};

/// A featurized corpus and its hypergraph.
struct Corpus {
  data::DdiDataset dataset;
  data::SubstructureFeaturizer featurizer;
  model::HypergraphContext context;
  int64_t incidences = 0;
};

/// Generates the fixed corpus, mines its substructures with `mode` at
/// the paper's threshold, and builds the drug hypergraph.
std::unique_ptr<Corpus> BuildCorpus(data::SubstructureMode mode,
                                    SetupPhases* phases);

/// Synthetic drugs of the corpus grammar that are not in the corpus:
/// the cold-start queries of Table II.
std::vector<std::string> UnseenSmiles(int32_t count, uint64_t seed);

/// The paper's balanced pair set split 70/30.
data::PairSplit SplitPairs(const data::DdiDataset& dataset, uint64_t seed,
                           SetupPhases* phases);

/// HyGNN with the library's default (paper) configuration: one encoder
/// layer, hidden and output size 64, MLP decoder of width 64.
std::unique_ptr<model::HyGnnModel> InitModel(const Corpus& corpus,
                                             uint64_t seed,
                                             SetupPhases* phases);

/// A serving op sequence both clients of a closed loop consume in
/// order: medication-list reads (all pairs among 2-16 distinct catalog
/// drugs) and, every `onboard_every`-th op when non-zero, an onboarding
/// of the next unseen drug.
struct OpStream {
  std::vector<serve::ScoreRequest> reads;  ///< empty for onboard ops
  std::vector<int32_t> onboard;            ///< unseen index, -1 for reads
  std::vector<std::string> unseen;         ///< SMILES to onboard
};
OpStream MakeStream(int64_t n, int64_t onboard_every, int32_t num_drugs,
                    uint64_t seed);

/// Trainer settings (Adam at lr 0.01, gradient clip 5) with the given
/// mini-batch size; 0 trains full-batch.
model::TrainConfig MakeTrainConfig(uint64_t seed, int32_t batch_size);

}  // namespace hygnn::perfbench

#endif  // HYGNN_PERFBENCH_SETUP_H_
