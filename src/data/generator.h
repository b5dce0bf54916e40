#ifndef HYGNN_DATA_GENERATOR_H_
#define HYGNN_DATA_GENERATOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/status.h"
#include "data/drug.h"

namespace hygnn::data {

/// Parameters of the synthetic DrugBank-like corpus. Defaults are the
/// scaled-down configuration used by the benches; pass
/// `num_drugs = 824` for paper scale.
struct DatasetConfig {
  int32_t num_drugs = 300;
  /// Functional groups per drug (uniform in [min, max]).
  int32_t min_groups_per_drug = 1;
  int32_t max_groups_per_drug = 4;
  /// Inert filler fragments per drug (uniform in [min, max]).
  int32_t min_filler = 2;
  int32_t max_filler = 6;
  /// Number of (class, class) entries in the latent reactive-pair rule.
  /// Tuned so the recorded-DDI density lands near DrugBank's ~28%.
  int32_t num_reactive_rule_pairs = 12;
  /// Probability that a rule-positive pair is recorded as a known DDI
  /// (models the incompleteness of curated databases).
  double positive_keep_prob = 0.85;
  /// Probability that a rule-negative pair is nevertheless recorded
  /// (curation noise).
  double false_positive_rate = 0.015;
  uint64_t seed = 42;
};

/// The synthetic corpus: drugs with SMILES, known DDIs, and the latent
/// rule for oracle queries (external validation in the case study).
class DdiDataset {
 public:
  DdiDataset(std::vector<DrugRecord> drugs,
             std::vector<DrugPair> positives,
             std::vector<std::pair<int32_t, int32_t>> reactive_rule);

  const std::vector<DrugRecord>& drugs() const { return drugs_; }
  int32_t num_drugs() const { return static_cast<int32_t>(drugs_.size()); }

  /// All recorded (noisy) DDIs — the paper's "known DDIs".
  const std::vector<DrugPair>& positives() const { return positives_; }

  /// Noise-free latent rule: do drugs a and b carry a reactive class
  /// pair? Plays the role of the external gold-standard databases
  /// (DrugBank/MedScape) in the paper's Table II validation.
  bool OracleInteracts(int32_t a, int32_t b) const;

  /// Index of the first reactive-rule pair that fires for (a, b), or
  /// -1 when they do not interact. This is the latent *interaction
  /// type* used by the typed-DDI extension (multi-relational
  /// prediction, cf. SumGNN/Decagon in the paper's related work).
  int32_t OracleInteractionType(int32_t a, int32_t b) const;

  const std::vector<std::pair<int32_t, int32_t>>& reactive_rule() const {
    return reactive_rule_;
  }

 private:
  std::vector<DrugRecord> drugs_;
  std::vector<DrugPair> positives_;
  std::vector<std::pair<int32_t, int32_t>> reactive_rule_;
};

/// Generates the corpus: drugs assembled from the standard fragment
/// library, a random reactive-pair rule over fragment classes, and the
/// noisy recorded-DDI list.
core::Result<DdiDataset> GenerateDataset(const DatasetConfig& config);

}  // namespace hygnn::data

#endif  // HYGNN_DATA_GENERATOR_H_
