#include <algorithm>
#include <vector>

#include "baselines/baselines.h"
#include "chem/fingerprint.h"
#include "core/logging.h"

namespace hygnn::baselines {

model::EvalResult RunMolecularSimilarity(const BaselineInputs& inputs,
                                         const BaselineConfig& config) {
  HYGNN_CHECK(inputs.drugs != nullptr)
      << "molecular-similarity baseline needs DrugRecords (SMILES)";
  const auto& drugs = *inputs.drugs;

  chem::FingerprintConfig fp_config;
  fp_config.radius = config.fingerprint_radius;
  fp_config.num_bits = config.fingerprint_bits;
  std::vector<ml::BitVector> fingerprints;
  fingerprints.reserve(drugs.size());
  for (const auto& drug : drugs) {
    auto fp_or = chem::MorganFingerprintFromSmiles(drug.smiles, fp_config);
    HYGNN_CHECK(fp_or.ok()) << fp_or.status().ToString();
    fingerprints.push_back(std::move(fp_or).value());
  }

  // Known training partners per drug.
  std::vector<std::vector<int32_t>> partners(drugs.size());
  for (const auto& pair : inputs.train) {
    if (pair.label > 0.5f) {
      partners[static_cast<size_t>(pair.a)].push_back(pair.b);
      partners[static_cast<size_t>(pair.b)].push_back(pair.a);
    }
  }

  // Vilar et al.: drug b likely interacts with a if b is structurally
  // similar to a known interactor of a (and symmetrically).
  auto side_score = [&](int32_t anchor, int32_t candidate) {
    double best = 0.0;
    for (int32_t partner : partners[static_cast<size_t>(anchor)]) {
      if (partner == candidate) continue;  // train edges exclude test pair
      best = std::max(best, chem::TanimotoSimilarity(
                                fingerprints[static_cast<size_t>(candidate)],
                                fingerprints[static_cast<size_t>(partner)]));
    }
    return best;
  };
  std::vector<float> scores;
  scores.reserve(inputs.test.size());
  for (const auto& pair : inputs.test) {
    scores.push_back(static_cast<float>(
        std::max(side_score(pair.a, pair.b), side_score(pair.b, pair.a))));
  }
  return metrics::EvaluateBinary(scores, model::LabelsOf(inputs.test));
}

}  // namespace hygnn::baselines
