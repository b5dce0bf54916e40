#include "data/generator.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "chem/fragments.h"
#include "chem/generator.h"
#include "core/logging.h"
#include "core/rng.h"
#include "data/names.h"

namespace hygnn::data {

using core::Result;
using core::Status;

DdiDataset::DdiDataset(std::vector<DrugRecord> drugs,
                       std::vector<DrugPair> positives,
                       std::vector<std::pair<int32_t, int32_t>> reactive_rule)
    : drugs_(std::move(drugs)),
      positives_(std::move(positives)),
      reactive_rule_(std::move(reactive_rule)) {}

bool DdiDataset::OracleInteracts(int32_t a, int32_t b) const {
  return OracleInteractionType(a, b) >= 0;
}

int32_t DdiDataset::OracleInteractionType(int32_t a, int32_t b) const {
  HYGNN_CHECK(a >= 0 && a < num_drugs());
  HYGNN_CHECK(b >= 0 && b < num_drugs());
  const auto& ca = drugs_[static_cast<size_t>(a)].reactive_classes;
  const auto& cb = drugs_[static_cast<size_t>(b)].reactive_classes;
  for (size_t rule = 0; rule < reactive_rule_.size(); ++rule) {
    const auto& [x, y] = reactive_rule_[rule];
    const bool a_has_x = std::find(ca.begin(), ca.end(), x) != ca.end();
    const bool b_has_y = std::find(cb.begin(), cb.end(), y) != cb.end();
    if (a_has_x && b_has_y) return static_cast<int32_t>(rule);
    const bool a_has_y = std::find(ca.begin(), ca.end(), y) != ca.end();
    const bool b_has_x = std::find(cb.begin(), cb.end(), x) != cb.end();
    if (a_has_y && b_has_x) return static_cast<int32_t>(rule);
  }
  return -1;
}

Result<DdiDataset> GenerateDataset(const DatasetConfig& config) {
  if (config.num_drugs < 2) {
    return Status::InvalidArgument("need at least 2 drugs");
  }
  if (config.min_groups_per_drug < 1 ||
      config.max_groups_per_drug < config.min_groups_per_drug) {
    return Status::InvalidArgument("invalid groups_per_drug range");
  }
  core::Rng rng(config.seed);
  const auto& library = chem::StandardFragmentLibrary();
  const auto group_indices = chem::FunctionalGroupIndices();
  const int32_t num_classes = chem::NumReactiveClasses();

  // Latent reactive-pair rule: distinct unordered class pairs.
  std::set<std::pair<int32_t, int32_t>> rule_set;
  const int64_t max_rule_pairs =
      static_cast<int64_t>(num_classes) * (num_classes + 1) / 2;
  const int64_t target_rules =
      std::min<int64_t>(config.num_reactive_rule_pairs, max_rule_pairs);
  while (static_cast<int64_t>(rule_set.size()) < target_rules) {
    int32_t x = static_cast<int32_t>(rng.UniformInt(num_classes));
    int32_t y = static_cast<int32_t>(rng.UniformInt(num_classes));
    if (x > y) std::swap(x, y);
    rule_set.insert({x, y});
  }
  std::vector<std::pair<int32_t, int32_t>> rule(rule_set.begin(),
                                                rule_set.end());

  chem::SmilesGenerator smiles_gen;
  NameGenerator name_gen;

  std::vector<DrugRecord> drugs;
  drugs.reserve(static_cast<size_t>(config.num_drugs));
  for (int32_t d = 0; d < config.num_drugs; ++d) {
    DrugRecord record;
    record.index = d;
    char id_buffer[16];
    std::snprintf(id_buffer, sizeof(id_buffer), "DB%05d", d + 1);
    record.drugbank_id = id_buffer;
    record.name = name_gen.Generate(&rng);

    const int32_t num_groups =
        config.min_groups_per_drug +
        static_cast<int32_t>(rng.UniformInt(
            config.max_groups_per_drug - config.min_groups_per_drug + 1));
    auto picks = rng.SampleWithoutReplacement(group_indices.size(),
                                              std::min<size_t>(
                                                  num_groups,
                                                  group_indices.size()));
    for (size_t pick : picks) {
      record.fragment_ids.push_back(group_indices[pick]);
    }
    std::unordered_set<int32_t> classes;
    for (int32_t frag : record.fragment_ids) {
      classes.insert(library[static_cast<size_t>(frag)].reactive_class);
    }
    record.reactive_classes.assign(classes.begin(), classes.end());
    std::sort(record.reactive_classes.begin(), record.reactive_classes.end());

    const int32_t filler =
        config.min_filler +
        static_cast<int32_t>(
            rng.UniformInt(config.max_filler - config.min_filler + 1));
    auto smiles_or = smiles_gen.Generate(record.fragment_ids, filler, &rng);
    if (!smiles_or.ok()) return smiles_or.status();
    record.smiles = std::move(smiles_or).value();
    drugs.push_back(std::move(record));
  }

  // Recorded DDIs: noisy observation of the latent rule.
  std::vector<DrugPair> positives;
  DdiDataset oracle_view(drugs, {}, rule);  // reuse OracleInteracts
  for (int32_t a = 0; a < config.num_drugs; ++a) {
    for (int32_t b = a + 1; b < config.num_drugs; ++b) {
      const bool rule_positive = oracle_view.OracleInteracts(a, b);
      const bool recorded =
          rule_positive ? rng.Bernoulli(config.positive_keep_prob)
                        : rng.Bernoulli(config.false_positive_rate);
      if (recorded) positives.push_back({a, b});
    }
  }
  if (positives.empty()) {
    return Status::Internal(
        "generated dataset has no positive DDIs; increase num_drugs or "
        "rule pairs");
  }
  return DdiDataset(std::move(drugs), std::move(positives), std::move(rule));
}

}  // namespace hygnn::data
