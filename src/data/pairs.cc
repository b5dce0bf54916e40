#include "data/pairs.h"

#include <algorithm>
#include <unordered_set>

#include "core/logging.h"

namespace hygnn::data {

std::vector<LabeledPair> BuildBalancedPairs(const DdiDataset& dataset,
                                            core::Rng* rng) {
  HYGNN_CHECK(rng != nullptr);
  const int32_t n = dataset.num_drugs();
  std::vector<LabeledPair> pairs;
  pairs.reserve(dataset.positives().size() * 2);
  std::unordered_set<uint64_t> taken;
  for (const auto& p : dataset.positives()) {
    pairs.push_back({p.a, p.b, 1.0f});
    taken.insert(static_cast<uint64_t>(p.a) * n + p.b);
  }
  const size_t num_positives = dataset.positives().size();
  const uint64_t total_pairs =
      static_cast<uint64_t>(n) * (n - 1) / 2;
  HYGNN_CHECK_LT(num_positives * 2, total_pairs)
      << "not enough negative pairs to balance";
  size_t sampled = 0;
  while (sampled < num_positives) {
    int32_t a = static_cast<int32_t>(rng->UniformInt(n));
    int32_t b = static_cast<int32_t>(rng->UniformInt(n));
    if (a == b) continue;
    const DrugPair p = MakePair(a, b);
    const uint64_t key = static_cast<uint64_t>(p.a) * n + p.b;
    if (taken.count(key)) continue;
    taken.insert(key);
    pairs.push_back({p.a, p.b, 0.0f});
    ++sampled;
  }
  return pairs;
}

PairSplit RandomSplit(std::vector<LabeledPair> pairs, double train_fraction,
                      core::Rng* rng) {
  HYGNN_CHECK(rng != nullptr);
  HYGNN_CHECK(train_fraction > 0.0 && train_fraction < 1.0);
  rng->Shuffle(pairs);
  const size_t train_size =
      static_cast<size_t>(train_fraction * static_cast<double>(pairs.size()));
  PairSplit split;
  split.train.assign(pairs.begin(), pairs.begin() + train_size);
  split.test.assign(pairs.begin() + train_size, pairs.end());
  return split;
}

PairSplit ColdStartSplit(const std::vector<LabeledPair>& pairs,
                         const std::vector<int32_t>& new_drugs) {
  std::unordered_set<int32_t> held(new_drugs.begin(), new_drugs.end());
  PairSplit split;
  for (const auto& pair : pairs) {
    if (held.count(pair.a) || held.count(pair.b)) {
      split.test.push_back(pair);
    } else {
      split.train.push_back(pair);
    }
  }
  return split;
}

std::vector<std::pair<int32_t, int32_t>> PositivePairs(
    const std::vector<LabeledPair>& pairs) {
  std::vector<std::pair<int32_t, int32_t>> positives;
  for (const auto& pair : pairs) {
    if (pair.label > 0.5f) positives.emplace_back(pair.a, pair.b);
  }
  return positives;
}

}  // namespace hygnn::data
