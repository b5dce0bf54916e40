#ifndef HYGNN_DATA_PAIRS_H_
#define HYGNN_DATA_PAIRS_H_

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "data/drug.h"
#include "data/generator.h"

namespace hygnn::data {

/// A labeled pair dataset split into train and test folds.
struct PairSplit {
  std::vector<LabeledPair> train;
  std::vector<LabeledPair> test;
};

/// Builds the paper's balanced sample set: every recorded DDI is a
/// positive, and for each positive one negative pair is drawn uniformly
/// from the complement of the recorded-DDI set (§IV-A).
std::vector<LabeledPair> BuildBalancedPairs(const DdiDataset& dataset,
                                            core::Rng* rng);

/// Random split with `train_fraction` of the (shuffled) pairs in train.
/// The paper uses 70/30; Figure 2 sweeps 30%..70%.
PairSplit RandomSplit(std::vector<LabeledPair> pairs, double train_fraction,
                      core::Rng* rng);

/// Cold-start split for the Table II case study: every pair touching a
/// drug in `new_drugs` goes to test; the rest go to train. Drugs in
/// `new_drugs` are thus entirely unseen during training.
PairSplit ColdStartSplit(const std::vector<LabeledPair>& pairs,
                         const std::vector<int32_t>& new_drugs);

/// Positive training pairs only (the edges of the DDI graph baselines
/// must come from the training fold).
std::vector<std::pair<int32_t, int32_t>> PositivePairs(
    const std::vector<LabeledPair>& pairs);

}  // namespace hygnn::data

#endif  // HYGNN_DATA_PAIRS_H_
