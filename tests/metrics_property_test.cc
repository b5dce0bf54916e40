#include <set>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "metrics/metrics.h"
#include "ml/bitvector.h"

namespace hygnn::metrics {
namespace {

/// ROC-AUC (rank formula) against the O(n^2) pair-counting definition
/// over random score/label sets, including heavy ties.
class RocAucPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RocAucPropertyTest, MatchesPairCountingDefinition) {
  core::Rng rng(GetParam());
  const size_t n = 2 + rng.UniformInt(120);
  std::vector<float> scores(n), labels(n);
  bool has_pos = false, has_neg = false;
  for (size_t i = 0; i < n; ++i) {
    // Coarse quantization to force score ties.
    scores[i] = static_cast<float>(rng.UniformInt(8)) / 8.0f;
    labels[i] = rng.Bernoulli(0.4) ? 1.0f : 0.0f;
    (labels[i] > 0.5f ? has_pos : has_neg) = true;
  }
  if (!has_pos || !has_neg) {
    EXPECT_DOUBLE_EQ(RocAuc(scores, labels), 0.5);
    return;
  }
  double wins = 0.0;
  int64_t pairs = 0;
  for (size_t i = 0; i < n; ++i) {
    if (labels[i] < 0.5f) continue;
    for (size_t j = 0; j < n; ++j) {
      if (labels[j] > 0.5f) continue;
      ++pairs;
      if (scores[i] > scores[j]) {
        wins += 1.0;
      } else if (scores[i] == scores[j]) {
        wins += 0.5;
      }
    }
  }
  EXPECT_NEAR(RocAuc(scores, labels), wins / static_cast<double>(pairs),
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RocAucPropertyTest,
                         ::testing::Values(7u, 17u, 27u, 37u, 47u, 57u));

/// BitVector set algebra against std::set references.
class BitVectorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BitVectorPropertyTest, MatchesSetAlgebra) {
  core::Rng rng(GetParam());
  const int32_t bits = 1 + static_cast<int32_t>(rng.UniformInt(300));
  ml::BitVector a(bits), b(bits);
  std::set<int32_t> sa, sb;
  const size_t inserts = rng.UniformInt(static_cast<uint64_t>(bits) * 2);
  for (size_t i = 0; i < inserts; ++i) {
    const int32_t bit = static_cast<int32_t>(rng.UniformInt(bits));
    if (rng.Bernoulli(0.5)) {
      a.SetBit(bit);
      sa.insert(bit);
    } else {
      b.SetBit(bit);
      sb.insert(bit);
    }
  }
  EXPECT_EQ(a.Popcount(), static_cast<int64_t>(sa.size()));
  std::set<int32_t> intersection, union_set(sa.begin(), sa.end());
  for (int32_t bit : sb) {
    if (sa.count(bit)) intersection.insert(bit);
    union_set.insert(bit);
  }
  EXPECT_EQ(a.IntersectionCount(b),
            static_cast<int64_t>(intersection.size()));
  EXPECT_EQ(a.UnionCount(b), static_cast<int64_t>(union_set.size()));
  EXPECT_EQ(a.And(b).Popcount(),
            static_cast<int64_t>(intersection.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitVectorPropertyTest,
                         ::testing::Values(5u, 15u, 25u, 35u, 45u));

}  // namespace
}  // namespace hygnn::metrics
