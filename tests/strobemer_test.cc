#include <set>

#include <gtest/gtest.h>

#include "chem/strobemer.h"
#include "data/featurize.h"
#include "data/generator.h"

namespace hygnn::chem {
namespace {

StrobemerConfig SmallConfig() {
  StrobemerConfig config;
  config.k = 3;
  config.w_min = 1;
  config.w_max = 4;
  return config;
}

TEST(StrobemerTest, CountMatchesAnchorPositions) {
  const std::string s = "CC(=O)Oc1ccccc1C(=O)O";  // length 21
  auto config = SmallConfig();
  auto strobemers = ExtractRandstrobes(s, config).value();
  // Anchors run while 2k + w_min - 1 more chars fit:
  // last_anchor = l - (2k + w_min - 1) = 21 - 6 = 15 -> 16 strobemers.
  EXPECT_EQ(strobemers.size(), 16u);
}

TEST(StrobemerTest, FormatIsTwoLinkedStrobes) {
  auto strobemers =
      ExtractRandstrobes("CCCOCCNCC", SmallConfig()).value();
  for (const auto& strobemer : strobemers) {
    // "<3 chars>~<3 chars>"
    ASSERT_EQ(strobemer.size(), 7u) << strobemer;
    EXPECT_EQ(strobemer[3], '~');
  }
}

TEST(StrobemerTest, FirstStrobeIsContiguousPrefix) {
  const std::string s = "CC(=O)OCCN";
  auto strobemers = ExtractRandstrobes(s, SmallConfig()).value();
  for (size_t i = 0; i < strobemers.size(); ++i) {
    EXPECT_EQ(strobemers[i].substr(0, 3), s.substr(i, 3));
  }
}

TEST(StrobemerTest, SecondStrobeComesFromWindow) {
  const std::string s = "ABCDEFGHIJ";
  StrobemerConfig config = SmallConfig();
  auto strobemers = ExtractRandstrobes(s, config).value();
  for (size_t i = 0; i < strobemers.size(); ++i) {
    const std::string second = strobemers[i].substr(4);
    const size_t pos = s.find(second);
    ASSERT_NE(pos, std::string::npos);
    // Window: [i + k + w_min - 1, i + k + w_max - 1].
    EXPECT_GE(pos, i + 3 + 1 - 1);
    EXPECT_LE(pos, i + 3 + 4 - 1);
  }
}

TEST(StrobemerTest, Deterministic) {
  const std::string s = "CC(=O)Oc1ccccc1C(=O)O";
  auto a = ExtractRandstrobes(s, SmallConfig()).value();
  auto b = ExtractRandstrobes(s, SmallConfig()).value();
  EXPECT_EQ(a, b);
}

TEST(StrobemerTest, DifferentSeedDifferentSelection) {
  const std::string s = "CC(=O)Oc1ccccc1C(=O)OCCCNCCO";
  StrobemerConfig a = SmallConfig();
  StrobemerConfig b = SmallConfig();
  b.hash_seed = 12345;
  auto sa = ExtractRandstrobes(s, a).value();
  auto sb = ExtractRandstrobes(s, b).value();
  EXPECT_NE(sa, sb);  // at least one window picks differently
}

TEST(StrobemerTest, GapToleranceProperty) {
  // The defining property vs k-mers: a strobemer can skip over a local
  // edit. Check that the strobemer set of a string and its single-char
  // insertion variant still share elements, while the contiguous
  // (2k)-mer sets of the affected region differ more.
  const std::string base = "CCCCOCCCCNCCCCSCCCC";
  std::string edited = base;
  edited.insert(9, "F");
  auto config = SmallConfig();
  auto set_of = [&config](const std::string& s) {
    auto v = ExtractRandstrobes(s, config).value();
    return std::set<std::string>(v.begin(), v.end());
  };
  auto a = set_of(base);
  auto b = set_of(edited);
  size_t shared = 0;
  for (const auto& s : a) shared += b.count(s);
  EXPECT_GT(shared, 0u);
}

TEST(StrobemerTest, ShortStringFallsBackToWhole) {
  auto strobemers = ExtractRandstrobes("CCO", SmallConfig()).value();
  ASSERT_EQ(strobemers.size(), 1u);
  EXPECT_EQ(strobemers[0], "CCO");
}

TEST(StrobemerTest, ErrorPaths) {
  StrobemerConfig bad_k = SmallConfig();
  bad_k.k = 0;
  EXPECT_FALSE(ExtractRandstrobes("CCO", bad_k).ok());
  StrobemerConfig bad_window = SmallConfig();
  bad_window.w_max = 0;
  EXPECT_FALSE(ExtractRandstrobes("CCO", bad_window).ok());
  EXPECT_FALSE(ExtractRandstrobes("", SmallConfig()).ok());
}

TEST(StrobemerFeaturizerTest, IntegratesWithPipeline) {
  data::DatasetConfig data_config;
  data_config.num_drugs = 40;
  data_config.seed = 9;
  auto dataset = data::GenerateDataset(data_config).value();
  data::FeaturizeConfig feat_config;
  feat_config.mode = data::SubstructureMode::kStrobemer;
  feat_config.strobemer.k = 3;
  feat_config.strobemer.w_min = 1;
  feat_config.strobemer.w_max = 5;
  auto featurizer =
      data::SubstructureFeaturizer::Build(dataset.drugs(), feat_config)
          .value();
  EXPECT_GT(featurizer.num_substructures(), 40);
  for (const auto& substructures : featurizer.drug_substructures()) {
    EXPECT_FALSE(substructures.empty());
  }
  // Cold-start segmentation works too.
  auto ids =
      featurizer.SegmentNewSmiles(dataset.drugs()[0].smiles).value();
  EXPECT_EQ(ids, featurizer.drug_substructures()[0]);
}

}  // namespace
}  // namespace hygnn::chem
