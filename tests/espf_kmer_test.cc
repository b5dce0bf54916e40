#include <numeric>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "chem/espf.h"
#include "chem/kmer.h"
#include "chem/vocab.h"

namespace hygnn::chem {
namespace {

TEST(KmerTest, PaperExample) {
  // §III-B: "NCCO" -> 2-mers {NC, CC, CO}, 3-mers {NCC, CCO}.
  auto two = ExtractKmers("NCCO", 2).value();
  ASSERT_EQ(two.size(), 3u);
  EXPECT_EQ(two[0], "NC");
  EXPECT_EQ(two[1], "CC");
  EXPECT_EQ(two[2], "CO");
  auto three = ExtractKmers("NCCO", 3).value();
  ASSERT_EQ(three.size(), 2u);
  EXPECT_EQ(three[0], "NCC");
  EXPECT_EQ(three[1], "CCO");
}

TEST(KmerTest, CountIsLMinusKPlusOne) {
  const std::string s = "CC(=O)Oc1ccccc1";
  for (int64_t k = 1; k <= 5; ++k) {
    auto kmers = ExtractKmers(s, k).value();
    EXPECT_EQ(kmers.size(), s.size() - k + 1);
  }
}

TEST(KmerTest, ShortStringYieldsWhole) {
  auto kmers = ExtractKmers("CO", 10).value();
  ASSERT_EQ(kmers.size(), 1u);
  EXPECT_EQ(kmers[0], "CO");
}

TEST(KmerTest, UniquePreservesOrder) {
  auto unique = ExtractUniqueKmers("CCCC", 2).value();
  ASSERT_EQ(unique.size(), 1u);
  EXPECT_EQ(unique[0], "CC");
}

TEST(KmerTest, InvalidArguments) {
  EXPECT_FALSE(ExtractKmers("CCO", 0).ok());
  EXPECT_FALSE(ExtractKmers("", 2).ok());
}

TEST(EspfTest, LearnsFrequentPairs) {
  // "CO" appears in every string; with threshold 3 the C+O merge must be
  // learned.
  std::vector<std::string> corpus{"CCO", "CCO", "NCO", "OCO"};
  EspfConfig config;
  config.frequency_threshold = 3;
  auto espf = Espf::Train(corpus, config).value();
  EXPECT_GT(espf.num_merges(), 0);
  auto units = espf.Segment("CCO").value();
  // Some merge happened: fewer units than tokens.
  EXPECT_LT(units.size(), 3u);
}

TEST(EspfTest, SegmentationReconstructsString) {
  std::vector<std::string> corpus{"CC(=O)O", "CC(=O)N", "CC(=O)OC",
                                  "CCN", "CCO"};
  EspfConfig config;
  config.frequency_threshold = 2;
  auto espf = Espf::Train(corpus, config).value();
  for (const auto& smiles : corpus) {
    auto units = espf.Segment(smiles).value();
    std::string joined;
    for (const auto& u : units) joined += u;
    EXPECT_EQ(joined, smiles);
  }
}

TEST(EspfTest, HighThresholdLearnsNothing) {
  std::vector<std::string> corpus{"CCO", "CNO"};
  EspfConfig config;
  config.frequency_threshold = 100;
  auto espf = Espf::Train(corpus, config).value();
  EXPECT_EQ(espf.num_merges(), 0);
  // Segmentation degenerates to single tokens.
  auto units = espf.Segment("CCO").value();
  EXPECT_EQ(units.size(), 3u);
}

TEST(EspfTest, LowerThresholdYieldsMoreMerges) {
  std::vector<std::string> corpus;
  for (int i = 0; i < 6; ++i) corpus.push_back("CC(=O)Oc1ccccc1");
  for (int i = 0; i < 3; ++i) corpus.push_back("NC(N)=NCC1COC2(CCCCC2)O1");
  EspfConfig strict, loose;
  strict.frequency_threshold = 6;
  loose.frequency_threshold = 2;
  auto espf_strict = Espf::Train(corpus, strict).value();
  auto espf_loose = Espf::Train(corpus, loose).value();
  EXPECT_GT(espf_loose.num_merges(), espf_strict.num_merges());
  EXPECT_GE(espf_loose.vocabulary().size(),
            espf_strict.vocabulary().size() ? 1u : 0u);
}

TEST(EspfTest, VocabularyOrderedByFrequency) {
  std::vector<std::string> corpus{"CCO", "CCO", "CCO", "CCN"};
  EspfConfig config;
  config.frequency_threshold = 2;
  auto espf = Espf::Train(corpus, config).value();
  ASSERT_FALSE(espf.vocabulary().empty());
  // The vocabulary exists and contains the most frequent unit first; all
  // units must be non-empty.
  for (const auto& unit : espf.vocabulary()) EXPECT_FALSE(unit.empty());
}

TEST(EspfTest, SegmentUnseenDrug) {
  std::vector<std::string> corpus{"CC(=O)O", "CC(=O)O", "CC(=O)O"};
  EspfConfig config;
  config.frequency_threshold = 2;
  auto espf = Espf::Train(corpus, config).value();
  // A molecule not in the corpus still segments (cold-start path).
  auto units = espf.Segment("NCC(=O)OCC").value();
  std::string joined;
  for (const auto& u : units) joined += u;
  EXPECT_EQ(joined, "NCC(=O)OCC");
}

TEST(EspfTest, ErrorPaths) {
  EXPECT_FALSE(Espf::Train({}, {}).ok());
  EspfConfig bad;
  bad.frequency_threshold = 0;
  EXPECT_FALSE(Espf::Train({"CC"}, bad).ok());
  EspfConfig ok_config;
  auto espf = Espf::Train({"CCO", "CCO"}, ok_config).value();
  EXPECT_FALSE(espf.Segment("not smiles!").ok());
}

TEST(VocabTest, AddFindRoundTrip) {
  SubstructureVocabulary vocab;
  const int32_t id1 = vocab.AddOrGet("CC");
  const int32_t id2 = vocab.AddOrGet("CO");
  EXPECT_NE(id1, id2);
  EXPECT_EQ(vocab.AddOrGet("CC"), id1);
  EXPECT_EQ(vocab.Find("CC"), id1);
  EXPECT_EQ(vocab.Find("XX"), -1);
  EXPECT_EQ(vocab.size(), 2);
  EXPECT_EQ(vocab.Text(id2), "CO");
}

TEST(VocabTest, FrequencyOrdering) {
  SubstructureVocabulary vocab;
  const int32_t a = vocab.AddOrGet("A");
  const int32_t b = vocab.AddOrGet("B");
  vocab.CountOccurrence(a, 2);
  vocab.CountOccurrence(b, 5);
  EXPECT_EQ(vocab.Frequency(a), 2);
  EXPECT_EQ(vocab.Frequency(b), 5);
}

// Property sweep: for several (corpus size, threshold) combinations,
// segmentation always reconstructs the input and never yields empty
// units.
class EspfPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EspfPropertyTest, SegmentationInvariants) {
  const int copies = std::get<0>(GetParam());
  const int threshold = std::get<1>(GetParam());
  std::vector<std::string> base{"CC(=O)Oc1ccccc1C(=O)O",
                                "CC(C)Cc1ccc(cc1)C(C)C(=O)O",
                                "NC(N)=NCC1COC2(CCCCC2)O1",
                                "S(=O)(=O)NC1CCCCC1",
                                "c1ccncc1C(F)(F)F"};
  std::vector<std::string> corpus;
  for (int c = 0; c < copies; ++c) {
    corpus.insert(corpus.end(), base.begin(), base.end());
  }
  EspfConfig config;
  config.frequency_threshold = threshold;
  auto espf = Espf::Train(corpus, config).value();
  for (const auto& smiles : base) {
    auto units = espf.Segment(smiles).value();
    EXPECT_FALSE(units.empty());
    std::string joined;
    for (const auto& u : units) {
      EXPECT_FALSE(u.empty());
      joined += u;
    }
    EXPECT_EQ(joined, smiles);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EspfPropertyTest,
                         ::testing::Combine(::testing::Values(1, 3, 10),
                                            ::testing::Values(2, 5, 8)));

}  // namespace
}  // namespace hygnn::chem
