#include <cstdio>
#include <set>
#include <string>
#include <unordered_set>

#include <gtest/gtest.h>

#include "chem/smiles.h"
#include "core/fs.h"
#include "data/featurize.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/pairs.h"

namespace hygnn::data {
namespace {

DatasetConfig SmallConfig(uint64_t seed = 42) {
  DatasetConfig config;
  config.num_drugs = 40;
  config.seed = seed;
  return config;
}

TEST(GeneratorTest, ProducesRequestedDrugCount) {
  auto dataset = GenerateDataset(SmallConfig()).value();
  EXPECT_EQ(dataset.num_drugs(), 40);
  EXPECT_FALSE(dataset.positives().empty());
}

TEST(GeneratorTest, AllSmilesValid) {
  auto dataset = GenerateDataset(SmallConfig()).value();
  for (const auto& drug : dataset.drugs()) {
    EXPECT_TRUE(chem::ValidateSmiles(drug.smiles).ok()) << drug.smiles;
  }
}

TEST(GeneratorTest, DrugBankIdsSequentialAndNamesUnique) {
  auto dataset = GenerateDataset(SmallConfig()).value();
  std::set<std::string> names;
  EXPECT_EQ(dataset.drugs()[0].drugbank_id, "DB00001");
  EXPECT_EQ(dataset.drugs()[39].drugbank_id, "DB00040");
  for (const auto& drug : dataset.drugs()) names.insert(drug.name);
  EXPECT_EQ(names.size(), 40u);
}

TEST(GeneratorTest, DeterministicForSeed) {
  auto a = GenerateDataset(SmallConfig(7)).value();
  auto b = GenerateDataset(SmallConfig(7)).value();
  ASSERT_EQ(a.num_drugs(), b.num_drugs());
  for (int32_t i = 0; i < a.num_drugs(); ++i) {
    EXPECT_EQ(a.drugs()[i].smiles, b.drugs()[i].smiles);
  }
  EXPECT_EQ(a.positives().size(), b.positives().size());
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  auto a = GenerateDataset(SmallConfig(1)).value();
  auto b = GenerateDataset(SmallConfig(2)).value();
  int differences = 0;
  for (int32_t i = 0; i < a.num_drugs(); ++i) {
    if (a.drugs()[i].smiles != b.drugs()[i].smiles) ++differences;
  }
  EXPECT_GT(differences, 10);
}

TEST(GeneratorTest, OracleIsSymmetric) {
  auto dataset = GenerateDataset(SmallConfig()).value();
  for (int32_t a = 0; a < 10; ++a) {
    for (int32_t b = a + 1; b < 10; ++b) {
      EXPECT_EQ(dataset.OracleInteracts(a, b), dataset.OracleInteracts(b, a));
    }
  }
}

TEST(GeneratorTest, PositivesMostlyMatchOracle) {
  DatasetConfig config = SmallConfig();
  config.num_drugs = 80;
  config.false_positive_rate = 0.0;
  config.positive_keep_prob = 1.0;
  auto dataset = GenerateDataset(config).value();
  for (const auto& pair : dataset.positives()) {
    EXPECT_TRUE(dataset.OracleInteracts(pair.a, pair.b));
  }
}

TEST(GeneratorTest, RejectsBadConfig) {
  DatasetConfig config;
  config.num_drugs = 1;
  EXPECT_FALSE(GenerateDataset(config).ok());
  config = {};
  config.min_groups_per_drug = 3;
  config.max_groups_per_drug = 1;
  EXPECT_FALSE(GenerateDataset(config).ok());
}

TEST(GeneratorTest, DensityInPaperBallpark) {
  // DrugBank density is ~28%; the synthetic rule should land in a broad
  // band around it (10% - 60%).
  DatasetConfig config = SmallConfig();
  config.num_drugs = 120;
  auto dataset = GenerateDataset(config).value();
  const double density =
      static_cast<double>(dataset.positives().size()) /
      (120.0 * 119.0 / 2.0);
  EXPECT_GT(density, 0.08);
  EXPECT_LT(density, 0.45);
}

// ---------- balanced pairs & splits ----------

TEST(PairsTest, BalancedDatasetHasEqualClasses) {
  auto dataset = GenerateDataset(SmallConfig()).value();
  core::Rng rng(3);
  auto pairs = BuildBalancedPairs(dataset, &rng);
  EXPECT_EQ(pairs.size(), dataset.positives().size() * 2);
  size_t positives = 0;
  for (const auto& pair : pairs) {
    if (pair.label > 0.5f) ++positives;
  }
  EXPECT_EQ(positives * 2, pairs.size());
}

TEST(PairsTest, NegativesAreNotKnownPositives) {
  auto dataset = GenerateDataset(SmallConfig()).value();
  const std::set<DrugPair> positives(dataset.positives().begin(),
                                     dataset.positives().end());
  core::Rng rng(4);
  for (const auto& pair : BuildBalancedPairs(dataset, &rng)) {
    if (pair.label < 0.5f) {
      EXPECT_EQ(positives.count(MakePair(pair.a, pair.b)), 0u);
    }
  }
}

TEST(PairsTest, NoDuplicatePairs) {
  auto dataset = GenerateDataset(SmallConfig()).value();
  core::Rng rng(5);
  auto pairs = BuildBalancedPairs(dataset, &rng);
  std::set<std::pair<int32_t, int32_t>> seen;
  for (const auto& pair : pairs) {
    EXPECT_TRUE(seen.insert({pair.a, pair.b}).second)
        << pair.a << "," << pair.b;
  }
}

TEST(SplitTest, FractionsRespected) {
  std::vector<LabeledPair> pairs(1000);
  for (int i = 0; i < 1000; ++i) {
    pairs[static_cast<size_t>(i)] = {i, i + 1, static_cast<float>(i % 2)};
  }
  core::Rng rng(6);
  auto split = RandomSplit(pairs, 0.7, &rng);
  EXPECT_EQ(split.train.size(), 700u);
  EXPECT_EQ(split.test.size(), 300u);
}

TEST(SplitTest, PartitionIsComplete) {
  std::vector<LabeledPair> pairs;
  for (int i = 0; i < 100; ++i) pairs.push_back({i, i + 1, 1.0f});
  core::Rng rng(7);
  auto split = RandomSplit(pairs, 0.3, &rng);
  std::set<int32_t> all;
  for (const auto& p : split.train) all.insert(p.a);
  for (const auto& p : split.test) all.insert(p.a);
  EXPECT_EQ(all.size(), 100u);
}

TEST(SplitTest, ColdStartIsolation) {
  std::vector<LabeledPair> pairs{{0, 1, 1.0f}, {1, 2, 0.0f}, {2, 3, 1.0f},
                                 {3, 4, 1.0f}, {0, 4, 0.0f}};
  auto split = ColdStartSplit(pairs, {0});
  EXPECT_EQ(split.test.size(), 2u);  // pairs touching drug 0
  EXPECT_EQ(split.train.size(), 3u);
  for (const auto& pair : split.train) {
    EXPECT_NE(pair.a, 0);
    EXPECT_NE(pair.b, 0);
  }
}

TEST(SplitTest, PositivePairsExtraction) {
  std::vector<LabeledPair> pairs{{0, 1, 1.0f}, {1, 2, 0.0f}, {2, 3, 1.0f}};
  auto positives = PositivePairs(pairs);
  ASSERT_EQ(positives.size(), 2u);
  EXPECT_EQ(positives[0].first, 0);
  EXPECT_EQ(positives[1].second, 3);
}

// ---------- featurizer ----------

TEST(FeaturizerTest, EspfBuildsSharedVocabulary) {
  auto dataset = GenerateDataset(SmallConfig()).value();
  FeaturizeConfig config;
  config.mode = SubstructureMode::kEspf;
  config.espf_frequency_threshold = 3;
  auto featurizer =
      SubstructureFeaturizer::Build(dataset.drugs(), config).value();
  EXPECT_GT(featurizer.num_substructures(), 5);
  EXPECT_EQ(featurizer.drug_substructures().size(), 40u);
  for (const auto& substructures : featurizer.drug_substructures()) {
    EXPECT_FALSE(substructures.empty());
    for (int32_t id : substructures) {
      EXPECT_GE(id, 0);
      EXPECT_LT(id, featurizer.num_substructures());
    }
  }
}

TEST(FeaturizerTest, KmerMode) {
  auto dataset = GenerateDataset(SmallConfig()).value();
  FeaturizeConfig config;
  config.mode = SubstructureMode::kKmer;
  config.kmer_k = 4;
  auto featurizer =
      SubstructureFeaturizer::Build(dataset.drugs(), config).value();
  EXPECT_GT(featurizer.num_substructures(),
            40);  // many distinct 4-mers across the corpus
}

TEST(FeaturizerTest, DrugSubstructuresAreUnique) {
  auto dataset = GenerateDataset(SmallConfig()).value();
  FeaturizeConfig config;
  config.mode = SubstructureMode::kKmer;
  config.kmer_k = 3;
  auto featurizer =
      SubstructureFeaturizer::Build(dataset.drugs(), config).value();
  for (const auto& substructures : featurizer.drug_substructures()) {
    std::unordered_set<int32_t> unique(substructures.begin(),
                                       substructures.end());
    EXPECT_EQ(unique.size(), substructures.size());
  }
}

TEST(FeaturizerTest, SegmentNewSmilesUsesExistingVocabOnly) {
  auto dataset = GenerateDataset(SmallConfig()).value();
  FeaturizeConfig config;
  auto featurizer =
      SubstructureFeaturizer::Build(dataset.drugs(), config).value();
  auto ids = featurizer.SegmentNewSmiles("CC(=O)Oc1ccccc1C(=O)O").value();
  for (int32_t id : ids) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, featurizer.num_substructures());
  }
}

TEST(FeaturizerTest, SameSmilesSameFeatures) {
  auto dataset = GenerateDataset(SmallConfig()).value();
  FeaturizeConfig config;
  auto featurizer =
      SubstructureFeaturizer::Build(dataset.drugs(), config).value();
  const auto& drug = dataset.drugs()[0];
  auto re_segmented = featurizer.SegmentNewSmiles(drug.smiles).value();
  EXPECT_EQ(re_segmented, featurizer.drug_substructures()[0]);
}

TEST(FeaturizerTest, CanonicalizationMakesSpellingInvariant) {
  // Two spellings of the same molecule must featurize identically when
  // canonicalization is on, and (for this pair) differently when off.
  DrugRecord a, b;
  a.index = 0;
  a.smiles = "OCC(C)N";
  b.index = 1;
  b.smiles = "NC(C)CO";
  FeaturizeConfig config;
  config.mode = SubstructureMode::kKmer;
  config.kmer_k = 3;
  config.canonicalize_smiles = true;
  auto canonical =
      SubstructureFeaturizer::Build({a, b}, config).value();
  EXPECT_EQ(canonical.drug_substructures()[0],
            canonical.drug_substructures()[1]);

  config.canonicalize_smiles = false;
  auto raw = SubstructureFeaturizer::Build({a, b}, config).value();
  EXPECT_NE(raw.drug_substructures()[0], raw.drug_substructures()[1]);
}

TEST(FeaturizerTest, CanonicalizedColdStartMatchesAnySpelling) {
  DrugRecord drug;
  drug.index = 0;
  drug.smiles = "CC(=O)OCC";
  FeaturizeConfig config;
  config.mode = SubstructureMode::kKmer;
  config.kmer_k = 3;
  config.canonicalize_smiles = true;
  auto featurizer = SubstructureFeaturizer::Build({drug}, config).value();
  // The same molecule written differently segments to the same ids.
  auto ids = featurizer.SegmentNewSmiles("CCOC(C)=O").value();
  EXPECT_EQ(ids, featurizer.drug_substructures()[0]);
}

// ---------- io round trip ----------

TEST(IoTest, DrugsCsvRoundTrip) {
  auto dataset = GenerateDataset(SmallConfig()).value();
  const std::string path = ::testing::TempDir() + "/drugs_test.csv";
  ASSERT_TRUE(WriteDrugsCsv(dataset.drugs(), path).ok());
  auto loaded = ReadDrugsCsv(path).value();
  ASSERT_EQ(loaded.size(), dataset.drugs().size());
  for (size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].drugbank_id, dataset.drugs()[i].drugbank_id);
    EXPECT_EQ(loaded[i].smiles, dataset.drugs()[i].smiles);
    EXPECT_EQ(loaded[i].name, dataset.drugs()[i].name);
  }
  std::remove(path.c_str());
}

TEST(IoTest, PairsCsvRoundTrip) {
  std::vector<LabeledPair> pairs{{0, 1, 1.0f}, {2, 3, 0.0f}};
  const std::string path = ::testing::TempDir() + "/pairs_test.csv";
  ASSERT_TRUE(WritePairsCsv(pairs, path).ok());
  auto loaded = ReadPairsCsv(path).value();
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].a, 0);
  EXPECT_EQ(loaded[0].label, 1.0f);
  EXPECT_EQ(loaded[1].b, 3);
  std::remove(path.c_str());
}

TEST(IoTest, ReadMissingFileFails) {
  EXPECT_FALSE(ReadDrugsCsv("/nonexistent/nope.csv").ok());
  EXPECT_FALSE(ReadPairsCsv("/nonexistent/nope.csv").ok());
}

/// Blesses `content` with the #crc32 trailer and writes it, so the
/// malformed-input tests exercise the parser rather than the checksum.
std::string WriteBlessedCsv(const std::string& name, std::string content) {
  AppendCsvIntegrityFooter(&content);
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(
      core::WriteFileAtomic(core::PosixFs(), path, content).ok());
  return path;
}

TEST(IoTest, MalformedPairRowsNameTheLine) {
  struct Case {
    const char* rows;
    const char* expect_in_message;
  };
  // Header is line 1; the corpus puts one good row on line 2 and the
  // malformed row on line 3.
  const Case cases[] = {
      {"0,1,1\nx,2,0\n", "malformed drug_a index \"x\""},
      {"0,1,1\n2,twelve,0\n", "malformed drug_b index \"twelve\""},
      {"0,1,1\n2,3,maybe\n", "malformed label \"maybe\""},
      {"0,1,1\n2,3,inf\n", "malformed label"},
      {"0,1,1\n-4,3,1\n", "malformed drug_a index \"-4\""},
      {"0,1,1\n99999999999,3,1\n", "malformed drug_a index"},
      {"0,1,1\n2,3\n", "expected 3 fields"},
      {"0,1,1\n2,3,1,0\n", "expected 3 fields"},
  };
  for (const Case& c : cases) {
    const std::string path = WriteBlessedCsv(
        "malformed_pairs.csv", std::string("drug_a,drug_b,label\n") + c.rows);
    auto loaded = ReadPairsCsv(path);
    ASSERT_FALSE(loaded.ok()) << c.rows;
    EXPECT_EQ(loaded.status().code(), core::StatusCode::kInvalidArgument)
        << c.rows;
    EXPECT_NE(loaded.status().message().find(":3: "), std::string::npos)
        << "message should name line 3: " << loaded.status().message();
    EXPECT_NE(loaded.status().message().find(c.expect_in_message),
              std::string::npos)
        << loaded.status().message();
  }
}

TEST(IoTest, MalformedDrugRowsNameTheLine) {
  const std::string header = "index,drugbank_id,name,smiles\n";
  const std::string path = WriteBlessedCsv(
      "malformed_drugs.csv", header + "0,DB1,Alpha,CC\nseven,DB2,Beta,CO\n");
  auto loaded = ReadDrugsCsv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find(":3: "), std::string::npos)
      << loaded.status().message();
  EXPECT_NE(loaded.status().message().find("drug index"), std::string::npos);

  const std::string short_path = WriteBlessedCsv(
      "short_drugs.csv", header + "0,DB1,Alpha\n");
  auto short_row = ReadDrugsCsv(short_path);
  ASSERT_FALSE(short_row.ok());
  EXPECT_NE(short_row.status().message().find("expected 4 fields"),
            std::string::npos);
}

TEST(IoTest, CsvWithoutIntegrityTrailerIsRejected) {
  // An externally-produced CSV (no trailer) can't be distinguished from
  // a file torn at a line boundary, so the readers refuse it and point
  // at the adoption path.
  const std::string path = ::testing::TempDir() + "/no_trailer.csv";
  ASSERT_TRUE(core::WriteFileAtomic(core::PosixFs(), path,
                                    "drug_a,drug_b,label\n0,1,1\n")
                  .ok());
  auto loaded = ReadPairsCsv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), core::StatusCode::kFailedPrecondition);
  EXPECT_NE(loaded.status().message().find("#crc32"), std::string::npos);
  EXPECT_NE(loaded.status().message().find("AppendCsvIntegrityFooter"),
            std::string::npos);
}

TEST(IoTest, ValidatePairsNamesOffendingPair) {
  const std::vector<LabeledPair> pairs{{0, 1, 1.0f}, {5, 1, 0.0f}};
  EXPECT_TRUE(ValidatePairs(pairs, 6).ok());
  auto status = ValidatePairs(pairs, 3);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), core::StatusCode::kOutOfRange);
  EXPECT_NE(status.message().find("pair 1"), std::string::npos);
  EXPECT_NE(status.message().find("5"), std::string::npos);
  EXPECT_NE(status.message().find("3"), std::string::npos);
}

}  // namespace
}  // namespace hygnn::data
