#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/fs.h"
#include "core/thread_pool.h"
#include "data/featurize.h"
#include "data/generator.h"
#include "graph/builders.h"
#include "hygnn/model.h"
#include "serve/bundle.h"
#include "serve/embedding_store.h"
#include "serve/scoring.h"

namespace hygnn::serve {
namespace {

/// Shared miniature corpus: generate -> featurize -> hypergraph. The
/// last drug is held out of the serving catalog so AddDrug can join it
/// cold.
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::DatasetConfig data_config;
    data_config.num_drugs = 60;
    data_config.seed = 707;
    dataset_ =
        new data::DdiDataset(data::GenerateDataset(data_config).value());
    data::FeaturizeConfig feat_config;
    feat_config.espf_frequency_threshold = 3;
    featurizer_ = new data::SubstructureFeaturizer(
        data::SubstructureFeaturizer::Build(dataset_->drugs(), feat_config)
            .value());
    catalog_members_ = new std::vector<std::vector<int32_t>>(
        featurizer_->drug_substructures().begin(),
        featurizer_->drug_substructures().end() - 1);
    auto hypergraph = graph::BuildDrugHypergraph(
        *catalog_members_, featurizer_->num_substructures());
    context_ = new model::HypergraphContext(
        model::HypergraphContext::FromHypergraph(hypergraph));
  }

  static void TearDownTestSuite() {
    delete context_;
    delete catalog_members_;
    delete featurizer_;
    delete dataset_;
  }

  static model::HyGnnModel MakeModel(uint64_t seed = 11,
                                     int32_t num_layers = 1) {
    core::Rng rng(seed);
    model::HyGnnConfig config;
    config.encoder.hidden_dim = 16;
    config.encoder.output_dim = 12;
    config.num_layers = num_layers;
    config.decoder_hidden_dim = 10;
    return model::HyGnnModel(featurizer_->num_substructures(), config,
                             &rng);
  }

  static std::vector<data::LabeledPair> SomePairs() {
    std::vector<data::LabeledPair> pairs;
    const int32_t n = context_->num_edges;
    for (int32_t i = 0; i + 1 < n; i += 3) {
      pairs.push_back({i, (i * 7 + 1) % n, 1.0f});
    }
    return pairs;
  }

  static std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }

  static data::DdiDataset* dataset_;
  static data::SubstructureFeaturizer* featurizer_;
  static std::vector<std::vector<int32_t>>* catalog_members_;
  static model::HypergraphContext* context_;
};

data::DdiDataset* ServeTest::dataset_ = nullptr;
data::SubstructureFeaturizer* ServeTest::featurizer_ = nullptr;
std::vector<std::vector<int32_t>>* ServeTest::catalog_members_ = nullptr;
model::HypergraphContext* ServeTest::context_ = nullptr;

TEST_F(ServeTest, BundleRoundTripScoresBitIdentical) {
  const auto model = MakeModel();
  const std::string path = TempPath("roundtrip.hygb");
  ASSERT_TRUE(model.Save(path, featurizer_->vocabulary()).ok());

  chem::SubstructureVocabulary vocabulary;
  auto loaded = model::HyGnnModel::Load(path, &vocabulary);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(vocabulary.size(), featurizer_->vocabulary().size());
  EXPECT_EQ(loaded.value().input_dim(), model.input_dim());
  EXPECT_EQ(loaded.value().config().encoder.hidden_dim,
            model.config().encoder.hidden_dim);

  const auto pairs = SomePairs();
  const auto expected = model.PredictProbabilities(*context_, pairs);
  const auto actual = loaded.value().PredictProbabilities(*context_, pairs);
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]) << "pair " << i;
  }
}

TEST_F(ServeTest, BundleLoadNeedsNoCallerConfig) {
  const auto model = MakeModel(/*seed=*/29);
  const std::string path = TempPath("selfdesc.hygb");
  ASSERT_TRUE(model.Save(path, featurizer_->vocabulary()).ok());
  auto bundle = ModelBundle::Load(path);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  EXPECT_EQ(bundle.value().input_dim, featurizer_->num_substructures());
  EXPECT_EQ(bundle.value().weights.size(), model.Parameters().size());
  EXPECT_EQ(bundle.value().weights[0].first, "encoder.layer0.w_q");
  auto rebuilt = bundle.value().BuildModel();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
}

TEST_F(ServeTest, LoadRejectsBadMagic) {
  const std::string path = TempPath("badmagic.hygb");
  std::ofstream(path, std::ios::binary) << "NOPE this is not a bundle";
  auto loaded = ModelBundle::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("not a HyGNN model bundle"),
            std::string::npos);
}

TEST_F(ServeTest, LoadRejectsVersionSkewNamingBothVersions) {
  const auto model = MakeModel();
  const std::string path = TempPath("skew.hygb");
  ASSERT_TRUE(model.Save(path, featurizer_->vocabulary()).ok());
  // Patch the u32 version field right after the 4-byte magic, then
  // re-bless the integrity footer so Load trips on the skew itself,
  // not on the checksum.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  auto payload = core::StripIntegrityFooter(bytes);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  std::string patched(payload.value());
  const uint32_t bogus = 99;
  std::memcpy(patched.data() + 4, &bogus, sizeof(bogus));
  core::AppendIntegrityFooter(&patched);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(patched.data(), static_cast<std::streamsize>(patched.size()));
  out.close();
  auto loaded = ModelBundle::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), core::StatusCode::kFailedPrecondition);
  EXPECT_NE(loaded.status().message().find("99"), std::string::npos);
  EXPECT_NE(loaded.status().message().find(std::to_string(kBundleVersion)),
            std::string::npos);
}

TEST_F(ServeTest, LoadRejectsTruncation) {
  const auto model = MakeModel();
  const std::string path = TempPath("whole.hygb");
  ASSERT_TRUE(model.Save(path, featurizer_->vocabulary()).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Cut the file at several depths; every prefix must be rejected.
  for (const double fraction : {0.1, 0.5, 0.9}) {
    const std::string cut_path = TempPath("truncated.hygb");
    std::ofstream out(cut_path, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() * fraction));
    out.close();
    auto loaded = ModelBundle::Load(cut_path);
    EXPECT_FALSE(loaded.ok()) << "prefix fraction " << fraction;
  }
}

TEST_F(ServeTest, SaveRejectsVocabularyModelMismatch) {
  const auto model = MakeModel();
  chem::SubstructureVocabulary tiny;
  tiny.AddOrGet("C");
  auto status = model.Save(TempPath("mismatch.hygb"), tiny);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("1"), std::string::npos);
  EXPECT_NE(status.message().find(
                std::to_string(featurizer_->num_substructures())),
            std::string::npos);
}

TEST_F(ServeTest, CachedPairScorerMatchesColdPathBitwise) {
  const auto model = MakeModel();
  EmbeddingStore store(&model);
  ASSERT_TRUE(store.Rebuild(*context_).ok());
  EXPECT_EQ(store.num_drugs(), context_->num_edges);
  EXPECT_EQ(store.dim(), model.config().encoder.output_dim);

  const auto pairs = SomePairs();
  const auto cold = model.PredictProbabilities(*context_, pairs);
  PairScorer scorer(&model, &store);
  const auto cached = scorer.ScorePairs({pairs}).value().scores;
  ASSERT_EQ(cold.size(), cached.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i], cached[i]) << "pair " << i;
  }
}

TEST_F(ServeTest, StoreInvalidationAndRebuildAfterWeightReload) {
  auto model = MakeModel(/*seed=*/11);
  const auto other = MakeModel(/*seed=*/500);
  const std::string path = TempPath("other_weights.hygb");
  ASSERT_TRUE(other.Save(path, featurizer_->vocabulary()).ok());

  EmbeddingStore store(&model);
  ASSERT_TRUE(store.Rebuild(*context_).ok());
  const uint64_t generation_before = store.generation();
  PairScorer scorer(&model, &store);
  const auto pairs = SomePairs();
  const auto before = scorer.ScorePairs({pairs}).value().scores;

  // Reload different weights into the model the store points at: the
  // cache is now stale.
  auto reloaded = model::HyGnnModel::Load(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  model = std::move(reloaded).value();
  store.Invalidate();
  EXPECT_FALSE(store.valid());
  ASSERT_TRUE(store.Rebuild(*context_).ok());
  EXPECT_TRUE(store.valid());
  EXPECT_GT(store.generation(), generation_before);

  const auto after = scorer.ScorePairs({pairs}).value().scores;
  const auto cold_after = model.PredictProbabilities(*context_, pairs);
  bool any_changed = false;
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i], cold_after[i]) << "pair " << i;
    any_changed = any_changed || after[i] != before[i];
  }
  EXPECT_TRUE(any_changed)
      << "reloaded weights produced identical scores; cache test is vacuous";
}

TEST_F(ServeTest, ScreeningDeterministicAcrossThreadCounts) {
  const auto model = MakeModel();
  EmbeddingStore store(&model);
  ASSERT_TRUE(store.Rebuild(*context_).ok());
  ScreeningEngine engine(&model, &store);

  std::vector<std::vector<ScreeningHit>> runs;
  for (const int32_t threads : {1, 2, 4}) {
    core::SetNumThreads(threads);
    runs.push_back(engine.Screen({/*query=*/3, /*top_k=*/10}).value().hits);
  }
  core::SetNumThreads(1);
  ASSERT_EQ(runs[0].size(), 10u);
  for (size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].size(), runs[0].size());
    for (size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[run][i].drug, runs[0][i].drug) << "rank " << i;
      EXPECT_EQ(runs[run][i].score, runs[0][i].score) << "rank " << i;
    }
  }
  // Scores are descending with ids breaking ties.
  for (size_t i = 1; i < runs[0].size(); ++i) {
    EXPECT_GE(runs[0][i - 1].score, runs[0][i].score);
  }
}

TEST_F(ServeTest, ScreeningBreaksTiedScoresByAscendingDrugId) {
  const auto model = MakeModel();
  // A catalog with duplicate hyperedges: drugs 1/3/5 share one
  // substructure set and drugs 2/4 another, so their embeddings — and
  // their scores against the query — are exactly equal. The shortlist
  // must still be a strict order: ties resolve to ascending drug id.
  const std::vector<std::vector<int32_t>> members = {
      {0, 1}, {2, 3}, {4, 5}, {2, 3}, {4, 5}, {2, 3}};
  auto hypergraph = graph::BuildDrugHypergraph(
      members, featurizer_->num_substructures());
  auto context = model::HypergraphContext::FromHypergraph(hypergraph);
  EmbeddingStore store(&model);
  ASSERT_TRUE(store.Rebuild(context).ok());

  ScreeningEngine engine(&model, &store);
  auto response = engine.Screen({/*query=*/0, /*top_k=*/5});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const auto& hits = response.value().hits;
  ASSERT_EQ(hits.size(), 5u);

  // The ties must really exist, or this test is vacuous.
  std::map<int32_t, float> by_drug;
  for (const auto& hit : hits) by_drug[hit.drug] = hit.score;
  ASSERT_EQ(by_drug.size(), 5u);
  EXPECT_EQ(by_drug[1], by_drug[3]);
  EXPECT_EQ(by_drug[3], by_drug[5]);
  EXPECT_EQ(by_drug[2], by_drug[4]);

  // Strict ScreeningHitBefore order over the whole shortlist implies
  // descending scores with tied runs in ascending-id order.
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_TRUE(ScreeningHitBefore(hits[i - 1], hits[i]))
        << "rank " << i - 1 << " (drug " << hits[i - 1].drug
        << ") vs rank " << i << " (drug " << hits[i].drug << ")";
  }
}

TEST_F(ServeTest, ScreeningHitBeforeIsAStrictTotalOrder) {
  const ScreeningHit high{7, 0.9f};
  const ScreeningHit low{2, 0.1f};
  const ScreeningHit low_later{5, 0.1f};
  EXPECT_TRUE(ScreeningHitBefore(high, low));
  EXPECT_FALSE(ScreeningHitBefore(low, high));
  // Tie: lower drug id first, and never both ways.
  EXPECT_TRUE(ScreeningHitBefore(low, low_later));
  EXPECT_FALSE(ScreeningHitBefore(low_later, low));
  // Irreflexive.
  EXPECT_FALSE(ScreeningHitBefore(high, high));
}

TEST_F(ServeTest, AddDrugMatchesFullReencodeBitwise) {
  // Generated models: attention on and off, dropout on some (inference
  // ignores it) and widths off the 16-lane tiles. Each model takes six
  // successive adds: the held-out drug's cold SMILES, a catalog drug's
  // members plus one more, members shared with the cold drug, a
  // duplicate id, an empty drug and a re-add of an earlier added drug.
  // Every new row must memcmp-equal a from-scratch EmbedDrugs over the
  // extended hypergraph, whose earlier adds are neighbours of the later
  // ones.
  const std::string& cold_smiles = dataset_->drugs().back().smiles;
  const auto cold = featurizer_->SegmentNewSmiles(cold_smiles).value();
  ASSERT_FALSE(cold.empty());
  const int32_t vocab = featurizer_->num_substructures();
  const auto catalog_size = static_cast<int32_t>(catalog_members_->size());
  core::Rng rng(2025);
  const auto any_node = [&] {
    return static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(vocab)));
  };
  for (int32_t trial = 0; trial < 12; ++trial) {
    model::HyGnnConfig config;
    config.encoder.use_attention = trial % 2 == 0;
    config.encoder.dropout = trial % 3 == 0 ? 0.3f : 0.0f;
    config.encoder.hidden_dim = 8 + static_cast<int64_t>(rng.UniformInt(17));
    config.encoder.output_dim = 5 + static_cast<int64_t>(rng.UniformInt(22));
    config.decoder_hidden_dim = 10;
    core::Rng init(100 + static_cast<uint64_t>(trial));
    const model::HyGnnModel model(vocab, config, &init);
    EmbeddingStore store(&model);
    ASSERT_TRUE(store.Rebuild(*context_).ok());

    auto extended = *catalog_members_;
    auto shared = (*catalog_members_)[static_cast<size_t>(
        rng.UniformInt(static_cast<uint64_t>(catalog_size)))];
    shared.push_back(any_node());
    std::vector<int32_t> with_cold(cold.begin(),
                                   cold.begin() + (cold.size() + 1) / 2);
    with_cold.push_back(any_node());
    const int32_t twice = any_node();
    const std::vector<std::vector<int32_t>> adds = {
        cold, shared, with_cold, {twice, any_node(), twice}, {}, shared};
    for (size_t a = 0; a < adds.size(); ++a) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " add " +
                   std::to_string(a));
      auto added = a == 0 ? store.AddDrugSmiles(*featurizer_, cold_smiles)
                          : store.AddDrug(adds[a]);
      ASSERT_TRUE(added.ok()) << added.status().ToString();
      ASSERT_EQ(added.value(), static_cast<int32_t>(extended.size()));
      extended.push_back(adds[a]);
      const auto full_context = model::HypergraphContext::FromHypergraph(
          graph::BuildDrugHypergraph(extended, vocab));
      const tensor::Tensor full =
          model.EmbedDrugs(full_context, /*training=*/false, nullptr);
      ASSERT_EQ(full.cols(), store.dim());
      EXPECT_EQ(std::memcmp(store.Row(added.value()),
                            full.data() + added.value() * full.cols(),
                            static_cast<size_t>(store.dim()) * sizeof(float)),
                0);
    }
  }
}

TEST_F(ServeTest, AddDrugValidatesInput) {
  const auto model = MakeModel();
  EmbeddingStore store(&model);
  // Stale store: AddDrug before Rebuild must fail.
  EXPECT_FALSE(store.AddDrug({0}).ok());
  ASSERT_TRUE(store.Rebuild(*context_).ok());
  auto out_of_range = store.AddDrug({featurizer_->num_substructures()});
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), core::StatusCode::kOutOfRange);
  // An isolated (no known substructure) drug still gets a row: all
  // zeros, same as a full forward would produce for an empty hyperedge.
  auto empty = store.AddDrug({});
  ASSERT_TRUE(empty.ok());
  const float* row = store.Row(empty.value());
  for (int64_t j = 0; j < store.dim(); ++j) EXPECT_EQ(row[j], 0.0f);
}

TEST_F(ServeTest, AddDrugRejectsMultiLayerEncoders) {
  const auto model = MakeModel(/*seed=*/11, /*num_layers=*/2);
  EmbeddingStore store(&model);
  ASSERT_TRUE(store.Rebuild(*context_).ok());  // caching still works
  PairScorer scorer(&model, &store);
  const auto pairs = SomePairs();
  const auto cold = model.PredictProbabilities(*context_, pairs);
  const auto cached = scorer.ScorePairs({pairs}).value().scores;
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i], cached[i]) << "pair " << i;
  }
  auto added = store.AddDrug({1, 2});
  ASSERT_FALSE(added.ok());
  EXPECT_EQ(added.status().code(),
            core::StatusCode::kFailedPrecondition);
}

TEST_F(ServeTest, LoadRejectsTornWrite) {
  const auto model = MakeModel();
  const std::string path = TempPath("torn.hygb");
  // A torn write: the rename commits but the tail of the payload never
  // made it to disk. The CRC footer is what catches this.
  core::FaultInjectingFs faulty(&core::PosixFs());
  faulty.TruncateClosesBy(32);
  {
    core::ScopedFileSystem scoped(&faulty);
    ASSERT_TRUE(model.Save(path, featurizer_->vocabulary()).ok());
  }
  auto loaded = ModelBundle::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), core::StatusCode::kIoError);
}

TEST_F(ServeTest, LoadRejectsBadChecksum) {
  const auto model = MakeModel();
  const std::string path = TempPath("corrupt.hygb");
  ASSERT_TRUE(model.Save(path, featurizer_->vocabulary()).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Flip one payload byte past the header: the footer checksum no
  // longer matches and Load must refuse.
  bytes[bytes.size() / 2] ^= 0x40;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  auto loaded = ModelBundle::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos);
}

TEST_F(ServeTest, SaveCrashMidWritePreservesOldBundle) {
  const auto model = MakeModel();
  const auto other = MakeModel(/*seed=*/500);
  const std::string path = TempPath("durable.hygb");
  ASSERT_TRUE(model.Save(path, featurizer_->vocabulary()).ok());

  // Crash the replacement write: the injected failure happens before
  // rename, so the original bundle must survive untouched.
  core::FaultInjectingFs faulty(&core::PosixFs());
  faulty.FailNthAppend(1, /*enospc=*/true);
  {
    core::ScopedFileSystem scoped(&faulty);
    auto status = other.Save(path, featurizer_->vocabulary());
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("ENOSPC"), std::string::npos);
  }
  auto loaded = ModelBundle::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
}

TEST_F(ServeTest, AddDrugNamedRejectsDuplicateIds) {
  const auto model = MakeModel();
  EmbeddingStore store(&model);
  ASSERT_TRUE(store.Rebuild(*context_).ok());

  auto first = store.AddDrugNamed("DB00001", {1, 2});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto found = store.FindDrug("DB00001");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), first.value());

  // Double submission: typed rejection, and the cache did not grow.
  const int32_t drugs_before = store.num_drugs();
  auto dup = store.AddDrugNamed("DB00001", {3});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), core::StatusCode::kAlreadyExists);
  EXPECT_NE(dup.status().message().find("DB00001"), std::string::npos);
  EXPECT_EQ(store.num_drugs(), drugs_before);

  EXPECT_FALSE(store.AddDrugNamed("", {1}).ok());

  // Rebuild reassigns row ids, so the registry is cleared with them.
  ASSERT_TRUE(store.Rebuild(*context_).ok());
  auto gone = store.FindDrug("DB00001");
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), core::StatusCode::kNotFound);
}

TEST_F(ServeTest, AddDrugWithNoRecognizedSubstructuresDegradesGracefully) {
  const auto model = MakeModel();
  EmbeddingStore store(&model);
  ASSERT_TRUE(store.Rebuild(*context_).ok());
  // A named drug with zero recognized substructures still joins the
  // catalog with a zero embedding instead of failing the request.
  auto added = store.AddDrugNamed("DB99999", {});
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  const float* row = store.Row(added.value());
  for (int64_t j = 0; j < store.dim(); ++j) EXPECT_EQ(row[j], 0.0f);
  PairScorer scorer(&model, &store);
  const std::vector<data::LabeledPair> query = {{0, added.value(), 0.0f}};
  const auto scores = scorer.ScorePairs({query}).value().scores;
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_TRUE(std::isfinite(scores[0]));
}

}  // namespace
}  // namespace hygnn::serve
