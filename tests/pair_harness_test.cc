#include <gtest/gtest.h>

#include "baselines/pair_harness.h"
#include "core/rng.h"
#include "tensor/init.h"

namespace hygnn::baselines {
namespace {

TEST(EmbeddingsToTensorTest, RowMajorCopy) {
  std::vector<std::vector<float>> rows{{1.0f, 2.0f}, {3.0f, 4.0f}};
  tensor::Tensor t = EmbeddingsToTensor(rows);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_EQ(t.At(1, 0), 3.0f);
  EXPECT_FALSE(t.requires_grad());
}

TEST(PairHarnessTest, LearnsSeparableEmbeddingSignal) {
  // Drugs 0-3 in cluster A (embedding ~ +1), drugs 4-7 in cluster B
  // (~ -1). Pairs within a cluster interact; across clusters they don't.
  core::Rng rng(1);
  const int32_t n = 8;
  const int64_t dim = 4;
  std::vector<float> flat;
  for (int32_t d = 0; d < n; ++d) {
    for (int64_t j = 0; j < dim; ++j) {
      const float base = d < 4 ? 1.0f : -1.0f;
      flat.push_back(base + 0.1f * rng.UniformFloat());
    }
  }
  tensor::Tensor embeddings = tensor::Tensor::FromVector(flat, n, dim);

  std::vector<data::LabeledPair> train, test;
  for (int32_t a = 0; a < n; ++a) {
    for (int32_t b = a + 1; b < n; ++b) {
      const float label = ((a < 4) == (b < 4)) ? 1.0f : 0.0f;
      ((a + b) % 3 == 0 ? test : train).push_back({a, b, label});
    }
  }
  BaselineConfig config;
  config.epochs = 200;
  auto embed_fn = [embeddings](bool, core::Rng*) { return embeddings; };
  PairModelHarness harness(embed_fn, {}, dim, config, 7);
  auto result = harness.FitAndEvaluate(train, test);
  EXPECT_GT(result.roc_auc, 0.9);
}

TEST(PairHarnessTest, TrainableEmbeddingsReceiveUpdates) {
  core::Rng rng(2);
  tensor::Tensor embeddings =
      tensor::XavierUniform(4, 8, &rng, /*requires_grad=*/true);
  std::vector<float> before(embeddings.data(),
                            embeddings.data() + embeddings.size());
  BaselineConfig config;
  config.epochs = 5;
  auto embed_fn = [embeddings](bool, core::Rng*) { return embeddings; };
  PairModelHarness harness(embed_fn, {embeddings}, 8, config, 3);
  std::vector<data::LabeledPair> train{{0, 1, 1.0f}, {2, 3, 0.0f}};
  harness.Fit(train);
  int changed = 0;
  for (int64_t i = 0; i < embeddings.size(); ++i) {
    if (embeddings.data()[i] != before[static_cast<size_t>(i)]) ++changed;
  }
  EXPECT_GT(changed, 0);
}

TEST(PairHarnessTest, ScoresAreProbabilities) {
  core::Rng rng(3);
  tensor::Tensor embeddings = tensor::NormalInit(5, 4, 1.0f, &rng, false);
  BaselineConfig config;
  config.epochs = 3;
  auto embed_fn = [embeddings](bool, core::Rng*) { return embeddings; };
  PairModelHarness harness(embed_fn, {}, 4, config, 4);
  std::vector<data::LabeledPair> train{{0, 1, 1.0f}, {2, 3, 0.0f}};
  harness.Fit(train);
  std::vector<data::LabeledPair> all;
  for (int32_t a = 0; a < 5; ++a) {
    for (int32_t b = a + 1; b < 5; ++b) all.push_back({a, b, 0.0f});
  }
  for (float score : harness.Score(all)) {
    EXPECT_GE(score, 0.0f);
    EXPECT_LE(score, 1.0f);
  }
}

}  // namespace
}  // namespace hygnn::baselines
