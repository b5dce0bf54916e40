#include <gtest/gtest.h>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "core/rng.h"
#include "data/featurize.h"
#include "data/generator.h"
#include "data/pairs.h"
#include "graph/builders.h"
#include "hygnn/model.h"
#include "hygnn/trainer.h"
#include "obs/metrics.h"

namespace hygnn::model {
namespace {

struct SmallPipeline {
  SmallPipeline() {
    data::DatasetConfig data_config;
    data_config.num_drugs = 100;
    data_config.seed = 404;
    dataset = std::make_unique<data::DdiDataset>(
        data::GenerateDataset(data_config).value());
    data::FeaturizeConfig feat_config;
    feat_config.espf_frequency_threshold = 3;
    featurizer = std::make_unique<data::SubstructureFeaturizer>(
        data::SubstructureFeaturizer::Build(dataset->drugs(), feat_config)
            .value());
    auto hypergraph = graph::BuildDrugHypergraph(
        featurizer->drug_substructures(), featurizer->num_substructures());
    context = std::make_unique<HypergraphContext>(
        HypergraphContext::FromHypergraph(hypergraph));
    core::Rng rng(405);
    auto pairs = data::BuildBalancedPairs(*dataset, &rng);
    split = data::RandomSplit(pairs, 0.7, &rng);
  }

  HyGnnModel MakeModel(uint64_t seed) const {
    core::Rng rng(seed);
    HyGnnConfig config;
    config.encoder.hidden_dim = 16;
    config.encoder.output_dim = 16;
    return HyGnnModel(featurizer->num_substructures(), config, &rng);
  }

  std::unique_ptr<data::DdiDataset> dataset;
  std::unique_ptr<data::SubstructureFeaturizer> featurizer;
  std::unique_ptr<HypergraphContext> context;
  data::PairSplit split;
};

TEST(TrainerFeaturesTest, MiniBatchTrainingLearns) {
  SmallPipeline pipeline;
  HyGnnModel model = pipeline.MakeModel(1);
  TrainConfig config;
  config.epochs = 60;
  config.batch_size = 256;
  HyGnnTrainer trainer(&model, config);
  trainer.Fit(*pipeline.context, pipeline.split.train);
  auto result = trainer.Evaluate(*pipeline.context, pipeline.split.test);
  EXPECT_GT(result.roc_auc, 0.7);
}

TEST(TrainerFeaturesTest, MiniBatchComparableToFullBatch) {
  SmallPipeline pipeline;
  HyGnnModel full_model = pipeline.MakeModel(2);
  TrainConfig full_config;
  full_config.epochs = 60;
  HyGnnTrainer full_trainer(&full_model, full_config);
  full_trainer.Fit(*pipeline.context, pipeline.split.train);
  auto full = full_trainer.Evaluate(*pipeline.context,
                                    pipeline.split.test);

  HyGnnModel batch_model = pipeline.MakeModel(2);
  TrainConfig batch_config;
  batch_config.epochs = 60;
  batch_config.batch_size = 256;
  HyGnnTrainer batch_trainer(&batch_model, batch_config);
  batch_trainer.Fit(*pipeline.context, pipeline.split.train);
  auto batched = batch_trainer.Evaluate(*pipeline.context,
                                        pipeline.split.test);
  EXPECT_GT(batched.roc_auc, full.roc_auc - 0.1);
}

TEST(TrainerFeaturesTest, EarlyStoppingTerminates) {
  SmallPipeline pipeline;
  HyGnnModel model = pipeline.MakeModel(3);
  TrainConfig config;
  config.epochs = 100000;  // would run forever without early stop
  config.validation_fraction = 0.2;
  config.patience = 12;
  HyGnnTrainer trainer(&model, config);
  obs::Timer watch;
  trainer.Fit(*pipeline.context, pipeline.split.train);
  // Generous bound: early stopping must kick in long before 100k
  // full-batch epochs would finish.
  EXPECT_LT(watch.ElapsedSeconds(), 120.0);
  auto result = trainer.Evaluate(*pipeline.context, pipeline.split.test);
  EXPECT_GT(result.roc_auc, 0.6);
}

std::vector<float> FlattenWeights(const HyGnnModel& model) {
  std::vector<float> flat;
  for (const auto& p : model.Parameters()) {
    flat.insert(flat.end(), p.data(), p.data() + p.size());
  }
  return flat;
}

TEST(TrainerFeaturesTest, EarlyStopRestoresBestEpochWeights) {
  SmallPipeline pipeline;
  HyGnnModel stopped = pipeline.MakeModel(5);
  TrainConfig config;
  config.epochs = 100000;
  config.validation_fraction = 0.2;
  config.patience = 8;
  HyGnnTrainer trainer(&stopped, config);
  trainer.Fit(*pipeline.context, pipeline.split.train);
  ASSERT_TRUE(trainer.early_stopped());
  const int32_t best = trainer.best_epoch();
  ASSERT_GE(best, 0);
  EXPECT_EQ(trainer.val_losses().size(), trainer.epoch_losses().size());
  // The stop fires `patience` epochs after the last improvement.
  EXPECT_EQ(static_cast<int32_t>(trainer.epoch_losses().size()),
            best + config.patience + 1);

  // Replay: same seed, but stop exactly after the best epoch. Training
  // is deterministic, so both runs are identical through epoch `best`
  // and the replay never gets far enough to early-stop — its final
  // weights are precisely the snapshot the stopped run must restore.
  HyGnnModel replay = pipeline.MakeModel(5);
  TrainConfig replay_config = config;
  replay_config.epochs = best + 1;
  HyGnnTrainer replay_trainer(&replay, replay_config);
  replay_trainer.Fit(*pipeline.context, pipeline.split.train);
  EXPECT_FALSE(replay_trainer.early_stopped());

  const auto restored = FlattenWeights(stopped);
  const auto reference = FlattenWeights(replay);
  ASSERT_EQ(restored.size(), reference.size());
  EXPECT_EQ(std::memcmp(restored.data(), reference.data(),
                        restored.size() * sizeof(float)),
            0);
}

TEST(TrainerFeaturesTest, SingleBatchEpochLossEqualsLastBatchLoss) {
  // With one batch per epoch the example-weighted epoch mean must
  // degenerate to exactly that batch's loss.
  SmallPipeline pipeline;
  HyGnnModel model = pipeline.MakeModel(6);
  TrainConfig config;
  config.epochs = 3;
  config.batch_size =
      static_cast<int32_t>(pipeline.split.train.size());  // one batch
  HyGnnTrainer trainer(&model, config);
  trainer.Fit(*pipeline.context, pipeline.split.train);
  ASSERT_EQ(trainer.epoch_losses().size(), 3u);
  EXPECT_EQ(trainer.epoch_losses().back(), trainer.last_batch_loss());
}

TEST(TrainerFeaturesTest, EpochLossIsMeanNotLastBatch) {
  // Uneven batches: the short final batch must not dominate. The epoch
  // record is the example-weighted mean over the whole epoch, while
  // last_batch_loss() keeps the raw final-step quantity (the value the
  // old code wrongly averaged unweighted).
  SmallPipeline pipeline;
  HyGnnModel model = pipeline.MakeModel(7);
  TrainConfig config;
  config.epochs = 2;
  config.batch_size =
      static_cast<int32_t>(pipeline.split.train.size()) - 1;  // sizes n-1, 1
  HyGnnTrainer trainer(&model, config);
  trainer.Fit(*pipeline.context, pipeline.split.train);
  ASSERT_EQ(trainer.epoch_losses().size(), 2u);
  for (float loss : trainer.epoch_losses()) {
    EXPECT_TRUE(std::isfinite(loss));
  }
  EXPECT_NE(trainer.epoch_losses().back(), trainer.last_batch_loss());
}

TEST(TrainerFeaturesTest, ValidationFoldShrinksTrainingSet) {
  // With validation_fraction the trainer must still work on a tiny set.
  SmallPipeline pipeline;
  HyGnnModel model = pipeline.MakeModel(4);
  TrainConfig config;
  config.epochs = 10;
  config.validation_fraction = 0.5;
  HyGnnTrainer trainer(&model, config);
  const float loss = trainer.Fit(*pipeline.context, pipeline.split.train);
  EXPECT_TRUE(std::isfinite(loss));
}

TEST(TrainerFeaturesTest, EmptyTrainingFoldIsATypedError) {
  // No pairs, or a validation fold of the whole set, leaves nothing to
  // train on: TryFit refuses both before any step, full batch and
  // mini-batch alike.
  SmallPipeline pipeline;
  const std::vector<data::LabeledPair> none;
  for (const int32_t batch_size : {0, 64}) {
    for (const double fraction : {0.0, 1.0, 1.5}) {
      SCOPED_TRACE("batch_size " + std::to_string(batch_size) +
                   " validation_fraction " + std::to_string(fraction));
      HyGnnModel model = pipeline.MakeModel(8);
      TrainConfig config;
      config.epochs = 2;
      config.batch_size = batch_size;
      config.validation_fraction = fraction;
      HyGnnTrainer trainer(&model, config);
      const auto& pairs = fraction > 0.0 ? pipeline.split.train : none;
      auto result = trainer.TryFit(*pipeline.context, pairs);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), core::StatusCode::kInvalidArgument);
      EXPECT_TRUE(trainer.epoch_losses().empty());
    }
  }
}

}  // namespace
}  // namespace hygnn::model
