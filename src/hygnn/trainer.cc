#include "hygnn/trainer.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>

#include "core/flags.h"
#include "core/fs.h"
#include "core/logging.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "hygnn/checkpoint.h"
#include "obs/metrics.h"
#include "obs/optime.h"
#include "obs/sink.h"
#include "tensor/debug.h"
#include "tensor/loss.h"
#include "tensor/optimizer.h"
#include "tensor/serialize.h"
#include "tensor/tape.h"

namespace hygnn::model {

using core::Status;

EvalResult EvaluateScores(const std::vector<float>& scores,
                          const std::vector<float>& labels) {
  return metrics::EvaluateBinary(scores, labels);
}

std::vector<float> LabelsOf(const std::vector<data::LabeledPair>& pairs) {
  std::vector<float> labels;
  labels.reserve(pairs.size());
  for (const auto& pair : pairs) labels.push_back(pair.label);
  return labels;
}

HyGnnTrainer::HyGnnTrainer(HyGnnModel* model, const TrainConfig& config)
    : model_(model), config_(config) {
  HYGNN_CHECK(model != nullptr);
}

float HyGnnTrainer::Fit(const HypergraphContext& context,
                        const std::vector<data::LabeledPair>& train_pairs) {
  auto result = TryFit(context, train_pairs);
  HYGNN_CHECK(result.ok()) << result.status().ToString();
  return result.value();
}

core::Result<float> HyGnnTrainer::TryFit(
    const HypergraphContext& context,
    const std::vector<data::LabeledPair>& train_pairs) {
  HYGNN_CHECK(!train_pairs.empty());
  const tensor::ReleaseHeldBuffersOnReturn release_held_buffers;
  epoch_losses_.clear();
  val_losses_.clear();
  last_batch_loss_ = 0.0f;
  best_epoch_ = -1;
  early_stopped_ = false;
  // Kernel thread count: an explicit config wins; 0 leaves the global
  // pool as-is (HYGNN_NUM_THREADS or a prior SetNumThreads call).
  if (config_.threads > 0) core::SetNumThreads(config_.threads);
  // Elementwise fusion: the config opts in (default on) and the
  // HYGNN_FUSE environment flag can veto it for A/B runs. Either way
  // the trained weights are bit-identical — fusion is purely a
  // performance switch.
  tensor::SetFusionEnabled(config_.fuse && core::EnvFlag("HYGNN_FUSE", true));
  core::Rng rng(config_.seed);
  tensor::Adam optimizer(model_->Parameters(), config_.learning_rate, 0.9f,
                         0.999f, 1e-8f, config_.weight_decay);

  // Opt-in numerics watchdog: attributes the first NaN/Inf to the op
  // that produced it and stops training before weights are corrupted.
  const bool guard_numerics =
      config_.numerics_guard || core::EnvFlag("HYGNN_NUMERICS_GUARD", false);
  std::optional<tensor::NumericsGuardScope> guard;
  if (guard_numerics) {
    tensor::NumericsGuard::Reset();
    guard.emplace();
  }

  // Optional validation fold for early stopping.
  std::vector<data::LabeledPair> train = train_pairs;
  std::vector<data::LabeledPair> validation;
  if (config_.validation_fraction > 0.0 && train_pairs.size() >= 10) {
    rng.Shuffle(train);
    const size_t val_size = std::max<size_t>(
        1, static_cast<size_t>(config_.validation_fraction *
                               static_cast<double>(train.size())));
    validation.assign(train.end() - static_cast<ptrdiff_t>(val_size),
                      train.end());
    train.resize(train.size() - val_size);
  }
  const std::vector<float> validation_labels = LabelsOf(validation);

  float last_loss = 0.0f;
  float best_val_loss = std::numeric_limits<float>::infinity();
  int32_t epochs_since_improvement = 0;
  int32_t start_epoch = 0;
  // Weights at the best-validation epoch, one flat vector per parameter
  // in Parameters() order; empty until the first improvement. Early
  // stopping restores these — without the snapshot the trainer would
  // hand back the weights of `patience` consecutive *worse* epochs.
  std::vector<std::vector<float>> best_weights;

  // Checkpointing. The validation split above was re-derived
  // deterministically from the seed, so on resume it is identical to the
  // interrupted run's; restoring the RNG stream afterwards makes every
  // subsequent draw identical too.
  const bool checkpointing = !config_.checkpoint_dir.empty();
  std::string ckpt_path;
  if (config_.resume && !checkpointing) {
    return Status::InvalidArgument(
        "resume requested but checkpoint_dir is empty");
  }
  if (checkpointing) {
    ckpt_path = CheckpointPath(config_.checkpoint_dir);
    if (auto status =
            core::ActiveFileSystem().CreateDir(config_.checkpoint_dir);
        !status.ok()) {
      return status;
    }
    if (config_.resume && core::ActiveFileSystem().Exists(ckpt_path)) {
      // A corrupt or mismatched checkpoint is a hard error: silently
      // restarting from scratch would discard work the caller believes
      // is preserved.
      auto loaded = TrainCheckpoint::Load(ckpt_path);
      if (!loaded.ok()) return loaded.status();
      TrainCheckpoint& ckpt = loaded.value();
      auto parameters = model_->Parameters();
      if (auto status = tensor::RestoreParameters(ckpt.weights, &parameters);
          !status.ok()) {
        return Status(status.code(),
                      "checkpoint does not fit this model (" +
                          status.message() + "): " + ckpt_path);
      }
      if (auto status = optimizer.RestoreState(ckpt.adam); !status.ok()) {
        return Status(status.code(), status.message() + ": " + ckpt_path);
      }
      rng.set_state(ckpt.rng);
      epoch_losses_ = ckpt.epoch_losses;
      if (!epoch_losses_.empty()) last_loss = epoch_losses_.back();
      best_val_loss = ckpt.best_val_loss;
      epochs_since_improvement = ckpt.epochs_since_improvement;
      val_losses_ = ckpt.val_losses;
      best_epoch_ = ckpt.best_epoch;
      best_weights = std::move(ckpt.best_weights);
      start_epoch = ckpt.next_epoch;
      if (config_.verbose) {
        HYGNN_LOG(Info) << "resumed from " << ckpt_path << " at epoch "
                        << start_epoch;
      }
    } else if (config_.resume) {
      // Missing checkpoint is not an error, so restart loops can always
      // pass --resume: the first run simply starts fresh.
      HYGNN_LOG(Info) << "no checkpoint at " << ckpt_path
                      << "; starting fresh";
    }
  }

  // Observability. The recorder is inert when no metrics path is
  // configured (an explicit config wins over the HYGNN_METRICS
  // environment variable), and every gate below is a null check, so the
  // uninstrumented path costs one relaxed load per site. Recording is
  // passive: weights and losses are bit-identical with metrics on or
  // off (ObsTest.MetricsDoNotPerturbTraining pins this).
  const std::string metrics_path = !config_.metrics_path.empty()
                                       ? config_.metrics_path
                                       : core::EnvString("HYGNN_METRICS", "");
  obs::MetricsRecorder recorder(metrics_path);
  std::optional<obs::ScopedMetricsEnabled> metrics_scope;
  const bool previous_timing = obs::KernelTimingEnabled();
  obs::Histogram* epoch_hist = nullptr;
  obs::Histogram* ckpt_hist = nullptr;
  obs::Counter* ckpt_failures = nullptr;
  obs::Counter* batches_counter = nullptr;
  if (recorder.active()) {
    metrics_scope.emplace(true);
    obs::SetKernelTimingEnabled(true);
    auto& registry = obs::MetricsRegistry::Global();
    epoch_hist = registry.GetHistogram("train.epoch_us");
    ckpt_hist = registry.GetHistogram("train.checkpoint_write_us");
    ckpt_failures = registry.GetCounter("train.checkpoint_failures");
    batches_counter = registry.GetCounter("train.batches");
  }

  for (int32_t epoch = start_epoch; epoch < config_.epochs; ++epoch) {
    obs::Timer epoch_timer;
    double grad_norm_sum = 0.0;
    size_t grad_norm_samples = 0;
    if (config_.batch_size > 0) {
      // Each epoch's batch order must be a pure function of the canonical
      // post-split order and this epoch's RNG draws. Shuffling `train` in
      // place would accumulate permutations across epochs, so a resumed run
      // (whose `train` is freshly re-split) could never reproduce the order
      // the interrupted run would have used — breaking bit-identical resume.
      std::vector<size_t> order(train.size());
      std::iota(order.begin(), order.end(), size_t{0});
      rng.Shuffle(order);
      // Example-weighted mean: train.size() is rarely a multiple of the
      // batch size, so the final batch is short — an unweighted mean
      // over batch losses would overweight its examples. Accumulate in
      // double so the mean does not drift with epoch length
      // (TrainerFeaturesTest.EpochLossIsExampleWeightedMean).
      double epoch_loss_sum = 0.0;
      size_t epoch_examples = 0;
      for (size_t begin = 0; begin < train.size();
           begin += static_cast<size_t>(config_.batch_size)) {
        const size_t end = std::min(
            train.size(), begin + static_cast<size_t>(config_.batch_size));
        std::vector<data::LabeledPair> batch;
        batch.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) batch.push_back(train[order[i]]);
        optimizer.ZeroGrad();
        tensor::Tensor logits =
            model_->Forward(context, batch, /*training=*/true, &rng);
        tensor::Tensor loss =
            tensor::BceWithLogitsLoss(logits, LabelsOf(batch));
        loss.Backward();
        float grad_norm = -1.0f;
        if (config_.grad_clip > 0.0f) {
          grad_norm = optimizer.ClipGradNorm(config_.grad_clip);
        } else if (recorder.active()) {
          // GradNorm is read-only; only spend the pass when recording.
          grad_norm = optimizer.GradNorm();
        }
        optimizer.Step();
        last_batch_loss_ = loss.item();
        epoch_loss_sum += static_cast<double>(last_batch_loss_) *
                          static_cast<double>(end - begin);
        epoch_examples += end - begin;
        if (batches_counter != nullptr) batches_counter->Add();
        if (grad_norm >= 0.0f) {
          grad_norm_sum += grad_norm;
          ++grad_norm_samples;
        }
        if (guard_numerics && tensor::NumericsGuard::triggered()) break;
      }
      last_loss = static_cast<float>(epoch_loss_sum /
                                     static_cast<double>(epoch_examples));
    } else {
      optimizer.ZeroGrad();
      tensor::Tensor logits =
          model_->Forward(context, train, /*training=*/true, &rng);
      tensor::Tensor loss =
          tensor::BceWithLogitsLoss(logits, LabelsOf(train));
      loss.Backward();
      float grad_norm = -1.0f;
      if (config_.grad_clip > 0.0f) {
        grad_norm = optimizer.ClipGradNorm(config_.grad_clip);
      } else if (recorder.active()) {
        grad_norm = optimizer.GradNorm();
      }
      optimizer.Step();
      last_loss = loss.item();
      last_batch_loss_ = last_loss;
      if (batches_counter != nullptr) batches_counter->Add();
      if (grad_norm >= 0.0f) {
        grad_norm_sum += grad_norm;
        ++grad_norm_samples;
      }
    }
    epoch_losses_.push_back(last_loss);

    if (guard_numerics && tensor::NumericsGuard::triggered()) {
      HYGNN_LOG(Error) << "numerics guard tripped at epoch " << epoch
                       << "; stopping training early\n"
                       << tensor::NumericsGuard::report();
      break;
    }

    bool stop_early = false;
    float val_loss = std::numeric_limits<float>::quiet_NaN();
    if (!validation.empty()) {
      tensor::Tensor val_logits =
          model_->Forward(context, validation, /*training=*/false, nullptr);
      val_loss =
          tensor::BceWithLogitsLoss(val_logits, validation_labels).item();
      val_losses_.push_back(val_loss);
      if (val_loss < best_val_loss - 1e-5f) {
        best_val_loss = val_loss;
        epochs_since_improvement = 0;
        best_epoch_ = epoch;
        // Snapshot the improving weights. Early stopping fires only
        // after `patience` consecutive *worse* epochs, so without this
        // snapshot the caller would be handed the stale final-epoch
        // weights instead of the best-validation ones.
        const auto parameters = model_->Parameters();
        best_weights.assign(parameters.size(), {});
        for (size_t i = 0; i < parameters.size(); ++i) {
          best_weights[i].assign(parameters[i].data(),
                                 parameters[i].data() + parameters[i].size());
        }
      } else if (++epochs_since_improvement >= config_.patience) {
        if (config_.verbose) {
          HYGNN_LOG(Info) << "early stop at epoch " << epoch
                          << " (val loss " << val_loss << ")";
        }
        stop_early = true;
      }
    }

    const double epoch_ms = epoch_timer.ElapsedMillis();
    if (epoch_hist != nullptr) epoch_hist->Observe(epoch_ms * 1e3);
    if (recorder.active()) {
      obs::JsonWriter event;
      event.Str("type", "event").Str("event", "epoch").Int("epoch", epoch);
      event.Num("wall_ms", epoch_ms);
      event.Num("train_loss", last_loss);
      event.Num("last_batch_loss", last_batch_loss_);
      if (grad_norm_samples > 0) {
        event.Num("grad_norm",
                  grad_norm_sum / static_cast<double>(grad_norm_samples));
      }
      if (!validation.empty()) {
        event.Num("val_loss", val_loss)
            .Num("best_val_loss", best_val_loss)
            .Int("best_epoch", best_epoch_);
      }
      recorder.Event(event.Finish());
    }

    if (stop_early) {
      early_stopped_ = true;
      // Break before the checkpoint block: an early-stopping epoch has
      // never written a checkpoint (the resumed run re-derives the stop
      // from the last interval's counters), and best_weights rides in
      // every interval checkpoint so the re-derived stop restores the
      // same weights.
      break;
    }
    if (checkpointing &&
        ((epoch + 1) % std::max(1, config_.checkpoint_every) == 0 ||
         epoch + 1 == config_.epochs)) {
      TrainCheckpoint ckpt;
      ckpt.next_epoch = epoch + 1;
      ckpt.epoch_losses = epoch_losses_;
      ckpt.best_val_loss = best_val_loss;
      ckpt.epochs_since_improvement = epochs_since_improvement;
      ckpt.val_losses = val_losses_;
      ckpt.best_epoch = best_epoch_;
      ckpt.best_weights = best_weights;
      ckpt.rng = rng.state();
      ckpt.adam = optimizer.ExportState();
      const auto parameters = model_->Parameters();
      ckpt.weights.reserve(parameters.size());
      for (size_t i = 0; i < parameters.size(); ++i) {
        ckpt.weights.emplace_back("param" + std::to_string(i),
                                  parameters[i]);
      }
      obs::Timer write_timer;
      if (auto status = ckpt.Save(ckpt_path, config_.checkpoint_write_attempts,
                                  config_.checkpoint_backoff_ms);
          !status.ok()) {
        // Graceful degradation: a run must not die because one
        // checkpoint write failed — the next interval tries again.
        if (ckpt_failures != nullptr) ckpt_failures->Add();
        HYGNN_LOG(Warning) << "checkpoint write failed (training "
                              "continues): " << status.ToString();
      } else if (ckpt_hist != nullptr) {
        ckpt_hist->Observe(write_timer.ElapsedMicros());
      }
    }
    if (config_.verbose && (epoch % config_.log_every == 0 ||
                            epoch + 1 == config_.epochs)) {
      HYGNN_LOG(Info) << "epoch " << epoch << " loss " << last_loss;
    }
  }

  // Early stopping restores the best-validation weights: the stop fired
  // because the last `patience` epochs were all worse than best_epoch_,
  // so the model currently holds exactly the weights we do NOT want.
  if (early_stopped_ && !best_weights.empty()) {
    auto parameters = model_->Parameters();
    HYGNN_CHECK_EQ(parameters.size(), best_weights.size());
    for (size_t i = 0; i < parameters.size(); ++i) {
      HYGNN_CHECK_EQ(static_cast<size_t>(parameters[i].size()),
                     best_weights[i].size());
      std::copy(best_weights[i].begin(), best_weights[i].end(),
                parameters[i].data());
    }
    if (config_.verbose) {
      HYGNN_LOG(Info) << "restored best-epoch weights (epoch " << best_epoch_
                      << ", val loss " << best_val_loss << ")";
    }
  }

  if (recorder.active()) {
    obs::JsonWriter done;
    done.Str("type", "event").Str("event", "train_done");
    done.Int("epochs_run", static_cast<int64_t>(epoch_losses_.size()));
    done.Int("early_stopped", early_stopped_ ? 1 : 0);
    done.Int("best_epoch", best_epoch_);
    done.Num("final_train_loss", last_loss);
    recorder.Event(done.Finish());
    if (auto status = recorder.Flush(); !status.ok()) {
      // Metrics are best-effort: a failed flush must not fail training.
      HYGNN_LOG(Warning) << "metrics flush failed: " << status.ToString();
    }
  }
  obs::SetKernelTimingEnabled(previous_timing);
  return last_loss;
}

EvalResult HyGnnTrainer::Evaluate(
    const HypergraphContext& context,
    const std::vector<data::LabeledPair>& pairs) const {
  const std::vector<float> scores =
      model_->PredictProbabilities(context, pairs);
  return EvaluateScores(scores, LabelsOf(pairs));
}

}  // namespace hygnn::model
