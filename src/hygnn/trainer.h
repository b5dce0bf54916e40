#ifndef HYGNN_HYGNN_TRAINER_H_
#define HYGNN_HYGNN_TRAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "data/drug.h"
#include "hygnn/model.h"
#include "metrics/metrics.h"

namespace hygnn::model {

/// Training hyperparameters. The paper trains 600 epochs with Adam at
/// lr 0.01; the scaled-down default converges in far fewer epochs on the
/// synthetic corpus.
struct TrainConfig {
  int32_t epochs = 120;
  float learning_rate = 0.01f;
  float grad_clip = 5.0f;
  /// L2 weight decay inside Adam; curbs the dot decoder's tendency to
  /// grow embedding magnitudes without bound.
  float weight_decay = 0.0f;
  /// Pairs per optimization step. <= 0 trains full-batch (the paper's
  /// regime); positive values shuffle and chunk the training pairs,
  /// re-running the encoder per chunk — useful when the pair set is too
  /// large for one graph.
  int32_t batch_size = 0;
  /// When > 0, hold out this fraction of the training pairs as a
  /// validation fold and stop once validation loss has not improved for
  /// `patience` consecutive epochs. Must be below 1.
  double validation_fraction = 0.0;
  int32_t patience = 20;
  bool verbose = false;
  int32_t log_every = 20;
  uint64_t seed = 7;
  /// Runs training under tensor::NumericsGuard: the first op to produce
  /// a NaN/Inf is reported with a producer trace and training stops
  /// before the bad step corrupts the weights. Also enabled by the
  /// HYGNN_NUMERICS_GUARD=1 environment variable (see core::EnvFlag).
  bool numerics_guard = false;
  /// CPU threads for the tensor kernels (core::SetNumThreads). 0 keeps
  /// the current global setting (itself defaulting to HYGNN_NUM_THREADS
  /// or 1). Kernels are bit-deterministic, so the trained weights are
  /// identical at any thread count.
  int32_t threads = 0;
  /// When non-empty, TryFit durably writes a TrainCheckpoint into this
  /// directory every `checkpoint_every` epochs (and creates the
  /// directory if needed). A failed checkpoint write is logged and
  /// training continues — losing a checkpoint must not kill a run.
  std::string checkpoint_dir;
  int32_t checkpoint_every = 1;
  /// Resume from the checkpoint in `checkpoint_dir` if one exists. The
  /// continuation is bit-identical to a run that never stopped: weights,
  /// Adam moments, RNG stream, and early-stop counters are all restored.
  /// A missing checkpoint starts fresh (so restart loops can always pass
  /// the flag); a corrupt one is a typed error, never a silent restart.
  bool resume = false;
  /// Retry policy for transient checkpoint-write failures (e.g. a
  /// briefly full disk): attempts with exponential backoff from
  /// `checkpoint_backoff_ms`.
  int32_t checkpoint_write_attempts = 3;
  int32_t checkpoint_backoff_ms = 50;
  /// When non-empty, TryFit records training observability — per-epoch
  /// wall time, batch-weighted mean loss, validation loss, gradient
  /// norm, checkpoint write latency/failures, and per-op kernel times —
  /// and flushes it to this path as an atomic, checksummed JSONL file
  /// (see src/obs and DESIGN.md §10). Also settable via the
  /// HYGNN_METRICS environment variable (the config wins when both are
  /// set). Metrics never perturb training: a run with metrics on is
  /// bit-identical in weights and losses to the same run with them off.
  std::string metrics_path;
};

/// F1 / ROC-AUC / PR-AUC triple — the paper's reporting columns. The
/// definition lives in metrics::BinaryEval so every scoring path
/// (trainer, baselines, serving) reports through the same computation.
using EvalResult = metrics::BinaryEval;

/// Extracts labels from a labeled-pair list.
std::vector<float> LabelsOf(const std::vector<data::LabeledPair>& pairs);

/// Full-batch trainer for HyGnnModel: each epoch runs the encoder over
/// the whole hypergraph, scores all training pairs, and applies one Adam
/// step of the fused BCE-with-logits loss (eq. 12).
class HyGnnTrainer {
 public:
  /// `model` must outlive the trainer.
  HyGnnTrainer(HyGnnModel* model, const TrainConfig& config);

  /// Trains in place; returns the final training loss. Checkpoint
  /// configuration errors (corrupt checkpoint, unwritable directory)
  /// are fatal here — use TryFit to handle them.
  float Fit(const HypergraphContext& context,
            const std::vector<data::LabeledPair>& train_pairs);

  /// Fit with typed error reporting: no training pairs, a validation
  /// fold of the whole set, resuming from a corrupt or mismatched
  /// checkpoint, or failing to create the checkpoint directory returns
  /// a Status instead of aborting. Every return frees the tensor storage
  /// the steps left held for reuse (tensor::ReleaseHeldBuffers).
  core::Result<float> TryFit(const HypergraphContext& context,
                             const std::vector<data::LabeledPair>& train_pairs);

  /// Scores `pairs` and computes F1/ROC-AUC/PR-AUC against their labels.
  EvalResult Evaluate(const HypergraphContext& context,
                      const std::vector<data::LabeledPair>& pairs) const;

  /// Batch-weighted mean training loss of every epoch of the last
  /// Fit() call, in order (for full-batch training this is simply the
  /// epoch's loss). Deterministic given the seed (and independent of
  /// the thread count), which the determinism tests rely on.
  const std::vector<float>& epoch_losses() const { return epoch_losses_; }

  /// Loss of the final batch of the last epoch Fit() ran. This is the
  /// quantity epoch_losses() used to (incorrectly) record per epoch;
  /// kept for callers that want the raw last-step loss.
  float last_batch_loss() const { return last_batch_loss_; }

  /// Validation loss of every epoch of the last Fit() call (empty when
  /// no validation fold was configured).
  const std::vector<float>& val_losses() const { return val_losses_; }

  /// Epoch index with the best (lowest) validation loss, or -1 when no
  /// validation fold was configured or no epoch ran.
  int32_t best_epoch() const { return best_epoch_; }

  /// True when the last Fit() stopped early on validation patience. In
  /// that case the model holds the best-epoch weights, not the weights
  /// of the (worse) final epochs — see the restore logic in TryFit.
  bool early_stopped() const { return early_stopped_; }

 private:
  HyGnnModel* model_;
  TrainConfig config_;
  std::vector<float> epoch_losses_;
  std::vector<float> val_losses_;
  float last_batch_loss_ = 0.0f;
  int32_t best_epoch_ = -1;
  bool early_stopped_ = false;
};

}  // namespace hygnn::model

#endif  // HYGNN_HYGNN_TRAINER_H_
