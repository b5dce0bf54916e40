#ifndef HYGNN_PERFBENCH_STEP_H_
#define HYGNN_PERFBENCH_STEP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "data/drug.h"
#include "hygnn/encoder.h"
#include "hygnn/model.h"
#include "hygnn/trainer.h"
#include "tensor/optimizer.h"

namespace hygnn::perfbench {

/// Wall time of each public call of one traced step, in milliseconds.
struct StepTrace {
  double encode_ms = 0.0;    ///< HyGnnModel::EmbedDrugs + reading it
  double decode_ms = 0.0;    ///< HyGnnModel::ScorePairs + reading it
  double loss_ms = 0.0;      ///< BceWithLogitsLoss + reading it
  double backward_ms = 0.0;  ///< Tensor::Backward
  double optim_ms = 0.0;     ///< Adam ZeroGrad + ClipGradNorm + Step
  /// MatMul floating-point operations of the step, forward and
  /// backward, counted from the recorded graph's shapes.
  double matmul_flop = 0.0;
};

/// Drives HyGNN training one optimizer step at a time with the public
/// calls HyGnnTrainer::TryFit makes per step (ZeroGrad, Forward,
/// BceWithLogitsLoss, Backward, ClipGradNorm, Step) and one persistent
/// Adam, so a run of N steps follows the same trajectory as one
/// N-epoch Fit (full batch) or the first N mini-batches of a Fit with
/// the same config. Calling Fit once per step would restart Adam every
/// call. Validation, checkpointing and the numerics guard are not
/// driven: the benchmark's configs leave them off.
class StepRunner {
 public:
  /// `model` and `context` must outlive the runner.
  StepRunner(model::HyGnnModel* model,
             const model::HypergraphContext* context,
             std::vector<data::LabeledPair> train,
             const model::TrainConfig& config);

  /// Runs the next step and returns its loss. With `trace`, every call
  /// is timed on its own and its result read inside the timed span,
  /// because the op tape defers execution to the first read.
  float Step(StepTrace* trace = nullptr);

  /// Pairs trained on by the last Step.
  size_t last_step_pairs() const { return last_step_pairs_; }
  /// True when the last Step finished an epoch; epoch_loss() is then
  /// the epoch's example-weighted mean loss, as Fit records it.
  bool epoch_done() const { return epoch_done_; }
  float epoch_loss() const { return epoch_loss_; }

 private:
  model::HyGnnModel* model_;
  const model::HypergraphContext* context_;
  std::vector<data::LabeledPair> train_;
  std::vector<float> train_labels_;
  model::TrainConfig config_;
  core::Rng rng_;
  tensor::Adam optimizer_;
  std::vector<size_t> order_;
  size_t cursor_ = 0;  ///< next position in order_; 0 opens an epoch
  double epoch_loss_sum_ = 0.0;
  size_t epoch_examples_ = 0;
  size_t last_step_pairs_ = 0;
  bool epoch_done_ = false;
  float epoch_loss_ = 0.0f;
};

}  // namespace hygnn::perfbench

#endif  // HYGNN_PERFBENCH_STEP_H_
