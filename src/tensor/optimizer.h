#ifndef HYGNN_TENSOR_OPTIMIZER_H_
#define HYGNN_TENSOR_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "core/status.h"
#include "tensor/tensor.h"

namespace hygnn::tensor {

/// The evolving part of an Adam optimizer — step count plus both moment
/// vectors per parameter. Snapshotted into training checkpoints so a
/// resumed run takes bit-identical steps.
struct AdamState {
  int64_t step = 0;
  std::vector<std::vector<float>> m;  // first moment per parameter
  std::vector<std::vector<float>> v;  // second moment per parameter
};

/// Adam (Kingma & Ba) with optional L2 weight decay, over a fixed
/// parameter list. Defaults follow the paper: beta1=0.9, beta2=0.999,
/// eps=1e-8. The HyGNN paper trains with Adam at lr = 0.01.
///
/// Step, ZeroGrad and ClipGradNorm's scaling run element by element over
/// fixed-grain core::ParallelFor chunks, so every element gets the same
/// float operations at any thread count. GradNorm's double sum stays
/// serial, in index order: that order is part of the bits.
class Adam {
 public:
  Adam(std::vector<Tensor> parameters, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update using the gradients currently stored on the
  /// parameters. Parameters with no accumulated gradient are skipped.
  void Step();

  /// Clears all parameter gradients. Call between optimization steps.
  void ZeroGrad();

  /// Global L2 norm of all accumulated parameter gradients. Read-only
  /// (never modifies gradients); the trainer's observability layer
  /// reports this per epoch.
  float GradNorm() const;

  /// Scales gradients so their global L2 norm is at most `max_norm`.
  /// Returns the pre-clipping norm.
  float ClipGradNorm(float max_norm);

  /// Copies out the optimizer state for checkpointing.
  AdamState ExportState() const;

  /// Installs a state exported from an identically-shaped optimizer;
  /// fails with a message naming both sides on any size mismatch.
  core::Status RestoreState(const AdamState& state);

 private:
  std::vector<Tensor> parameters_;
  float lr_, beta1_, beta2_, eps_, weight_decay_;
  int64_t t_ = 0;
  std::vector<std::vector<float>> m_;  // first moment per parameter
  std::vector<std::vector<float>> v_;  // second moment per parameter
};

}  // namespace hygnn::tensor

#endif  // HYGNN_TENSOR_OPTIMIZER_H_
