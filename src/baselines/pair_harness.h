#ifndef HYGNN_BASELINES_PAIR_HARNESS_H_
#define HYGNN_BASELINES_PAIR_HARNESS_H_

#include <functional>
#include <span>
#include <vector>

#include "baselines/baselines.h"
#include "core/rng.h"
#include "nn/mlp.h"
#include "tensor/tensor.h"

namespace hygnn::baselines {

/// Shared trainer for every "node embeddings + MLP pair head" baseline.
/// `embed_fn` recomputes the drug embedding matrix each epoch (so
/// GNN parameters, if trainable, receive gradients); `embed_params`
/// lists those trainable tensors (empty for frozen embeddings).
class PairModelHarness {
 public:
  PairModelHarness(std::function<tensor::Tensor(bool, core::Rng*)> embed_fn,
                   std::vector<tensor::Tensor> embed_params,
                   int64_t embedding_dim, const BaselineConfig& config,
                   uint64_t seed);

  /// End-to-end training with BCE-with-logits + Adam.
  void Fit(const std::vector<data::LabeledPair>& train_pairs);

  /// Sigmoid scores for `pairs` (inference mode).
  std::vector<float> Score(std::span<const data::LabeledPair> pairs) const;

  /// Fit, then metrics::EvaluateBinary of Score(test_pairs) against the
  /// test labels.
  model::EvalResult FitAndEvaluate(
      const std::vector<data::LabeledPair>& train_pairs,
      const std::vector<data::LabeledPair>& test_pairs);

 private:
  std::function<tensor::Tensor(bool, core::Rng*)> embed_fn_;
  std::vector<tensor::Tensor> embed_params_;
  BaselineConfig config_;
  core::Rng rng_;
  nn::Mlp head_;
};

/// Builds a non-trainable tensor from row-major per-node embeddings.
tensor::Tensor EmbeddingsToTensor(
    const std::vector<std::vector<float>>& rows);

}  // namespace hygnn::baselines

#endif  // HYGNN_BASELINES_PAIR_HARNESS_H_
