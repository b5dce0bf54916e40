#include "step.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <unordered_set>

#include "core/logging.h"
#include "stats.h"
#include "tensor/loss.h"
#include "tensor/tensor.h"

namespace hygnn::perfbench {

namespace {

/// MatMul forward + backward flops in the graph below `root`: 2mkn
/// forward, and 2mkn more for each input that receives a gradient.
double MatMulFlop(const tensor::Tensor& root) {
  double flop = 0.0;
  std::unordered_set<const tensor::TensorImpl*> seen;
  std::vector<const tensor::TensorImpl*> stack = {root.impl().get()};
  while (!stack.empty()) {
    const tensor::TensorImpl* node = stack.back();
    stack.pop_back();
    if (!seen.insert(node).second) continue;
    if (std::strcmp(node->op, "MatMul") == 0 && node->parents.size() == 2) {
      const tensor::TensorImpl& a = *node->parents[0];
      const double mkn = static_cast<double>(a.rows) *
                         static_cast<double>(a.cols) *
                         static_cast<double>(node->cols);
      flop += 2.0 * mkn;
      for (const auto& parent : node->parents) {
        if (parent->requires_grad) flop += 2.0 * mkn;
      }
    }
    for (const auto& parent : node->parents) stack.push_back(parent.get());
  }
  return flop;
}

double Ms(double start_s) { return (NowSeconds() - start_s) * 1e3; }

}  // namespace

StepRunner::StepRunner(model::HyGnnModel* model,
                       const model::HypergraphContext* context,
                       std::vector<data::LabeledPair> train,
                       const model::TrainConfig& config)
    : model_(model),
      context_(context),
      train_(std::move(train)),
      train_labels_(model::LabelsOf(train_)),
      config_(config),
      rng_(config.seed),
      optimizer_(model->Parameters(), config.learning_rate, 0.9f, 0.999f,
                 1e-8f, config.weight_decay),
      order_(train_.size()) {
  HYGNN_CHECK(!train_.empty());
}

float StepRunner::Step(StepTrace* trace) {
  const bool full_batch = config_.batch_size <= 0;
  std::vector<data::LabeledPair> batch_storage;
  std::vector<float> label_storage;
  const std::vector<data::LabeledPair>* batch = &train_;
  const std::vector<float>* labels = &train_labels_;
  if (!full_batch) {
    // Fit's mini-batch order: a fresh shuffle of the canonical order at
    // every epoch start, then consecutive chunks.
    if (cursor_ == 0) {
      std::iota(order_.begin(), order_.end(), size_t{0});
      rng_.Shuffle(order_);
      epoch_loss_sum_ = 0.0;
      epoch_examples_ = 0;
    }
    const size_t end = std::min(
        train_.size(), cursor_ + static_cast<size_t>(config_.batch_size));
    batch_storage.reserve(end - cursor_);
    for (size_t i = cursor_; i < end; ++i) {
      batch_storage.push_back(train_[order_[i]]);
    }
    label_storage = model::LabelsOf(batch_storage);
    batch = &batch_storage;
    labels = &label_storage;
    cursor_ = end == train_.size() ? 0 : end;
  }

  float loss_value = 0.0f;
  if (trace == nullptr) {
    optimizer_.ZeroGrad();
    tensor::Tensor logits =
        model_->Forward(*context_, *batch, /*training=*/true, &rng_);
    tensor::Tensor loss = tensor::BceWithLogitsLoss(logits, *labels);
    loss.Backward();
    if (config_.grad_clip > 0.0f) optimizer_.ClipGradNorm(config_.grad_clip);
    optimizer_.Step();
    loss_value = loss.item();
  } else {
    double start = NowSeconds();
    optimizer_.ZeroGrad();
    trace->optim_ms = Ms(start);

    start = NowSeconds();
    tensor::Tensor embeddings =
        model_->EmbedDrugs(*context_, /*training=*/true, &rng_);
    (void)embeddings.data();
    trace->encode_ms = Ms(start);

    start = NowSeconds();
    tensor::Tensor logits =
        model_->ScorePairs(embeddings, *batch, /*training=*/true, &rng_);
    (void)logits.data();
    trace->decode_ms = Ms(start);

    start = NowSeconds();
    tensor::Tensor loss = tensor::BceWithLogitsLoss(logits, *labels);
    loss_value = loss.item();
    trace->loss_ms = Ms(start);

    trace->matmul_flop = MatMulFlop(loss);

    start = NowSeconds();
    loss.Backward();
    trace->backward_ms = Ms(start);

    start = NowSeconds();
    if (config_.grad_clip > 0.0f) optimizer_.ClipGradNorm(config_.grad_clip);
    optimizer_.Step();
    trace->optim_ms += Ms(start);
  }

  last_step_pairs_ = batch->size();
  if (full_batch) {
    epoch_done_ = true;
    epoch_loss_ = loss_value;
  } else {
    epoch_loss_sum_ += static_cast<double>(loss_value) *
                       static_cast<double>(batch->size());
    epoch_examples_ += batch->size();
    epoch_done_ = cursor_ == 0;
    if (epoch_done_) {
      epoch_loss_ = static_cast<float>(
          epoch_loss_sum_ / static_cast<double>(epoch_examples_));
    }
  }
  return loss_value;
}

}  // namespace hygnn::perfbench
