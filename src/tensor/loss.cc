#include "tensor/loss.h"

#include <cmath>

#include "core/logging.h"
#include "obs/optime.h"
#include "tensor/debug.h"
#include "tensor/ops.h"

namespace hygnn::tensor {

Tensor BceWithLogitsLoss(const Tensor& logits,
                         const std::vector<float>& targets) {
  HYGNN_CHECK(logits.defined());
  HYGNN_CHECK_EQ(logits.cols(), 1);
  HYGNN_CHECK_EQ(logits.rows(), static_cast<int64_t>(targets.size()));
  const int64_t n = logits.rows();
  auto zi = logits.impl();
  // This loss reads zi->data inline (it is an opaque eager op, not a
  // recorded one), so a pending logits graph executes here.
  MaterializeTensor(zi);
  for (float y : targets) {
    HYGNN_DCHECK(y >= 0.0f && y <= 1.0f)
        << "BceWithLogitsLoss target " << y << " outside [0, 1]";
  }

  auto out = std::make_shared<TensorImpl>();
  out->op = "BceWithLogitsLoss";
  out->rows = 1;
  out->cols = 1;
  AssignZeros(out.get());
  out->requires_grad = zi->requires_grad && !InferenceModeEnabled();
  if (out->requires_grad) out->parents = {zi};
  obs::OpStart(out.get());

  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const float z = zi->data[i];
    const float y = targets[i];
    acc += std::max(z, 0.0f) - z * y + std::log1p(std::exp(-std::fabs(z)));
  }
  out->data[0] = static_cast<float>(acc / static_cast<double>(n));

  if (out->requires_grad) {
    TensorImpl* oi = out.get();
    auto targets_copy = targets;
    out->backward_fn = [zi, oi, targets_copy, n]() {
      if (oi->grad.empty()) return;
      zi->EnsureGrad();
      const float g = oi->grad[0] / static_cast<float>(n);
      for (int64_t i = 0; i < n; ++i) {
        const float z = zi->data[i];
        float sig;
        if (z >= 0.0f) {
          const float e = std::exp(-z);
          sig = 1.0f / (1.0f + e);
        } else {
          const float e = std::exp(z);
          sig = e / (1.0f + e);
        }
        zi->grad[i] += g * (sig - targets_copy[i]);
      }
    };
  }
  obs::OpFinish(out.get(), out->op);
  GuardOpResult(out);
  return Tensor(out);
}

Tensor BceLoss(const Tensor& probs, const std::vector<float>& targets,
               float eps) {
  HYGNN_CHECK(probs.defined());
  HYGNN_CHECK_EQ(probs.cols(), 1);
  HYGNN_CHECK_EQ(probs.rows(), static_cast<int64_t>(targets.size()));
  const int64_t n = probs.rows();
  HYGNN_DCHECK(AllFinite(probs.data(), n))
      << "BceLoss probabilities contain NaN/Inf";
  for (float t : targets) {
    HYGNN_DCHECK(t >= 0.0f && t <= 1.0f)
        << "BceLoss target " << t << " outside [0, 1]";
  }
  Tensor y = Tensor::FromVector(targets, n, 1);
  Tensor one = Tensor::Full(n, 1, 1.0f);
  // -(y*log(p) + (1-y)*log(1-p)) averaged.
  Tensor term1 = Mul(y, Log(probs, eps));
  Tensor term2 = Mul(Sub(one, y), Log(Sub(one, probs), eps));
  return Scale(ReduceMean(Add(term1, term2)), -1.0f);
}

Tensor MseLoss(const Tensor& predictions, const std::vector<float>& targets) {
  HYGNN_CHECK(predictions.defined());
  HYGNN_CHECK_EQ(predictions.cols(), 1);
  HYGNN_CHECK_EQ(predictions.rows(), static_cast<int64_t>(targets.size()));
  Tensor y = Tensor::FromVector(targets, predictions.rows(), 1);
  Tensor diff = Sub(predictions, y);
  return ReduceMean(Mul(diff, diff));
}

Tensor SoftmaxCrossEntropyLoss(const Tensor& logits,
                               const std::vector<int32_t>& labels) {
  HYGNN_CHECK(logits.defined());
  const int64_t n = logits.rows(), k = logits.cols();
  HYGNN_CHECK_EQ(n, static_cast<int64_t>(labels.size()));
  for (int32_t label : labels) {
    HYGNN_CHECK(label >= 0 && label < k);
  }
  auto zi = logits.impl();
  // Opaque eager op: reads zi->data inline, so execute any pending
  // graph first.
  MaterializeTensor(zi);
  auto out = std::make_shared<TensorImpl>();
  out->op = "SoftmaxCrossEntropyLoss";
  out->rows = 1;
  out->cols = 1;
  AssignZeros(out.get());
  out->requires_grad = zi->requires_grad && !InferenceModeEnabled();
  if (out->requires_grad) out->parents = {zi};
  obs::OpStart(out.get());

  // Cache the softmax for the backward pass.
  auto softmax = std::make_shared<std::vector<float>>(
      static_cast<size_t>(n * k));
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    float row_max = zi->data[i * k];
    for (int64_t j = 1; j < k; ++j) {
      row_max = std::max(row_max, zi->data[i * k + j]);
    }
    double denom = 0.0;
    for (int64_t j = 0; j < k; ++j) {
      const double e = std::exp(zi->data[i * k + j] - row_max);
      (*softmax)[static_cast<size_t>(i * k + j)] = static_cast<float>(e);
      denom += e;
    }
    for (int64_t j = 0; j < k; ++j) {
      (*softmax)[static_cast<size_t>(i * k + j)] /=
          static_cast<float>(denom);
    }
    total -= std::log(std::max<double>(
        (*softmax)[static_cast<size_t>(i * k + labels[i])], 1e-30));
  }
  out->data[0] = static_cast<float>(total / static_cast<double>(n));

  if (out->requires_grad) {
    TensorImpl* oi = out.get();
    auto labels_copy = labels;
    out->backward_fn = [zi, oi, softmax, labels_copy, n, k]() {
      if (oi->grad.empty()) return;
      zi->EnsureGrad();
      const float g = oi->grad[0] / static_cast<float>(n);
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t j = 0; j < k; ++j) {
          float delta = (*softmax)[static_cast<size_t>(i * k + j)];
          if (j == labels_copy[i]) delta -= 1.0f;
          zi->grad[i * k + j] += g * delta;
        }
      }
    };
  }
  obs::OpFinish(out.get(), out->op);
  GuardOpResult(out);
  return Tensor(out);
}

}  // namespace hygnn::tensor
