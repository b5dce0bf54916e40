#include "tensor/tensor.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>

#include "core/logging.h"
#include "core/thread_pool.h"
#include "obs/optime.h"
#include "tensor/kernels/kernels.h"
#include "tensor/tape.h"

namespace hygnn::tensor {

namespace {

/// Nesting depth of live InferenceModeScope instances. Relaxed atomics
/// suffice: the scope is created/destroyed on the coordinating thread
/// before/after any ParallelFor fan-out that reads it.
std::atomic<int32_t> inference_depth{0};

}  // namespace

InferenceModeScope::InferenceModeScope() {
  inference_depth.fetch_add(1, std::memory_order_relaxed);
}

InferenceModeScope::~InferenceModeScope() {
  const int32_t previous =
      inference_depth.fetch_sub(1, std::memory_order_relaxed);
  HYGNN_DCHECK_GT(previous, 0) << "unbalanced InferenceModeScope";
}

bool InferenceModeEnabled() {
  return inference_depth.load(std::memory_order_relaxed) > 0;
}

Tensor Tensor::Zeros(int64_t rows, int64_t cols, bool requires_grad) {
  HYGNN_CHECK_GT(rows, 0);
  HYGNN_CHECK_GT(cols, 0);
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  AssignZeros(impl.get());
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::Full(int64_t rows, int64_t cols, float value,
                    bool requires_grad) {
  HYGNN_CHECK_GT(rows, 0);
  HYGNN_CHECK_GT(cols, 0);
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->data.assign(static_cast<size_t>(rows * cols), value);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::FromVector(std::vector<float> values, int64_t rows,
                          int64_t cols, bool requires_grad) {
  HYGNN_CHECK_EQ(static_cast<int64_t>(values.size()), rows * cols);
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->data = std::move(values);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return Full(1, 1, value, requires_grad);
}

float Tensor::At(int64_t r, int64_t c) const {
  HYGNN_CHECK(r >= 0 && r < rows() && c >= 0 && c < cols());
  EnsureValue();
  return impl_->data[static_cast<size_t>(r * cols() + c)];
}

void Tensor::Set(int64_t r, int64_t c, float value) {
  HYGNN_CHECK(r >= 0 && r < rows() && c >= 0 && c < cols());
  EnsureValue();
  impl_->data[static_cast<size_t>(r * cols() + c)] = value;
}

float Tensor::item() const {
  HYGNN_CHECK_EQ(size(), 1);
  EnsureValue();
  return impl_->data[0];
}

void Tensor::Backward() {
  HYGNN_CHECK(defined());
  HYGNN_CHECK_EQ(size(), 1);
  // Forward values must exist before gradients flow; a pending root
  // materializes (linearize -> execute) right here.
  MaterializeTensor(impl_);
  // Topological order by iterative post-order DFS over parents.
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  std::vector<std::pair<TensorImpl*, size_t>> stack;
  stack.emplace_back(impl_.get(), 0);
  visited.insert(impl_.get());
  while (!stack.empty()) {
    auto& [node, child_index] = stack.back();
    if (child_index < node->parents.size()) {
      TensorImpl* parent = node->parents[child_index++].get();
      if (visited.insert(parent).second) {
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  impl_->EnsureGrad();
  impl_->grad[0] = 1.0f;
  // order is post-order (children before parents in graph-edge sense);
  // reverse it so the root runs first.
  const bool time_ops = obs::KernelTimingEnabled();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    ExecuteNodeBackward(*it, time_ops);
  }
}

void Tensor::ZeroGrad() {
  float* g = impl_->grad.data();
  core::ParallelFor(0, static_cast<int64_t>(impl_->grad.size()),
                    kernels::kElementGrain, [=](int64_t lo, int64_t hi) {
                      std::fill(g + lo, g + hi, 0.0f);
                    });
}

Tensor Tensor::Detach() const {
  EnsureValue();
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows();
  impl->cols = cols();
  impl->data = impl_->data;
  impl->requires_grad = false;
  return Tensor(std::move(impl));
}

Tensor Tensor::Clone() const {
  auto copy = Detach();
  copy.impl()->requires_grad = impl_->requires_grad;
  return copy;
}

std::string Tensor::ToString() const {
  if (!defined()) return "Tensor[null]";
  return "Tensor[" + std::to_string(rows()) + "x" + std::to_string(cols()) +
         "]";
}

}  // namespace hygnn::tensor
