#include "tensor/optimizer.h"

#include <cmath>

#include "core/logging.h"
#include "core/thread_pool.h"
#include "tensor/debug.h"
#include "tensor/kernels/kernels.h"

namespace hygnn::tensor {

namespace {

/// One Adam step's constants, copied out of the optimizer so the chunk
/// loop reads them from registers rather than through `this`.
struct StepConstants {
  float lr, beta1, beta2, eps, weight_decay, bias1, bias2;
};

/// Adam's update over n elements. Its three multiply-adds are written as
/// MulAdd (one rounding on FMA targets), so how GCC vectorizes the loop
/// cannot move a rounding, and every element gets the same float
/// operations in any chunk and at any thread count. The restrict
/// pointers and -fno-math-errno (on this file only) let GCC vectorize
/// the square root and the divisions, which round as the scalar
/// instructions do.
void AdamUpdate(const StepConstants c, float* __restrict w,
                const float* __restrict g, float* __restrict m,
                float* __restrict v, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float grad = kernels::MulAdd(c.weight_decay, w[i], g[i]);
    m[i] = kernels::MulAdd(c.beta1, m[i], (1.0f - c.beta1) * grad);
    v[i] = kernels::MulAdd(c.beta2, v[i], (1.0f - c.beta2) * grad * grad);
    const float m_hat = m[i] / c.bias1;
    const float v_hat = v[i] / c.bias2;
    w[i] -= c.lr * m_hat / (std::sqrt(v_hat) + c.eps);
  }
}

}  // namespace

Adam::Adam(std::vector<Tensor> parameters, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : parameters_(std::move(parameters)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  HYGNN_DCHECK(std::isfinite(lr) && lr > 0.0f) << "Adam lr " << lr;
  HYGNN_DCHECK(beta1 >= 0.0f && beta1 < 1.0f) << "Adam beta1 " << beta1;
  HYGNN_DCHECK(beta2 >= 0.0f && beta2 < 1.0f) << "Adam beta2 " << beta2;
  HYGNN_DCHECK(eps > 0.0f) << "Adam eps " << eps;
  for (const auto& p : parameters_) {
    HYGNN_CHECK(p.defined());
    HYGNN_CHECK(p.requires_grad());
  }
  m_.resize(parameters_.size());
  v_.resize(parameters_.size());
  for (size_t i = 0; i < parameters_.size(); ++i) {
    m_[i].assign(static_cast<size_t>(parameters_[i].size()), 0.0f);
    v_[i].assign(static_cast<size_t>(parameters_[i].size()), 0.0f);
  }
}

AdamState Adam::ExportState() const {
  AdamState state;
  state.step = t_;
  state.m = m_;
  state.v = v_;
  return state;
}

core::Status Adam::RestoreState(const AdamState& state) {
  if (state.m.size() != m_.size() || state.v.size() != v_.size()) {
    return core::Status::InvalidArgument(
        "Adam state parameter count mismatch: state has " +
        std::to_string(state.m.size()) + "/" + std::to_string(state.v.size()) +
        " (m/v), optimizer has " + std::to_string(m_.size()));
  }
  for (size_t i = 0; i < m_.size(); ++i) {
    if (state.m[i].size() != m_[i].size() ||
        state.v[i].size() != v_[i].size()) {
      return core::Status::InvalidArgument(
          "Adam state size mismatch at parameter " + std::to_string(i) +
          ": state has " + std::to_string(state.m[i].size()) +
          " elements, optimizer has " + std::to_string(m_[i].size()));
    }
  }
  if (state.step < 0) {
    return core::Status::InvalidArgument(
        "Adam state has negative step count " + std::to_string(state.step));
  }
  t_ = state.step;
  m_ = state.m;
  v_ = state.v;
  return core::Status::Ok();
}

void Adam::Step() {
  ++t_;
  const StepConstants c{lr_,
                        beta1_,
                        beta2_,
                        eps_,
                        weight_decay_,
                        1.0f - std::pow(beta1_, static_cast<float>(t_)),
                        1.0f - std::pow(beta2_, static_cast<float>(t_))};
  for (size_t pi = 0; pi < parameters_.size(); ++pi) {
    auto& p = parameters_[pi];
    if (!p.has_grad()) continue;
    HYGNN_DCHECK(AllFinite(p.grad(), p.size()))
        << "Adam::Step: non-finite gradient in parameter " << p.ToString()
        << " — enable NumericsGuard to find the producing op";
    float* w = p.data();
    const float* g = p.grad();
    float* m = m_[pi].data();
    float* v = v_[pi].data();
    core::ParallelFor(0, p.size(), kernels::kElementGrain,
                      [=](int64_t lo, int64_t hi) {
                        AdamUpdate(c, w + lo, g + lo, m + lo, v + lo, hi - lo);
                      });
  }
}

void Adam::ZeroGrad() {
  for (auto& p : parameters_) p.ZeroGrad();
}

float Adam::GradNorm() const {
  double total_sq = 0.0;
  for (const auto& p : parameters_) {
    if (!p.has_grad()) continue;
    const float* g = p.grad();
    for (int64_t i = 0; i < p.size(); ++i) {
      total_sq += static_cast<double>(g[i]) * g[i];
    }
  }
  return static_cast<float>(std::sqrt(total_sq));
}

float Adam::ClipGradNorm(float max_norm) {
  const float norm = GradNorm();
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (auto& p : parameters_) {
      if (!p.has_grad()) continue;
      float* g = p.grad();
      core::ParallelFor(0, p.size(), kernels::kElementGrain,
                        [=](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) g[i] *= scale;
                        });
    }
  }
  return norm;
}

}  // namespace hygnn::tensor
