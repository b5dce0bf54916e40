#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "core/csr.h"
#include "tensor/kernels/kernels.h"

namespace hygnn::tensor::kernels {

// The segment reductions take their rows grouped by segment (a
// core::Csr, ascending within each segment) and run segments in
// parallel, each visiting its rows in ascending order: the order a
// sequential loop over the rows accumulates them in, so every sum keeps
// its bits.

void SegmentSoftmax(const float* scores, const core::Csr& groups,
                    float* out) {
  core::ParallelFor(0, groups.num_keys(), kSegmentGrain,
                    [&](int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      const std::span<const int32_t> rows = groups.Range(s);
      float seg_max = -std::numeric_limits<float>::infinity();
      for (const int32_t i : rows) seg_max = std::max(seg_max, scores[i]);
      float seg_sum = 0.0f;
      for (const int32_t i : rows) {
        out[i] = std::exp(scores[i] - seg_max);
        seg_sum += out[i];
      }
      for (const int32_t i : rows) {
        out[i] = seg_sum > 0.0f ? out[i] / seg_sum : 0.0f;
      }
    }
  });
}

void SegmentSoftmaxBackward(const float* g, const float* y,
                            const core::Csr& groups, float* dscores) {
  core::ParallelFor(0, groups.num_keys(), kSegmentGrain,
                    [&](int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      const std::span<const int32_t> rows = groups.Range(s);
      // d s_i = y_i * (g_i - sum_{j in seg} g_j y_j)
      float seg_dot = 0.0f;
      for (const int32_t i : rows) seg_dot += g[i] * y[i];
      for (const int32_t i : rows) dscores[i] += y[i] * (g[i] - seg_dot);
    }
  });
}

void SegmentSumAccumulate(const float* x, const core::Csr& groups, int64_t d,
                          float* out) {
  core::ParallelFor(0, groups.num_keys(), kSegmentGrain,
                    [&](int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      float* dst = out + s * d;
      for (const int32_t i : groups.Range(s)) {
        const float* src = x + i * d;
        for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
      }
    }
  });
}

void SegmentSumBackward(const float* g, const int32_t* seg, int64_t n,
                        int64_t d, float* dx) {
  core::ParallelFor(0, n, kRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* src = g + static_cast<int64_t>(seg[i]) * d;
      float* dst = dx + i * d;
      for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
    }
  });
}

void WeightedSegmentSum(const float* x, const float* w,
                        const core::Csr& groups, int64_t d, float* out) {
  core::ParallelFor(0, groups.num_keys(), kSegmentGrain,
                    [&](int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      float* dst = out + s * d;
      std::fill(dst, dst + d, 0.0f);
      for (const int32_t i : groups.Range(s)) {
        const float wi = w[i];
        const float* src = x + static_cast<int64_t>(i) * d;
        for (int64_t j = 0; j < d; ++j) {
          dst[j] = dst[j] + MulAdd(wi, src[j], 0.0f);
        }
      }
    }
  });
}

void WeightedSegmentSumBackward(const float* x, const float* w,
                                const int32_t* seg, int64_t n, int64_t d,
                                const float* g, float* dx, float* dw) {
  core::ParallelFor(0, n, kRowGrain, [&](int64_t lo, int64_t hi) {
    // Row i's share of the product's gradient, which RowDot reads whole.
    thread_local std::vector<float> t_row;
    t_row.resize(static_cast<size_t>(d));
    float* t = t_row.data();
    for (int64_t i = lo; i < hi; ++i) {
      const float* gs = g + static_cast<int64_t>(seg[i]) * d;
      for (int64_t j = 0; j < d; ++j) t[j] = 0.0f + gs[j];
      if (dx != nullptr) {
        const float wi = w[i];
        float* dr = dx + i * d;
        for (int64_t j = 0; j < d; ++j) dr[j] = MulAdd(wi, t[j], dr[j]);
      }
      if (dw != nullptr) dw[i] = dw[i] + RowDot(t, x + i * d, d);
    }
  });
}

}  // namespace hygnn::tensor::kernels
