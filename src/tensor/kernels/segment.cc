#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "core/csr.h"
#include "tensor/kernels/kernels.h"

namespace hygnn::tensor::kernels {

// The segment reductions group their rows by segment (core::Csr::GroupBy,
// a stable counting sort) and run segments in parallel, each visiting its
// rows in ascending order: the order a sequential loop over the rows
// accumulates them in, so every sum keeps its bits.

void SegmentSoftmax(const float* scores, const int32_t* seg, int64_t n,
                    int64_t num_segments, float* out) {
  core::Csr groups;
  groups.GroupBy({seg, static_cast<size_t>(n)}, num_segments);
  core::ParallelFor(0, num_segments, kSegmentGrain,
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
                            const int32_t* seg, int64_t n,
                            int64_t num_segments, float* dscores) {
  core::Csr groups;
  groups.GroupBy({seg, static_cast<size_t>(n)}, num_segments);
  core::ParallelFor(0, num_segments, kSegmentGrain,
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

void SegmentSumAccumulate(const float* x, int64_t x_stride,
                          const int32_t* seg, int64_t n, int64_t d,
                          float* out, int64_t num_segments) {
  core::Csr groups;
  groups.GroupBy({seg, static_cast<size_t>(n)}, num_segments);
  core::ParallelFor(0, num_segments, kSegmentGrain,
                    [&](int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      float* dst = out + s * d;
      for (const int32_t i : groups.Range(s)) {
        const float* src = x + i * x_stride;
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

}  // namespace hygnn::tensor::kernels
