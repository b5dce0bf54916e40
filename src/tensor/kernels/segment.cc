#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "tensor/kernels/kernels.h"

namespace hygnn::tensor::kernels {

namespace {

/// CSR-style grouping of rows by segment: rows of segment s are
/// rows[offsets[s] .. offsets[s + 1]), in ascending row order (the
/// counting sort is stable). Grouping lets the segment kernels
/// parallelize over segments while visiting each segment's rows in the
/// exact order the sequential implementation accumulates them.
struct SegmentGroups {
  std::vector<int64_t> offsets;  // num_segments + 1
  std::vector<int64_t> rows;     // n, grouped by segment
};

SegmentGroups GroupBySegment(const int32_t* seg, int64_t n,
                             int64_t num_segments) {
  SegmentGroups groups;
  groups.offsets.assign(static_cast<size_t>(num_segments) + 1, 0);
  for (int64_t i = 0; i < n; ++i) ++groups.offsets[seg[i] + 1];
  for (int64_t s = 0; s < num_segments; ++s) {
    groups.offsets[s + 1] += groups.offsets[s];
  }
  groups.rows.resize(static_cast<size_t>(n));
  std::vector<int64_t> cursor(groups.offsets.begin(),
                              groups.offsets.end() - 1);
  for (int64_t i = 0; i < n; ++i) groups.rows[cursor[seg[i]]++] = i;
  return groups;
}

}  // namespace

void SegmentSoftmax(const float* scores, const int32_t* seg, int64_t n,
                    int64_t num_segments, float* out) {
  const SegmentGroups groups = GroupBySegment(seg, n, num_segments);
  core::ParallelFor(0, num_segments, kSegmentGrain,
                    [&](int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      const int64_t begin = groups.offsets[s], end = groups.offsets[s + 1];
      float seg_max = -std::numeric_limits<float>::infinity();
      for (int64_t r = begin; r < end; ++r) {
        seg_max = std::max(seg_max, scores[groups.rows[r]]);
      }
      float seg_sum = 0.0f;
      for (int64_t r = begin; r < end; ++r) {
        const int64_t i = groups.rows[r];
        out[i] = std::exp(scores[i] - seg_max);
        seg_sum += out[i];
      }
      for (int64_t r = begin; r < end; ++r) {
        const int64_t i = groups.rows[r];
        out[i] = seg_sum > 0.0f ? out[i] / seg_sum : 0.0f;
      }
    }
  });
}

void SegmentSoftmaxBackward(const float* g, const float* y,
                            const int32_t* seg, int64_t n,
                            int64_t num_segments, float* dscores) {
  const SegmentGroups groups = GroupBySegment(seg, n, num_segments);
  core::ParallelFor(0, num_segments, kSegmentGrain,
                    [&](int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      const int64_t begin = groups.offsets[s], end = groups.offsets[s + 1];
      // d s_i = y_i * (g_i - sum_{j in seg} g_j y_j)
      float seg_dot = 0.0f;
      for (int64_t r = begin; r < end; ++r) {
        const int64_t i = groups.rows[r];
        seg_dot += g[i] * y[i];
      }
      for (int64_t r = begin; r < end; ++r) {
        const int64_t i = groups.rows[r];
        dscores[i] += y[i] * (g[i] - seg_dot);
      }
    }
  });
}

void SegmentSumAccumulate(const float* x, int64_t x_stride,
                          const int32_t* seg, int64_t n, int64_t d,
                          float* out, int64_t num_segments) {
  const SegmentGroups groups = GroupBySegment(seg, n, num_segments);
  core::ParallelFor(0, num_segments, kSegmentGrain,
                    [&](int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      float* dst = out + s * d;
      for (int64_t r = groups.offsets[s]; r < groups.offsets[s + 1]; ++r) {
        const float* src = x + groups.rows[r] * x_stride;
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
