#include <algorithm>
#include <cmath>

#include "core/rng.h"
#include "tensor/kernels/kernels.h"

namespace hygnn::tensor::kernels {

void Add(const float* a, const float* b, float* c, int64_t n) {
  core::ParallelFor(0, n, kElementGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) c[i] = a[i] + b[i];
  });
}

void Axpy(float alpha, const float* x, float* y, int64_t n) {
  core::ParallelFor(0, n, kElementGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) y[i] += alpha * x[i];
  });
}

void MulAccumulate(const float* a, const float* b, float* c, int64_t n) {
  core::ParallelFor(0, n, kElementGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) c[i] += a[i] * b[i];
  });
}

void AccumulateConstant(float value, float* y, int64_t n) {
  core::ParallelFor(0, n, kElementGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) y[i] += value;
  });
}

float Sum(const float* x, int64_t n) {
  float acc = 0.0f;
  for (int64_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

void AddRowBroadcast(const float* x, const float* bias, float* out, int64_t n,
                     int64_t d) {
  core::ParallelFor(0, n, kRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      for (int64_t j = 0; j < d; ++j) out[i * d + j] = x[i * d + j] + bias[j];
    }
  });
}

void ColumnSumAccumulate(const float* g, int64_t n, int64_t d, float* out) {
  core::ParallelFor(0, d, kLineGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = 0; i < n; ++i) {
      const float* grow = g + i * d;
      for (int64_t j = lo; j < hi; ++j) out[j] += grow[j];
    }
  });
}

void BiasRelu(const float* x, const float* bias, float* out, int64_t n,
              int64_t d) {
  core::ParallelFor(0, n, kRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      for (int64_t j = 0; j < d; ++j) {
        out[i * d + j] = ScalarRelu(x[i * d + j] + bias[j]);
      }
    }
  });
}

void BiasReluBackward(const float* y, const float* g, int64_t n, int64_t d,
                      float* dx, float* dbias) {
  core::ParallelFor(0, d, kLineGrain, [&](int64_t lo, int64_t hi) {
    // The inline paths hand over the whole range, so walk it one line
    // of columns at a time: each line's bias sums stay in registers
    // across the row walk, starting from dbias and adding rows in
    // ascending order.
    for (int64_t c0 = lo; c0 < hi; c0 += kLineGrain) {
      const int64_t w = std::min(kLineGrain, hi - c0);
      float sum[kLineGrain] = {};
      if (dbias != nullptr) std::copy(dbias + c0, dbias + c0 + w, sum);
      for (int64_t i = 0; i < n; ++i) {
        const float* yr = y + i * d + c0;
        const float* gr = g + i * d + c0;
        float t[kLineGrain];
        for (int64_t j = 0; j < w; ++j) {
          t[j] = 0.0f + gr[j] * (yr[j] > 0.0f ? 1.0f : 0.0f);
        }
        if (dx != nullptr) {
          float* dr = dx + i * d + c0;
          for (int64_t j = 0; j < w; ++j) dr[j] += t[j];
        }
        for (int64_t j = 0; j < w; ++j) sum[j] += t[j];
      }
      if (dbias != nullptr) std::copy(sum, sum + w, dbias + c0);
    }
  });
}

void RowScaleAccumulate(const float* s, const float* x, float* out, int64_t n,
                        int64_t d) {
  core::ParallelFor(0, n, kRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float sv = s[i];
      for (int64_t j = 0; j < d; ++j) out[i * d + j] += sv * x[i * d + j];
    }
  });
}

[[gnu::noinline]] float RowDot(const float* a, const float* b, int64_t d) {
  float acc = 0.0f;
  for (int64_t j = 0; j < d; ++j) acc += a[j] * b[j];
  return acc;
}

void RowwiseDotAccumulate(const float* a, const float* b, float* out,
                          int64_t n, int64_t d) {
  core::ParallelFor(0, n, kRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) out[i] += RowDot(a + i * d, b + i * d, d);
  });
}

void CopyColumnBlock(const float* src, int64_t n, int64_t src_d,
                     int64_t src_off, float* dst, int64_t dst_d,
                     int64_t dst_off, int64_t width) {
  core::ParallelFor(0, n, kRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* s = src + i * src_d + src_off;
      float* t = dst + i * dst_d + dst_off;
      for (int64_t j = 0; j < width; ++j) t[j] = s[j];
    }
  });
}

void AccumulateColumnBlock(const float* src, int64_t n, int64_t src_d,
                           int64_t src_off, float* dst, int64_t dst_d,
                           int64_t dst_off, int64_t width) {
  core::ParallelFor(0, n, kRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* s = src + i * src_d + src_off;
      float* t = dst + i * dst_d + dst_off;
      for (int64_t j = 0; j < width; ++j) t[j] += s[j];
    }
  });
}

void GatherRows(const float* src, int64_t d, const int32_t* indices,
                int64_t n, float* dst) {
  core::ParallelFor(0, n, kRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* s = src + static_cast<int64_t>(indices[i]) * d;
      float* t = dst + i * d;
      for (int64_t j = 0; j < d; ++j) t[j] = s[j];
    }
  });
}

bool AllInRange(const int32_t* v, int64_t n, int32_t lo, int32_t hi) {
  for (int64_t i = 0; i < n; ++i) {
    if (v[i] < lo || v[i] >= hi) return false;
  }
  return true;
}

void DropoutMask(core::Rng* rng, float p, float keep_scale, float* mask,
                 int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    mask[i] = rng->Bernoulli(p) ? 0.0f : keep_scale;
  }
}

float BceWithLogits(const float* z, const float* y, int64_t n) {
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    acc += std::max(z[i], 0.0f) - z[i] * y[i] +
           std::log1p(std::exp(-std::fabs(z[i])));
  }
  return static_cast<float>(acc / static_cast<double>(n));
}

void BceWithLogitsBackward(const float* z, const float* y, int64_t n, float g,
                           float* dz) {
  const float scale = g / static_cast<float>(n);
  for (int64_t i = 0; i < n; ++i) {
    dz[i] += scale * (ScalarSigmoid(z[i]) - y[i]);
  }
}

float SoftmaxCrossEntropy(const float* z, const int32_t* labels, int64_t n,
                          int64_t k, float* softmax) {
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const float* row = z + i * k;
    float* soft = softmax + i * k;
    float row_max = row[0];
    for (int64_t j = 1; j < k; ++j) row_max = std::max(row_max, row[j]);
    double denom = 0.0;
    for (int64_t j = 0; j < k; ++j) {
      const double e = std::exp(row[j] - row_max);
      soft[j] = static_cast<float>(e);
      denom += e;
    }
    for (int64_t j = 0; j < k; ++j) soft[j] /= static_cast<float>(denom);
    total -= std::log(std::max<double>(soft[labels[i]], 1e-30));
  }
  return static_cast<float>(total / static_cast<double>(n));
}

void SoftmaxCrossEntropyBackward(const float* softmax, const int32_t* labels,
                                 int64_t n, int64_t k, float g, float* dz) {
  const float scale = g / static_cast<float>(n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < k; ++j) {
      float delta = softmax[i * k + j];
      if (j == labels[i]) delta -= 1.0f;
      dz[i * k + j] += scale * delta;
    }
  }
}

}  // namespace hygnn::tensor::kernels
