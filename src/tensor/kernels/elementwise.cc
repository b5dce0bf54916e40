#include <algorithm>
#include <cmath>
#include <limits>

#include "core/rng.h"
#include "tensor/kernels/kernels.h"

namespace hygnn::tensor::kernels {

void Add(const float* a, const float* b, float* c, int64_t n) {
  core::ParallelFor(0, n, kElementGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) c[i] = a[i] + b[i];
  });
}

void Sub(const float* a, const float* b, float* c, int64_t n) {
  core::ParallelFor(0, n, kElementGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) c[i] = a[i] - b[i];
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

void RowwiseDotAccumulate(const float* a, const float* b, float* out,
                          int64_t n, int64_t d) {
  core::ParallelFor(0, n, kRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      float acc = 0.0f;
      for (int64_t j = 0; j < d; ++j) acc += a[i * d + j] * b[i * d + j];
      out[i] += acc;
    }
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

void L2NormalizeRows(const float* x, int64_t n, int64_t d, float eps,
                     float* out, float* norms) {
  core::ParallelFor(0, n, kRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      float acc = 0.0f;
      for (int64_t j = 0; j < d; ++j) {
        const float v = x[i * d + j];
        acc += v * v;
      }
      norms[i] = std::max(std::sqrt(acc), eps);
      const float inv = 1.0f / norms[i];
      for (int64_t j = 0; j < d; ++j) out[i * d + j] = x[i * d + j] * inv;
    }
  });
}

void L2NormalizeRowsBackward(const float* g, const float* y,
                             const float* norms, int64_t n, int64_t d,
                             float* dx) {
  core::ParallelFor(0, n, kRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      float dot = 0.0f;
      for (int64_t j = 0; j < d; ++j) dot += g[i * d + j] * y[i * d + j];
      const float inv = 1.0f / norms[i];
      for (int64_t j = 0; j < d; ++j) {
        dx[i * d + j] += (g[i * d + j] - y[i * d + j] * dot) * inv;
      }
    }
  });
}

void RowSoftmax(const float* x, int64_t n, int64_t k, float* out) {
  core::ParallelFor(0, n, kRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      float row_max = -std::numeric_limits<float>::infinity();
      for (int64_t j = 0; j < k; ++j) {
        row_max = std::max(row_max, x[i * k + j]);
      }
      float denom = 0.0f;
      for (int64_t j = 0; j < k; ++j) {
        out[i * k + j] = std::exp(x[i * k + j] - row_max);
        denom += out[i * k + j];
      }
      for (int64_t j = 0; j < k; ++j) out[i * k + j] /= denom;
    }
  });
}

void RowSoftmaxBackward(const float* g, const float* y, int64_t n, int64_t k,
                        float* dx) {
  core::ParallelFor(0, n, kRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      float dot = 0.0f;
      for (int64_t j = 0; j < k; ++j) dot += g[i * k + j] * y[i * k + j];
      for (int64_t j = 0; j < k; ++j) {
        dx[i * k + j] += y[i * k + j] * (g[i * k + j] - dot);
      }
    }
  });
}

}  // namespace hygnn::tensor::kernels
