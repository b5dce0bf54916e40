// Dense products. This file alone is compiled with -ffp-contract=off
// (see CMakeLists.txt), so the source below, not the optimizer, decides
// every rounding: a multiply and an add fuse only where MulAdd says so.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/kernels/kernels.h"

#if HYGNN_DENSE_TILE_AVX512
#include <immintrin.h>
#endif

namespace hygnn::tensor::kernels {
namespace {

/// Rows of c one microkernel call accumulates. A chunk is whole tiles
/// except at the end of the range, whose last rows take a shorter tile.
constexpr int64_t kTileRows = 4;

/// Columns of c per tile: a 4 × 64 tile is sixteen 512-bit registers.
/// VectorTile holds it in them; the portable Tile leaves the register
/// width to the compiler, and GCC 12 picks 256 bits even on AVX-512.
constexpr int64_t kTileCols = 64;

/// Rows of a one-column c per matrix-vector tile: sixteen independent
/// accumulator chains, where a 4-row tile leaves each MulAdd waiting on
/// the one before it.
constexpr int64_t kVectorTileRows = 16;

/// Least multiply-adds of a MatMul or MatMulNT chunk, which is the
/// fewest whole tiles that reach it. Rows of 64 multiply-adds (the
/// decoder's output layer, m = 1 or k = 1) run in 256-row chunks; rows
/// of 4,096 or more run one tile per chunk.
constexpr int64_t kChunkMulAdds = int64_t{1} << 14;

/// Rows of c per MatMulTN chunk: eight tiles that share each block of
/// the reduction.
constexpr int64_t kReductionChunkRows = 32;
static_assert(kReductionChunkRows % kVectorTileRows == 0);

/// Rows of a and b per block of MatMulTN's reduction. A chunk runs all
/// of its tiles over one block before the next, so it streams b once
/// rather than once per tile.
constexpr int64_t kReductionBlockRows = 64;

/// c + a·b as MatMul and MatMulTN round it: once, fused, on targets
/// with FMA; a rounded product and then a rounded sum elsewhere.
inline float MulAdd(float a, float b, float c) {
#if defined(__FMA__)
  return std::fma(a, b, c);
#else
  return c + a * b;
#endif
}

/// MulAdd(a, b, c) when a != 0, else c, decided by a mask instead of a
/// branch: the zeros of a ReLU output are not predictable.
inline float MulAddUnlessZero(float a, float b, float c) {
  const uint32_t keep = 0u - static_cast<uint32_t>(a != 0.0f);
  return std::bit_cast<float>(
      (std::bit_cast<uint32_t>(MulAdd(a, b, c)) & keep) |
      (std::bit_cast<uint32_t>(c) & ~keep));
}

/// How each output element combines its products.
enum class Rounding {
  /// acc = MulAdd(a, b, acc) per t, skipping a == 0 (MatMul, MatMulTN).
  kMulAdd,
  /// s = +0; s = s + round(a·b) per t (MatMulNT).
  kSumThenAdd,
};

/// c[r, j] (+)= Σ_t A(r, t) · B(t, j) for t ascending over [0, depth),
/// where A(r, t) = a[r * a_row + t * a_step], B(t, j) = b[t * m + j]
/// and c is row-major with m columns. Strides let one microkernel read
/// a by rows (MatMul, MatMulNT) or by columns (MatMulTN).
struct Product {
  const float* a;
  int64_t a_row;
  int64_t a_step;
  const float* b;
  float* c;
  int64_t m;
  int64_t depth;
  /// kOverwrite: the sum starts at +0 and is stored, so c is never
  /// read. kAccumulate: MulAdd continues from c (MatMulTN); a summed
  /// s is added into c once (MatMulNT).
  Store store;
};

/// Accumulates the R × W tile of c at (r0, j0) in registers while t
/// walks forward, then writes it back once. W == 0 is the runtime width
/// w < kTileCols of the last column block.
template <Rounding kRounding, int64_t R, int64_t W>
void Tile(const Product& p, int64_t r0, int64_t j0, int64_t w) {
  constexpr int64_t kCap = W > 0 ? W : kTileCols;
  const int64_t width = W > 0 ? W : w;
  const int64_t m = p.m;
  float* c = p.c + r0 * m + j0;
  const bool accumulate = p.store == Store::kAccumulate;
  float acc[R][kCap];
  if (kRounding == Rounding::kMulAdd && accumulate) {
    for (int64_t r = 0; r < R; ++r) {
      for (int64_t j = 0; j < width; ++j) acc[r][j] = c[r * m + j];
    }
  } else {
    for (int64_t r = 0; r < R; ++r) {
      for (int64_t j = 0; j < width; ++j) acc[r][j] = 0.0f;
    }
  }
  const float* a = p.a + r0 * p.a_row;
  for (int64_t t = 0; t < p.depth; ++t) {
    const float* brow = p.b + t * m + j0;
    for (int64_t r = 0; r < R; ++r) {
      const float av = a[r * p.a_row + t * p.a_step];
      if constexpr (kRounding == Rounding::kSumThenAdd) {
        for (int64_t j = 0; j < width; ++j) {
          acc[r][j] = acc[r][j] + av * brow[j];
        }
      } else if constexpr (W == 1) {
        acc[r][0] = MulAddUnlessZero(av, brow[0], acc[r][0]);
      } else {
        if (av == 0.0f) continue;
        for (int64_t j = 0; j < width; ++j) {
          acc[r][j] = MulAdd(av, brow[j], acc[r][j]);
        }
      }
    }
  }
  if (kRounding == Rounding::kSumThenAdd && accumulate) {
    for (int64_t r = 0; r < R; ++r) {
      for (int64_t j = 0; j < width; ++j) {
        c[r * m + j] = c[r * m + j] + acc[r][j];
      }
    }
  } else {
    for (int64_t r = 0; r < R; ++r) {
      for (int64_t j = 0; j < width; ++j) c[r * m + j] = acc[r][j];
    }
  }
}

#if HYGNN_DENSE_TILE_AVX512
/// Floats per 512-bit register, and registers per row of a full tile.
constexpr int64_t kLanes = 16;
constexpr int64_t kRowVectors = kTileCols / kLanes;

/// Tile<kRounding, R, kTileCols> in explicit 16-lane registers: R × 4
/// accumulators, and b's row loaded once per t for all R rows. Each
/// lane takes its element's float operations in the portable tile's
/// order. MulAdd is one fused rounding under a mask of a != 0, which
/// skips ±0 without a branch and keeps a NaN a (the compare is
/// unordered); MatMulNT's step is a rounded product, then a rounded sum.
template <Rounding kRounding, int64_t R>
void VectorTile(const Product& p, int64_t r0, int64_t j0) {
  const int64_t m = p.m;
  float* c = p.c + r0 * m + j0;
  const bool accumulate = p.store == Store::kAccumulate;
  __m512 acc[R][kRowVectors];
  for (int64_t r = 0; r < R; ++r) {
    for (int64_t v = 0; v < kRowVectors; ++v) {
      acc[r][v] = (kRounding == Rounding::kMulAdd && accumulate)
                      ? _mm512_loadu_ps(c + r * m + v * kLanes)
                      : _mm512_setzero_ps();
    }
  }
  const float* a = p.a + r0 * p.a_row;
  for (int64_t t = 0; t < p.depth; ++t) {
    const float* brow = p.b + t * m + j0;
    __m512 b[kRowVectors];
    for (int64_t v = 0; v < kRowVectors; ++v) {
      b[v] = _mm512_loadu_ps(brow + v * kLanes);
    }
    for (int64_t r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * p.a_row + t * p.a_step]);
      if constexpr (kRounding == Rounding::kSumThenAdd) {
        for (int64_t v = 0; v < kRowVectors; ++v) {
          acc[r][v] = _mm512_add_ps(acc[r][v], _mm512_mul_ps(av, b[v]));
        }
      } else {
        const __mmask16 nonzero =
            _mm512_cmp_ps_mask(av, _mm512_setzero_ps(), _CMP_NEQ_UQ);
        for (int64_t v = 0; v < kRowVectors; ++v) {
          acc[r][v] = _mm512_mask3_fmadd_ps(av, b[v], acc[r][v], nonzero);
        }
      }
    }
  }
  for (int64_t r = 0; r < R; ++r) {
    for (int64_t v = 0; v < kRowVectors; ++v) {
      float* out = c + r * m + v * kLanes;
      if (kRounding == Rounding::kSumThenAdd && accumulate) {
        _mm512_storeu_ps(out, _mm512_add_ps(_mm512_loadu_ps(out), acc[r][v]));
      } else {
        _mm512_storeu_ps(out, acc[r][v]);
      }
    }
  }
}
#endif

/// Every column block of rows [r0, r0 + R). A single-column c is a
/// matrix-vector product: its tile holds one accumulator per row.
template <Rounding kRounding, int64_t R>
void RowTile(const Product& p, int64_t r0) {
  if (p.m == 1) {
    Tile<kRounding, R, 1>(p, r0, 0, 1);
    return;
  }
  int64_t j0 = 0;
  for (; j0 + kTileCols <= p.m; j0 += kTileCols) {
#if HYGNN_DENSE_TILE_AVX512
    VectorTile<kRounding, R>(p, r0, j0);
#else
    Tile<kRounding, R, kTileCols>(p, r0, j0, kTileCols);
#endif
  }
  if (j0 < p.m) Tile<kRounding, R, 0>(p, r0, j0, p.m - j0);
}

/// Rows [lo, hi) of c in tiles of kTileRows (kVectorTileRows first
/// when c has one column), then one shorter tile.
template <Rounding kRounding>
void Rows(const Product& p, int64_t lo, int64_t hi) {
  int64_t r0 = lo;
  if (p.m == 1) {
    for (; r0 + kVectorTileRows <= hi; r0 += kVectorTileRows) {
      Tile<kRounding, kVectorTileRows, 1>(p, r0, 0, 1);
    }
  }
  for (; r0 + kTileRows <= hi; r0 += kTileRows) {
    RowTile<kRounding, kTileRows>(p, r0);
  }
  switch (hi - r0) {
    case 3:
      RowTile<kRounding, 3>(p, r0);
      break;
    case 2:
      RowTile<kRounding, 2>(p, r0);
      break;
    case 1:
      RowTile<kRounding, 1>(p, r0);
      break;
    default:
      break;
  }
}

/// All rows of c, in chunks of the fewest whole tiles that hold
/// kChunkMulAdds: a function of the shape, never of the thread count.
template <Rounding kRounding>
void ParallelRows(const Product& p, int64_t rows) {
  const int64_t tile_mul_adds =
      std::max<int64_t>(1, kTileRows * p.depth * p.m);
  const int64_t grain =
      kTileRows * ((kChunkMulAdds + tile_mul_adds - 1) / tile_mul_adds);
  core::ParallelFor(0, rows, grain, [&](int64_t lo, int64_t hi) {
    Rows<kRounding>(p, lo, hi);
  });
}

}  // namespace

void MatMul(const float* a, const float* b, float* c, int64_t n, int64_t k,
            int64_t m) {
  ParallelRows<Rounding::kMulAdd>(
      {a, k, 1, b, c, m, k, Store::kOverwrite}, n);
}

void MatMulNT(const float* a, const float* b, float* c, int64_t n, int64_t k,
              int64_t m, Store store) {
  // Packing bᵀ once lets the tile read B(t, ·) as a contiguous row. The
  // buffer outlives the call, so a training step's products allocate
  // nothing once it has grown to the largest b.
  thread_local std::vector<float> t_packed;
  t_packed.resize(static_cast<size_t>(k * m));
  Transpose(b, m, k, t_packed.data());
  ParallelRows<Rounding::kSumThenAdd>(
      {a, k, 1, t_packed.data(), c, m, k, store}, n);
}

void MatMulTN(const float* a, const float* b, float* c, int64_t n, int64_t k,
              int64_t m) {
  // Row r of c is column r of a; t walks the n shared rows of a and b,
  // one block at a time. Each tile reloads its accumulators from c at
  // the start of a block and stores them at the end; they are floats,
  // so the spill rounds nothing and every element still takes MulAdd
  // for t ascending. MatMulNT cannot block this way: its sum starts at
  // +0 and is added into c once.
  core::ParallelFor(0, k, kReductionChunkRows, [&](int64_t lo, int64_t hi) {
    for (int64_t t0 = 0; t0 < n; t0 += kReductionBlockRows) {
      const Product block{a + t0 * k, 1, k, b + t0 * m, c, m,
                          std::min(kReductionBlockRows, n - t0),
                          Store::kAccumulate};
      Rows<Rounding::kMulAdd>(block, lo, hi);
    }
  });
}

void Transpose(const float* x, int64_t n, int64_t d, float* out) {
  core::ParallelFor(0, d, kRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t j = lo; j < hi; ++j) {
      float* orow = out + j * n;
      for (int64_t i = 0; i < n; ++i) orow[i] = x[i * d + j];
    }
  });
}

}  // namespace hygnn::tensor::kernels
