// Dense products. This file alone is compiled with -ffp-contract=off
// (see CMakeLists.txt), so the source below, not the optimizer, decides
// every rounding: a multiply and an add fuse only where MulAdd says so.

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/kernels/kernels.h"

namespace hygnn::tensor::kernels {
namespace {

/// Rows of c one microkernel call accumulates. Equal to kRowGrain, so
/// every pool chunk is whole tiles; only the last rows of a range (or
/// of a threads = 1 call) take a shorter tile.
constexpr int64_t kTileRows = 4;
static_assert(kRowGrain % kTileRows == 0);

/// Columns of c per tile: a 4 × 64 tile is sixteen 512-bit registers.
constexpr int64_t kTileCols = 64;

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
  /// c = MulAdd(a, b, c) per t, skipping a == 0 (MatMul, MatMulTN).
  kMulAdd,
  /// s = +0; s = s + round(a·b) per t; then c = c + s (MatMulNT).
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
  float acc[R][kCap];
  for (int64_t r = 0; r < R; ++r) {
    for (int64_t j = 0; j < width; ++j) {
      acc[r][j] = kRounding == Rounding::kMulAdd ? c[r * m + j] : 0.0f;
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
  for (int64_t r = 0; r < R; ++r) {
    for (int64_t j = 0; j < width; ++j) {
      c[r * m + j] = kRounding == Rounding::kMulAdd ? acc[r][j]
                                                    : c[r * m + j] + acc[r][j];
    }
  }
}

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
    Tile<kRounding, R, kTileCols>(p, r0, j0, kTileCols);
  }
  if (j0 < p.m) Tile<kRounding, R, 0>(p, r0, j0, p.m - j0);
}

/// Rows [lo, hi) of c in tiles of kTileRows, then one shorter tile.
template <Rounding kRounding>
void Rows(const Product& p, int64_t lo, int64_t hi) {
  int64_t r0 = lo;
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

template <Rounding kRounding>
void ParallelRows(const Product& p, int64_t rows) {
  core::ParallelFor(0, rows, kRowGrain, [&](int64_t lo, int64_t hi) {
    Rows<kRounding>(p, lo, hi);
  });
}

}  // namespace

void MatMul(const float* a, const float* b, float* c, int64_t n, int64_t k,
            int64_t m) {
  ParallelRows<Rounding::kMulAdd>({a, k, 1, b, c, m, k}, n);
}

void MatMulNT(const float* a, const float* b, float* c, int64_t n, int64_t k,
              int64_t m) {
  // Packing bᵀ once lets the tile read B(t, ·) as a contiguous row. The
  // buffer outlives the call, so a training step's products allocate
  // nothing once it has grown to the largest b.
  thread_local std::vector<float> t_packed;
  t_packed.resize(static_cast<size_t>(k * m));
  Transpose(b, m, k, t_packed.data());
  ParallelRows<Rounding::kSumThenAdd>({a, k, 1, t_packed.data(), c, m, k}, n);
}

void MatMulTN(const float* a, const float* b, float* c, int64_t n, int64_t k,
              int64_t m) {
  // Row r of c is column r of a; t walks the n shared rows of a and b.
  ParallelRows<Rounding::kMulAdd>({a, 1, k, b, c, m, n}, k);
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
