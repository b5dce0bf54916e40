// Dense products. This file alone is compiled with -ffp-contract=off
// (see CMakeLists.txt), so the source below, not the optimizer, decides
// every rounding: a multiply and an add fuse only where MulAdd says so.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/csr.h"
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

/// a when `keep`, else b, decided by a mask instead of a branch: both
/// are computed either way, so the compiler selects per lane. Given a
/// branch, it will not compute a product that only one side uses ahead
/// of it (the product could trap), and the loop stays scalar.
inline float Select(bool keep, float a, float b) {
  const uint32_t mask = 0u - static_cast<uint32_t>(keep);
  return std::bit_cast<float>((std::bit_cast<uint32_t>(a) & mask) |
                              (std::bit_cast<uint32_t>(b) & ~mask));
}

/// MulAdd(a, b, c) when a != 0, else c: the zeros of a ReLU output are
/// not predictable.
inline float MulAddUnlessZero(float a, float b, float c) {
  return Select(a != 0.0f, MulAdd(a, b, c), c);
}

/// ScalarLeakyRelu's value, v >= 0 ? v : slope · v, as a Select.
inline float LeakyReluSelect(float v, float slope) {
  return Select(v >= 0.0f, v, slope * v);
}

/// How each output element combines its products.
enum class Rounding {
  /// acc = MulAdd(a, b, acc) per t, skipping a == 0 (MatMul, MatMulTN).
  kMulAdd,
  /// s = +0; s = s + round(a·b) per t (MatMulNT).
  kSumThenAdd,
};

/// How a tile finds the rows of its operands and the steps of A.
enum class Fetch {
  /// Row r and step t themselves (MatMul, MatMulNT, MatMulTN).
  kDirect,
  /// Rows of A, of c and of the start through Product's row indices
  /// (PairMatMul's forward and its dh).
  kRows,
  /// Steps of A through Product::a_steps (PairMatMul's dW: MatMulTN
  /// with its reduction rows fetched through the pair indices).
  kSteps,
};

/// c[r, j] (+)= Σ_t A(r, t) · B(t, j) for t ascending over [0, depth),
/// where A(r, t) = a[r * a_row + t * a_step], B(t, j) = b[t * m + j]
/// and c is row-major with m columns. Strides let one microkernel read
/// a by rows (MatMul, MatMulNT) or by columns (MatMulTN). The indices
/// below replace r or t in those offsets with the row an index names,
/// so a tile reads rows of a table where a product would need a
/// gathered copy; no element's operations change.
struct Product {
  const float* a;
  int64_t a_row;
  int64_t a_step;
  const float* b;
  float* c;
  int64_t m;
  int64_t depth;
  /// kOverwrite: the sum starts at +0 (or at the start row) and is
  /// stored, so c is never read. kAccumulate: MulAdd continues from c
  /// (MatMulTN); a summed s is added into c once (MatMulNT).
  Store store;
  /// Fetch::kRows: row r of A, of c and of `start` is row a_rows[r],
  /// c_rows[r] and start_rows[r]; a null index reads row r. A's rows
  /// are read with a_step = 1. Rows of c may repeat only under
  /// kSumThenAdd with kAccumulate, whose tile adds its rows into c one
  /// after another.
  const int32_t* a_rows = nullptr;
  const int32_t* c_rows = nullptr;
  /// Fetch::kRows, kMulAdd with kOverwrite: when set, row r's MulAdd
  /// chain continues from its start row (m columns, like c) instead of
  /// from +0.
  const float* start = nullptr;
  const int32_t* start_rows = nullptr;
  /// Fetch::kSteps: A(r, t) = a[r * a_row + a_steps[t] * a_step].
  const int32_t* a_steps = nullptr;
};

/// Row r, or the row an index names for it.
inline int64_t RowOf(const int32_t* index, int64_t r) {
  return index != nullptr ? index[r] : r;
}

/// Where the R rows of the tile at (r0, j0) of p live: A(r, t), c's
/// row r (from column j0), and where its accumulators start: c, a start
/// row, or +0. Rows read through an index keep a pointer each; a direct
/// tile keeps one base per operand and adds r times the row stride, a
/// form the one-column 16-row tile keeps in registers. The start is
/// chosen by two flags, not by testing a pointer per row: with the
/// test, GCC 12 stored the direct tile's accumulators to the stack on
/// every step of t.
template <Rounding kRounding, Fetch kFetch, int64_t R>
struct TileRows {
  TileRows(const Product& p, int64_t r0, int64_t j0)
      : a0(p.a + r0 * p.a_row), c0(p.c + r0 * p.m + j0) {
    if constexpr (kFetch == Fetch::kRows) {
      for (int64_t r = 0; r < R; ++r) {
        a[r] = p.a + RowOf(p.a_rows, r0 + r) * p.a_row;
        c[r] = p.c + RowOf(p.c_rows, r0 + r) * p.m + j0;
        start[r] = p.start != nullptr
                       ? p.start + RowOf(p.start_rows, r0 + r) * p.m + j0
                       : nullptr;
      }
    }
  }

  /// Offset of step t in every row of A: through a_steps under
  /// Fetch::kSteps.
  static int64_t Step(const Product& p, int64_t t) {
    if constexpr (kFetch == Fetch::kSteps) {
      return static_cast<int64_t>(p.a_steps[t]) * p.a_step;
    } else {
      return t * p.a_step;
    }
  }

  /// A(r, t) for the `step` of t.
  float A(const Product& p, int64_t r, int64_t step) const {
    if constexpr (kFetch == Fetch::kRows) {
      return a[r][step];
    } else {
      return a0[r * p.a_row + step];
    }
  }

  float* C(const Product& p, int64_t r) const {
    if constexpr (kFetch == Fetch::kRows) {
      return c[r];
    } else {
      return c0 + r * p.m;
    }
  }

  /// True when every row's MulAdd chain continues from its row of c.
  static bool FromC(const Product& p) {
    return kRounding == Rounding::kMulAdd && p.store == Store::kAccumulate;
  }

  /// True when every row's MulAdd chain continues from its start row
  /// (Product::start, under kRows).
  static bool FromStart(const Product& p) {
    if constexpr (kRounding == Rounding::kMulAdd && kFetch == Fetch::kRows) {
      return p.start != nullptr;
    } else {
      return false;
    }
  }

  /// Row r's start row: kRows only.
  const float* StartRow(int64_t r) const {
    if constexpr (kFetch == Fetch::kRows) {
      return start[r];
    } else {
      return nullptr;
    }
  }

  const float* a0;
  float* c0;
  // Fetch::kRows only.
  static constexpr int64_t kIndexed = kFetch == Fetch::kRows ? R : 1;
  const float* a[kIndexed];
  float* c[kIndexed];
  const float* start[kIndexed];
};

/// Accumulates the R × W tile of c at (r0, j0) in registers while t
/// walks forward, then writes it back once. W == 0 is the runtime width
/// w < kTileCols of the last column block.
template <Rounding kRounding, Fetch kFetch, int64_t R, int64_t W>
void Tile(const Product& p, int64_t r0, int64_t j0, int64_t w) {
  constexpr int64_t kCap = W > 0 ? W : kTileCols;
  const int64_t width = W > 0 ? W : w;
  const int64_t m = p.m;
  const TileRows<kRounding, kFetch, R> rows(p, r0, j0);
  const bool from_c = rows.FromC(p);
  const bool from_start = rows.FromStart(p);
  float acc[R][kCap];
  for (int64_t r = 0; r < R; ++r) {
    if (from_c || from_start) {
      const float* start = from_c ? rows.C(p, r) : rows.StartRow(r);
      for (int64_t j = 0; j < width; ++j) acc[r][j] = start[j];
    } else {
      for (int64_t j = 0; j < width; ++j) acc[r][j] = 0.0f;
    }
  }
  for (int64_t t = 0; t < p.depth; ++t) {
    const int64_t step = rows.Step(p, t);
    const float* brow = p.b + t * m + j0;
    for (int64_t r = 0; r < R; ++r) {
      const float av = rows.A(p, r, step);
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
  // Row by row: under kRows two rows may add into one row of c.
  for (int64_t r = 0; r < R; ++r) {
    float* c = rows.C(p, r);
    if (kRounding == Rounding::kSumThenAdd && p.store == Store::kAccumulate) {
      for (int64_t j = 0; j < width; ++j) c[j] = c[j] + acc[r][j];
    } else {
      for (int64_t j = 0; j < width; ++j) c[j] = acc[r][j];
    }
  }
}

#if HYGNN_DENSE_TILE_AVX512
/// Floats per 512-bit register, and registers per row of a full tile.
constexpr int64_t kLanes = 16;
constexpr int64_t kRowVectors = kTileCols / kLanes;

/// Tile<kRounding, kFetch, R, kTileCols> in explicit 16-lane registers:
/// R × 4 accumulators, and b's row loaded once per t for all R rows.
/// Each lane takes its element's float operations in the portable
/// tile's order. MulAdd is one fused rounding under a mask of a != 0,
/// which skips ±0 without a branch and keeps a NaN a (the compare is
/// unordered); MatMulNT's step is a rounded product, then a rounded sum.
template <Rounding kRounding, Fetch kFetch, int64_t R>
void VectorTile(const Product& p, int64_t r0, int64_t j0) {
  const TileRows<kRounding, kFetch, R> rows(p, r0, j0);
  const bool from_c = rows.FromC(p);
  const bool from_start = rows.FromStart(p);
  __m512 acc[R][kRowVectors];
  for (int64_t r = 0; r < R; ++r) {
    for (int64_t v = 0; v < kRowVectors; ++v) {
      acc[r][v] = from_c       ? _mm512_loadu_ps(rows.C(p, r) + v * kLanes)
                  : from_start ? _mm512_loadu_ps(rows.StartRow(r) + v * kLanes)
                               : _mm512_setzero_ps();
    }
  }
  for (int64_t t = 0; t < p.depth; ++t) {
    const int64_t step = rows.Step(p, t);
    const float* brow = p.b + t * p.m + j0;
    __m512 b[kRowVectors];
    for (int64_t v = 0; v < kRowVectors; ++v) {
      b[v] = _mm512_loadu_ps(brow + v * kLanes);
    }
    for (int64_t r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(rows.A(p, r, step));
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
      float* out = rows.C(p, r) + v * kLanes;
      if (kRounding == Rounding::kSumThenAdd &&
          p.store == Store::kAccumulate) {
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
template <Rounding kRounding, Fetch kFetch, int64_t R>
void RowTile(const Product& p, int64_t r0) {
  if (p.m == 1) {
    Tile<kRounding, kFetch, R, 1>(p, r0, 0, 1);
    return;
  }
  int64_t j0 = 0;
  for (; j0 + kTileCols <= p.m; j0 += kTileCols) {
#if HYGNN_DENSE_TILE_AVX512
    VectorTile<kRounding, kFetch, R>(p, r0, j0);
#else
    Tile<kRounding, kFetch, R, kTileCols>(p, r0, j0, kTileCols);
#endif
  }
  if (j0 < p.m) Tile<kRounding, kFetch, R, 0>(p, r0, j0, p.m - j0);
}

/// Floats per 64-byte cache line.
constexpr int64_t kLineFloats = 16;

/// Asks for A's rows [lo, hi) under Fetch::kRows ahead of their tile:
/// rows read through an index are scattered over a table that need not
/// fit in cache (PairMatMul's dh reads the incoming gradient's rows
/// grouped by drug).
void PrefetchRows(const Product& p, int64_t lo, int64_t hi) {
  for (int64_t r = lo; r < hi; ++r) {
    const float* row = p.a + RowOf(p.a_rows, r) * p.a_row;
    for (int64_t t = 0; t < p.depth; t += kLineFloats) {
      __builtin_prefetch(row + t);
    }
  }
}

/// Rows [lo, hi) of c in tiles of kTileRows (kVectorTileRows first
/// when c has one column), then one shorter tile.
template <Rounding kRounding, Fetch kFetch>
void Rows(const Product& p, int64_t lo, int64_t hi) {
  int64_t r0 = lo;
  if (p.m == 1) {
    for (; r0 + kVectorTileRows <= hi; r0 += kVectorTileRows) {
      Tile<kRounding, kFetch, kVectorTileRows, 1>(p, r0, 0, 1);
    }
  }
  for (; r0 + kTileRows <= hi; r0 += kTileRows) {
    if constexpr (kFetch == Fetch::kRows) {
      PrefetchRows(p, r0 + kTileRows, std::min(hi, r0 + 2 * kTileRows));
    }
    RowTile<kRounding, kFetch, kTileRows>(p, r0);
  }
  switch (hi - r0) {
    case 3:
      RowTile<kRounding, kFetch, 3>(p, r0);
      break;
    case 2:
      RowTile<kRounding, kFetch, 2>(p, r0);
      break;
    case 1:
      RowTile<kRounding, kFetch, 1>(p, r0);
      break;
    default:
      break;
  }
}

/// All rows of c, in chunks of the fewest whole tiles that hold
/// kChunkMulAdds: a function of the shape, never of the thread count.
template <Rounding kRounding, Fetch kFetch = Fetch::kDirect>
void ParallelRows(const Product& p, int64_t rows) {
  const int64_t tile_mul_adds =
      std::max<int64_t>(1, kTileRows * p.depth * p.m);
  const int64_t grain =
      kTileRows * ((kChunkMulAdds + tile_mul_adds - 1) / tile_mul_adds);
  core::ParallelFor(0, rows, grain, [&](int64_t lo, int64_t hi) {
    Rows<kRounding, kFetch>(p, lo, hi);
  });
}

/// out[d,n] = xᵀ for x[n,d]: the packing step of MatMulNT and of
/// PairMatMul's dh. Parallel over output rows.
void Transpose(const float* x, int64_t n, int64_t d, float* out) {
  core::ParallelFor(0, d, kRowGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t j = lo; j < hi; ++j) {
      float* orow = out + j * n;
      for (int64_t i = 0; i < n; ++i) orow[i] = x[i * d + j];
    }
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
      Rows<Rounding::kMulAdd, Fetch::kDirect>(block, lo, hi);
    }
  });
}

namespace {

/// Pairs per block of AddPairHalfGradients: a block's rows of the
/// incoming gradient (1 MiB at the decoder's 64 columns) stay in L2
/// while every chunk of drugs reads its share of them.
constexpr int64_t kPairBlockRows = 4096;

/// dh[idx[i]] += g[i] · w_halfᵀ for every pair i, for a w_half of
/// [d, m]. Each product is the value MatMulNT's overwrite mode writes
/// for row i of the pair input's gradient, and each row of dh adds its
/// pairs' products one at a time in ascending pair order: the segment
/// sum of a gather's backward. The pairs go in blocks of
/// kPairBlockRows, in order. Within a block they are grouped by the row
/// of dh they add into (core::Csr::GroupBy, a stable counting sort),
/// chunks are ranges of those rows, and a tile may span several of
/// them. Taking all pairs at once instead reads g's rows scattered over
/// the whole table: about a third slower at one thread and a sixth at
/// two.
void AddPairHalfGradients(const float* g, int64_t n, int64_t m,
                          const float* w_half, const int32_t* idx,
                          int64_t rows, int64_t d, float* dh) {
  // Per-call scratch, kept for the next call. The pool workers read it
  // through the pointers taken here: each worker has its own, empty
  // thread_local.
  thread_local core::Csr t_groups;
  thread_local std::vector<int32_t> t_targets;
  thread_local std::vector<float> t_packed;
  t_packed.resize(static_cast<size_t>(m * d));
  Transpose(w_half, d, m, t_packed.data());
  for (int64_t first = 0; first < n; first += kPairBlockRows) {
    const int64_t count = std::min(kPairBlockRows, n - first);
    const int32_t* block = idx + first;
    t_groups.GroupBy({block, static_cast<size_t>(count)}, rows);
    t_targets.resize(static_cast<size_t>(count));
    for (int64_t s = 0; s < count; ++s) {
      t_targets[s] = block[t_groups.indices[s]];
    }
    Product p{g + first * m, m, 1, t_packed.data(), dh, d, m,
              Store::kAccumulate};
    p.a_rows = t_groups.indices.data();
    p.c_rows = t_targets.data();
    const int64_t* offsets = t_groups.offsets.data();
    core::ParallelFor(0, rows, kSegmentGrain, [&](int64_t lo, int64_t hi) {
      Rows<Rounding::kSumThenAdd, Fetch::kRows>(p, offsets[lo], offsets[hi]);
    });
  }
}

}  // namespace

void PairMatMul(const float* h, int64_t rows, int64_t d, const int32_t* a,
                const int32_t* b, int64_t n, const float* w, int64_t m,
                float* z) {
  // U = h · w[:d] on the rows of h that a names, in a table indexed
  // like h, whose other rows are never written or read. Per-call
  // scratch as in AddPairHalfGradients.
  thread_local std::vector<uint8_t> t_named;
  thread_local std::vector<int32_t> t_rows;
  thread_local std::vector<float> t_u;
  t_named.assign(static_cast<size_t>(rows), 0);
  for (int64_t i = 0; i < n; ++i) t_named[a[i]] = 1;
  t_rows.clear();
  for (int64_t r = 0; r < rows; ++r) {
    if (t_named[r] != 0) t_rows.push_back(static_cast<int32_t>(r));
  }
  t_u.resize(static_cast<size_t>(rows * m));
  float* u = t_u.data();
  Product first{h, d, 1, w, u, m, d, Store::kOverwrite};
  first.a_rows = t_rows.data();
  first.c_rows = t_rows.data();
  ParallelRows<Rounding::kMulAdd, Fetch::kRows>(
      first, static_cast<int64_t>(t_rows.size()));
  // Row i of z continues U[a[i]]'s MulAdd chains over h[b[i]] · w[d:].
  Product second{h, d, 1, w + d * m, z, m, d, Store::kOverwrite};
  second.a_rows = b;
  second.start = u;
  second.start_rows = a;
  ParallelRows<Rounding::kMulAdd, Fetch::kRows>(second, n);
}

void PairMatMulBackward(const float* h, int64_t rows, int64_t d,
                        const int32_t* a, const int32_t* b, int64_t n,
                        const float* w, int64_t m, const float* g, float* dh,
                        float* dw) {
  if (dw != nullptr) {
    // MatMulTN over the pair input, its reduction rows fetched through
    // the indices: rows [0, d) of dw read h[a[t]], rows [d, 2d) h[b[t]].
    // A chunk that spans both halves runs each block over its rows of
    // the first half, then of the second.
    core::ParallelFor(0, 2 * d, kReductionChunkRows,
                      [&](int64_t lo, int64_t hi) {
      for (int64_t t0 = 0; t0 < n; t0 += kReductionBlockRows) {
        const int64_t depth = std::min(kReductionBlockRows, n - t0);
        for (int64_t half = 0; half < 2; ++half) {
          const int64_t first = half * d;
          const int64_t from = std::max(lo, first) - first;
          const int64_t to = std::min(hi, first + d) - first;
          if (from >= to) continue;
          Product block{h, 1, d, g + t0 * m, dw + first * m, m, depth,
                        Store::kAccumulate};
          block.a_steps = (half == 0 ? a : b) + t0;
          Rows<Rounding::kMulAdd, Fetch::kSteps>(block, from, to);
        }
      }
    });
  }
  if (dh != nullptr) {
    // The b half first, then the a half.
    AddPairHalfGradients(g, n, m, w + d * m, b, rows, d, dh);
    AddPairHalfGradients(g, n, m, w, a, rows, d, dh);
  }
}

namespace {

#if HYGNN_DENSE_TILE_AVX512
/// ScalarLeakyRelu in 16 lanes: v where v >= 0, else slope·v, so a NaN
/// lane (the compare is ordered) takes the product, as the scalar does.
inline __m512 LeakyRelu16(__m512 v, __m512 slope) {
  const __mmask16 keep = _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_GE_OQ);
  return _mm512_mask_blend_ps(keep, _mm512_mul_ps(slope, v), v);
}

/// MulAddUnlessZero in 16 lanes, as VectorTile's MulAdd step: one fused
/// rounding under a mask of a != 0 (unordered, so a NaN a is kept).
inline __m512 MulAddUnlessZero16(__m512 a, __m512 b, __m512 c) {
  const __mmask16 nonzero =
      _mm512_cmp_ps_mask(a, _mm512_setzero_ps(), _CMP_NEQ_UQ);
  return _mm512_mask3_fmadd_ps(a, b, c, nonzero);
}

/// The first `width` <= 16 lanes.
inline __mmask16 FirstLanes(int64_t width) {
  return static_cast<__mmask16>(width >= kLanes ? 0xffff
                                                : (1u << width) - 1u);
}

/// Lane indices for _mm512_permutex2var_ps that swap bit b of the row
/// index with bit b of the lane index between rows i and i | b (bit b
/// of i clear): kSwapIndices[s][0] gives row i, [s][1] row i | b, for
/// b = 1 << s. Lane j of row i keeps its own element where bit b of j
/// is clear and takes row i | b's lane j ^ b elsewhere; row i | b the
/// other way round. An index of 16 or more reads the second row.
struct SwapIndices {
  alignas(64) int32_t lanes[4][2][kLanes];
};

constexpr SwapIndices MakeSwapIndices() {
  SwapIndices swap{};
  for (int32_t s = 0; s < 4; ++s) {
    const int32_t b = 1 << s;
    for (int32_t j = 0; j < kLanes; ++j) {
      const bool high = (j & b) != 0;
      swap.lanes[s][0][j] = high ? kLanes + (j ^ b) : j;
      swap.lanes[s][1][j] = high ? kLanes + j : j ^ b;
    }
  }
  return swap;
}

constexpr SwapIndices kSwapIndices = MakeSwapIndices();

/// One round of TransposeColumns: swaps bit 1 << kRound of the row
/// index with the same bit of the lane index.
template <int32_t kRound>
inline void SwapIndexBit(__m512* columns) {
  constexpr int64_t kBit = int64_t{1} << kRound;
  const __m512i keep_low = _mm512_load_si512(kSwapIndices.lanes[kRound][0]);
  const __m512i keep_high = _mm512_load_si512(kSwapIndices.lanes[kRound][1]);
  for (int64_t i = 0; i < kLanes; ++i) {
    if ((i & kBit) != 0) continue;
    const __m512 low = columns[i];
    const __m512 high = columns[i | kBit];
    columns[i] = _mm512_permutex2var_ps(low, keep_low, high);
    columns[i | kBit] = _mm512_permutex2var_ps(low, keep_high, high);
  }
}

/// columns[k], lane r = rows[r][t0 + k] for the first `width` <= 16
/// columns from t0: a 16 × 16 transpose in registers, four rounds that
/// each swap one bit of the row index with the same bit of the lane
/// index. Columns past `width` are never loaded and read +0.
inline void TransposeColumns(const float* const* rows, int64_t t0,
                             int64_t width, __m512* columns) {
  const __mmask16 lanes = FirstLanes(width);
  for (int64_t i = 0; i < kLanes; ++i) {
    columns[i] = _mm512_maskz_loadu_ps(lanes, rows[i] + t0);
  }
  SwapIndexBit<0>(columns);
  SwapIndexBit<1>(columns);
  SwapIndexBit<2>(columns);
  SwapIndexBit<3>(columns);
}

/// Continues the sixteen MulAdd chains in acc's lanes over `width`
/// steps of one half of the tile's input rows, src[r][t]:
/// LeakyRelu(src[r][t]) times w[t] for t ascending, skipping zeros, as
/// MatMul's one-column tile does. Sixteen steps at a time come out of
/// one transpose.
__m512 ContinueScoreChains(const float* const* src, int64_t width,
                           const float* w, float slope, __m512 acc) {
  const __m512 slopes = _mm512_set1_ps(slope);
  int64_t t0 = 0;
  for (; t0 + kLanes <= width; t0 += kLanes) {
    __m512 columns[kLanes];
    TransposeColumns(src, t0, kLanes, columns);
    for (int64_t k = 0; k < kLanes; ++k) {
      acc = MulAddUnlessZero16(LeakyRelu16(columns[k], slopes),
                               _mm512_set1_ps(w[t0 + k]), acc);
    }
  }
  if (t0 < width) {
    // A separate array: indexed by a runtime bound, it lives in memory,
    // where the full blocks' array stays in registers.
    __m512 columns[kLanes];
    TransposeColumns(src, t0, width - t0, columns);
    for (int64_t k = 0; k < width - t0; ++k) {
      acc = MulAddUnlessZero16(LeakyRelu16(columns[k], slopes),
                               _mm512_set1_ps(w[t0 + k]), acc);
    }
  }
  return acc;
}

/// z's rows [r0, r0 + count) for count <= 16, from the tile's row
/// pointers into x and table: one chain per lane.
void ScoreTile(const float* const* x_rows, int64_t dx,
               const float* const* table_rows, int64_t dt, const float* w,
               float slope, int64_t count, float* z) {
  __m512 acc = _mm512_setzero_ps();
  acc = ContinueScoreChains(x_rows, dx, w, slope, acc);
  acc = ContinueScoreChains(table_rows, dt, w + dx, slope, acc);
  _mm512_mask_storeu_ps(z, FirstLanes(count), acc);
}

/// dw[j] for the `width` <= kReductionChunkRows columns of one half from
/// `col`: MatMulTN's m = 1 chain, from dw[j], over
/// LeakyRelu(row_i[col + j]) times g[i] for i ascending, skipping
/// zeros, in two registers of 16 columns. Row i is src's row i, or row
/// rows[i].
void ScoreWeightColumns(const float* src, int64_t d, const int32_t* rows,
                        int64_t n, int64_t col, int64_t width, float slope,
                        const float* g, float* dw) {
  static_assert(kReductionChunkRows == 2 * kLanes);
  const __m512 slopes = _mm512_set1_ps(slope);
  const __mmask16 low = FirstLanes(width);
  const __mmask16 high = FirstLanes(std::max<int64_t>(0, width - kLanes));
  __m512 acc0 = _mm512_maskz_loadu_ps(low, dw);
  __m512 acc1 = _mm512_maskz_loadu_ps(high, dw + kLanes);
  for (int64_t i = 0; i < n; ++i) {
    const float* row = src + RowOf(rows, i) * d + col;
    const __m512 gi = _mm512_set1_ps(g[i]);
    acc0 = MulAddUnlessZero16(
        LeakyRelu16(_mm512_maskz_loadu_ps(low, row), slopes), gi, acc0);
    acc1 = MulAddUnlessZero16(
        LeakyRelu16(_mm512_maskz_loadu_ps(high, row + kLanes), slopes), gi,
        acc1);
  }
  _mm512_mask_storeu_ps(dw, low, acc0);
  _mm512_mask_storeu_ps(dw + kLanes, high, acc1);
}
#else
/// Steps per block of the portable score tile: a block's LeakyRelu
/// values fill a [64][16] array on the stack (4 KiB).
constexpr int64_t kScoreBlockSteps = 64;

/// Continues the sixteen MulAdd chains acc[r] over `width` steps of
/// one half of the tile's input rows, src[r][t]: LeakyRelu(src[r][t])
/// times w[t] for t ascending, skipping zeros, as MatMul's one-column
/// tile does. Each block's values are laid out [step][row] first, so
/// one step of all sixteen chains reads one contiguous line.
void ContinueScoreChains(const float* const* src, int64_t width,
                         const float* w, float slope, float* acc) {
  alignas(64) float lr[kScoreBlockSteps][kVectorTileRows];
  for (int64_t t0 = 0; t0 < width; t0 += kScoreBlockSteps) {
    const int64_t steps = std::min(kScoreBlockSteps, width - t0);
    for (int64_t r = 0; r < kVectorTileRows; ++r) {
      const float* row = src[r] + t0;
      for (int64_t t = 0; t < steps; ++t) {
        lr[t][r] = LeakyReluSelect(row[t], slope);
      }
    }
    for (int64_t t = 0; t < steps; ++t) {
      const float wt = w[t0 + t];
      for (int64_t r = 0; r < kVectorTileRows; ++r) {
        acc[r] = MulAddUnlessZero(lr[t][r], wt, acc[r]);
      }
    }
  }
}

/// z's rows [r0, r0 + count) for count <= 16, from the tile's row
/// pointers into x and table: one chain per row.
void ScoreTile(const float* const* x_rows, int64_t dx,
               const float* const* table_rows, int64_t dt, const float* w,
               float slope, int64_t count, float* z) {
  float acc[kVectorTileRows];
  for (float& a : acc) a = 0.0f;
  ContinueScoreChains(x_rows, dx, w, slope, acc);
  ContinueScoreChains(table_rows, dt, w + dx, slope, acc);
  for (int64_t r = 0; r < count; ++r) z[r] = acc[r];
}

/// dw[j] for the `width` <= kReductionChunkRows columns of one half from
/// `col`: MatMulTN's m = 1 chain, from dw[j], over
/// LeakyRelu(row_i[col + j]) times g[i] for i ascending, skipping
/// zeros. Row i is src's row i, or row rows[i].
void ScoreWeightColumns(const float* src, int64_t d, const int32_t* rows,
                        int64_t n, int64_t col, int64_t width, float slope,
                        const float* g, float* dw) {
  float acc[kReductionChunkRows];
  for (int64_t j = 0; j < width; ++j) acc[j] = dw[j];
  for (int64_t i = 0; i < n; ++i) {
    const float* row = src + RowOf(rows, i) * d + col;
    const float gi = g[i];
    for (int64_t j = 0; j < width; ++j) {
      acc[j] = MulAddUnlessZero(LeakyReluSelect(row[j], slope), gi, acc[j]);
    }
  }
  for (int64_t j = 0; j < width; ++j) dw[j] = acc[j];
}
#endif

/// Columns [lo, hi) of one half of dw, kReductionChunkRows at a time.
void ScoreWeightHalf(const float* src, int64_t d, const int32_t* rows,
                     int64_t n, int64_t lo, int64_t hi, float slope,
                     const float* g, float* dw) {
  for (int64_t j0 = lo; j0 < hi; j0 += kReductionChunkRows) {
    ScoreWeightColumns(src, d, rows, n, j0,
                       std::min(kReductionChunkRows, hi - j0), slope, g,
                       dw + j0);
  }
}

/// What one element of the pair input's gradient adds into its source
/// before the scatter: MatMulNT's overwrite value of g·wᵀ (a rounded
/// product summed onto +0), then LeakyRelu's backward step into a
/// zero-filled gradient, also a rounded product added onto +0. That
/// step is `dx += g * dydx` in the tape's build, which GCC does not
/// fuse: it picks g or a rounded g·slope first, then adds. A fused
/// step would differ where the product rounds to -0.
inline float ScoreInputGradient(float g, float w, float v, float slope) {
  const float dv = 0.0f + g * w;
  // dv · ScalarLeakyReluGrad(v, slope), where dv · 1 is dv itself.
  return 0.0f + Select(v >= 0.0f, dv, dv * slope);
}

}  // namespace

void LeakyPairScore(const float* x, int64_t n, int64_t dx, const float* table,
                    int64_t dt, const int32_t* idx, const float* w,
                    float slope, float* z) {
  // Chunks of the fewest 16-row tiles that hold kChunkMulAdds, as
  // ParallelRows sizes MatMul's.
  const int64_t tile_mul_adds =
      std::max<int64_t>(1, kVectorTileRows * (dx + dt));
  const int64_t grain =
      kVectorTileRows * ((kChunkMulAdds + tile_mul_adds - 1) / tile_mul_adds);
  core::ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t r0 = lo; r0 < hi; r0 += kVectorTileRows) {
      const int64_t count = std::min(kVectorTileRows, hi - r0);
      const float* x_rows[kVectorTileRows];
      const float* table_rows[kVectorTileRows];
      for (int64_t r = 0; r < kVectorTileRows; ++r) {
        // A short tile repeats its last row; those sums are dropped.
        const int64_t i = r0 + std::min(r, count - 1);
        x_rows[r] = x + i * dx;
        table_rows[r] = table + static_cast<int64_t>(idx[i]) * dt;
      }
      ScoreTile(x_rows, dx, table_rows, dt, w, slope, count, z + r0);
    }
  });
}

void LeakyPairScoreBackward(const float* x, int64_t n, int64_t dx,
                            const float* table, int64_t dt,
                            const int32_t* idx, const core::Csr& table_groups,
                            const float* w, float slope, const float* g,
                            float* grad_x, float* grad_table, float* grad_w) {
  if (grad_w != nullptr) {
    // MatMulTN of the pair input with m = 1: rows [0, dx) of dw reduce
    // over x's rows, rows [dx, dx + dt) over table's rows through idx.
    core::ParallelFor(0, dx + dt, kReductionChunkRows,
                      [&](int64_t lo, int64_t hi) {
      if (lo < dx) {
        ScoreWeightHalf(x, dx, nullptr, n, lo, std::min(hi, dx), slope, g,
                        grad_w);
      }
      if (hi > dx) {
        ScoreWeightHalf(table, dt, idx, n, std::max(lo, dx) - dx, hi - dx,
                        slope, g, grad_w + dx);
      }
    });
  }
  if (grad_x != nullptr) {
    // ConcatCols's backward: one add per element into x's gradient.
    core::ParallelFor(0, n, kRowGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        const float gi = g[i];
        const float* v = x + i * dx;
        float* out = grad_x + i * dx;
        for (int64_t t = 0; t < dx; ++t) {
          out[t] = out[t] + ScoreInputGradient(gi, w[t], v[t], slope);
        }
      }
    });
  }
  if (grad_table != nullptr) {
    // The gather's backward: each table row adds its pairs' halves,
    // each summed onto +0 first, one pair at a time in ascending pair
    // order, as table_groups lists them. Chunks are ranges of rows.
    const int64_t* offsets = table_groups.offsets.data();
    const int32_t* pairs = table_groups.indices.data();
    const float* w_table = w + dx;
    core::ParallelFor(0, table_groups.num_keys(), kSegmentGrain,
                      [&](int64_t lo, int64_t hi) {
      for (int64_t r = lo; r < hi; ++r) {
        const float* v = table + r * dt;
        float* out = grad_table + r * dt;
        for (int64_t p = offsets[r]; p < offsets[r + 1]; ++p) {
          const float gi = g[pairs[p]];
          for (int64_t t = 0; t < dt; ++t) {
            out[t] = out[t] +
                     (0.0f + ScoreInputGradient(gi, w_table[t], v[t], slope));
          }
        }
      }
    });
  }
}

}  // namespace hygnn::tensor::kernels
