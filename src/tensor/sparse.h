#ifndef HYGNN_TENSOR_SPARSE_H_
#define HYGNN_TENSOR_SPARSE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/csr.h"
#include "tensor/kernels/kernels.h"
#include "tensor/tensor.h"

namespace hygnn::tensor {

/// Compressed-sparse-row matrix with float values: a core::Csr pattern
/// (each row's columns) and one value per entry. Used for graph
/// adjacency/propagation matrices (e.g. the symmetric-normalized
/// adjacency of GCN). Immutable after construction.
class CsrMatrix {
 public:
  /// Builds from COO triplets: each row's entries by ascending column,
  /// duplicate (row, col) entries summed from +0 in input order.
  static std::shared_ptr<CsrMatrix> FromCoo(
      int64_t rows, int64_t cols, const std::vector<int32_t>& row_indices,
      const std::vector<int32_t>& col_indices,
      const std::vector<float>& values);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(pattern_.indices.size()); }

  /// Row r's columns, ascending, are pattern().Range(r); their values
  /// sit at the same positions of values().
  const core::Csr& pattern() const { return pattern_; }
  const std::vector<float>& values() const { return values_; }

  /// The transpose, built by the first call and cached. The first call
  /// builds it on the calling thread, unsynchronized, so it must not
  /// race another first call; SpMM's backward makes it on the tape
  /// executor's thread before any chunk of its product runs.
  std::shared_ptr<const CsrMatrix> Transpose() const;

  /// Dense product A · x without autograd, x is [cols, d], into y
  /// [rows, d]. Row r of A·x is summed from +0 over the row's entries in
  /// order, acc = MulAdd(value, x[col], acc); then y's row is set to it
  /// (kOverwrite, y never read) or y = y + acc (kAccumulate, every
  /// element, rows with no entries included). Parallel over chunks of
  /// rows sized from nnz · d and rows, never from the thread count, so
  /// the bits are the same at any thread count; a one-row product runs
  /// inline on the caller.
  void MultiplyInto(const float* x, int64_t d, float* y,
                    kernels::Store store = kernels::Store::kOverwrite) const;

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  core::Csr pattern_;
  std::vector<float> values_;
  mutable std::shared_ptr<const CsrMatrix> transpose_cache_;
};

/// Autograd-aware sparse-dense product: out = A * x, where A is
/// [n, m] CSR and x is [m, d]. Records a tape node (tensor/tape.h) that
/// the executor runs through MultiplyInto. Gradient flows to x only (A
/// is constant): dx = A^T * dout.
Tensor SpMM(const std::shared_ptr<const CsrMatrix>& a, const Tensor& x);

}  // namespace hygnn::tensor

#endif  // HYGNN_TENSOR_SPARSE_H_
