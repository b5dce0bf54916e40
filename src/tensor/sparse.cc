#include "tensor/sparse.h"

#include <algorithm>
#include <span>
#include <utility>

#include "core/logging.h"
#include "tensor/tape.h"

namespace hygnn::tensor {

std::shared_ptr<CsrMatrix> CsrMatrix::FromCoo(
    int64_t rows, int64_t cols, const std::vector<int32_t>& row_indices,
    const std::vector<int32_t>& col_indices,
    const std::vector<float>& values) {
  HYGNN_CHECK_EQ(row_indices.size(), col_indices.size());
  HYGNN_CHECK_EQ(row_indices.size(), values.size());
  const size_t n = row_indices.size();
  for (size_t i = 0; i < n; ++i) {
    HYGNN_CHECK(row_indices[i] >= 0 && row_indices[i] < rows);
    HYGNN_CHECK(col_indices[i] >= 0 && col_indices[i] < cols);
  }
  // Grouped by column, then stably by row: each row's entries by
  // column, the entries of one cell in input order.
  core::Csr by_col, entries;
  by_col.GroupBy(col_indices, cols);
  std::vector<int32_t> row_keys(n);
  for (size_t k = 0; k < n; ++k) row_keys[k] = row_indices[by_col.indices[k]];
  entries.GroupBy(row_keys, rows);
  for (int32_t& k : entries.indices) k = by_col.indices[k];
  auto m = std::make_shared<CsrMatrix>();
  m->rows_ = rows;
  m->cols_ = cols;
  for (int64_t r = 0; r < rows; ++r) {
    const std::span<const int32_t> row = entries.Range(r);
    for (size_t k = 0; k < row.size();) {
      const int32_t col = col_indices[row[k]];
      // Duplicates are summed from +0 in input order, so a lone -0 is
      // stored as +0.
      float sum = 0.0f;
      for (; k < row.size() && col_indices[row[k]] == col; ++k) {
        sum += values[row[k]];
      }
      m->pattern_.indices.push_back(col);
      m->values_.push_back(sum);
    }
    m->pattern_.offsets.push_back(m->nnz());
  }
  return m;
}

std::shared_ptr<const CsrMatrix> CsrMatrix::Transpose() const {
  if (transpose_cache_) return transpose_cache_;
  // The entries are unique and in (row, column) order, so grouping them
  // by column puts them in the transpose's order. Each value is a sum
  // from +0 already, which FromCoo on the transposed triplets would
  // leave as it is, so it is copied.
  std::vector<int32_t> row_of(pattern_.indices.size());
  for (int64_t r = 0; r < rows_; ++r) {
    std::fill(row_of.begin() + pattern_.offsets[r],
              row_of.begin() + pattern_.offsets[r + 1],
              static_cast<int32_t>(r));
  }
  auto t = std::make_shared<CsrMatrix>();
  t->rows_ = cols_;
  t->cols_ = rows_;
  t->pattern_.GroupBy(pattern_.indices, cols_);
  t->values_.reserve(values_.size());
  for (int32_t& k : t->pattern_.indices) {
    t->values_.push_back(values_[k]);
    k = row_of[k];
  }
  transpose_cache_ = std::move(t);
  return transpose_cache_;
}

void CsrMatrix::MultiplyInto(const float* x, int64_t d, float* y) const {
  for (int64_t r = 0; r < rows_; ++r) {
    float* yrow = y + r * d;
    std::fill(yrow, yrow + d, 0.0f);
    for (int64_t k = pattern_.offsets[r]; k < pattern_.offsets[r + 1]; ++k) {
      const float v = values_[k];
      const float* xrow = x + static_cast<int64_t>(pattern_.indices[k]) * d;
      for (int64_t j = 0; j < d; ++j) yrow[j] += v * xrow[j];
    }
  }
}

Tensor SpMM(const std::shared_ptr<const CsrMatrix>& a, const Tensor& x) {
  HYGNN_CHECK(a != nullptr);
  HYGNN_CHECK(x.defined());
  HYGNN_CHECK_EQ(a->cols(), x.rows());
  auto out = RecordOp("SpMM", OpKind::kSpMM, a->rows(), x.cols(), {x.impl()});
  out->rec->csr = a;
  return FinishRecord(std::move(out));
}

}  // namespace hygnn::tensor
