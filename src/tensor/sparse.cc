#include "tensor/sparse.h"

#include <algorithm>
#include <utility>

#include "core/logging.h"
#include "tensor/tape.h"

namespace hygnn::tensor {

namespace {

/// Reorders `order` (positions into `keys`) by keys[order[i]], each in
/// [0, range), keeping equal keys in their current order: one stable
/// counting sort.
void StableSortByKey(const std::vector<int32_t>& keys, int64_t range,
                     std::vector<size_t>* order) {
  std::vector<size_t> next(static_cast<size_t>(range) + 1, 0);
  for (const size_t i : *order) ++next[static_cast<size_t>(keys[i]) + 1];
  for (size_t k = 1; k < next.size(); ++k) next[k] += next[k - 1];
  std::vector<size_t> sorted(order->size());
  for (const size_t i : *order) sorted[next[keys[i]]++] = i;
  order->swap(sorted);
}

}  // namespace

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
  // Sorted by column, then stably by row: (row, column) order, with the
  // entries of one cell in input order.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  StableSortByKey(col_indices, cols, &order);
  StableSortByKey(row_indices, rows, &order);
  auto m = std::make_shared<CsrMatrix>();
  m->rows_ = rows;
  m->cols_ = cols;
  m->row_ptr_.assign(static_cast<size_t>(rows) + 1, 0);
  for (size_t k = 0; k < n;) {
    const int32_t row = row_indices[order[k]];
    const int32_t col = col_indices[order[k]];
    // Duplicates are summed from +0 in input order, so a lone -0 is
    // stored as +0.
    float sum = 0.0f;
    for (; k < n && row_indices[order[k]] == row &&
           col_indices[order[k]] == col;
         ++k) {
      sum += values[order[k]];
    }
    ++m->row_ptr_[static_cast<size_t>(row) + 1];
    m->col_idx_.push_back(col);
    m->values_.push_back(sum);
  }
  for (size_t r = 1; r < m->row_ptr_.size(); ++r) {
    m->row_ptr_[r] += m->row_ptr_[r - 1];
  }
  return m;
}

std::shared_ptr<const CsrMatrix> CsrMatrix::Transpose() const {
  if (transpose_cache_) return transpose_cache_;
  // The entries, walked row by row, are unique and in (row, column)
  // order, so one stable counting sort by column puts them in the
  // transpose's order. Each value is a sum from +0 already, which FromCoo
  // on the transposed triplets would leave as it is, so it is copied.
  auto t = std::make_shared<CsrMatrix>();
  t->rows_ = cols_;
  t->cols_ = rows_;
  t->row_ptr_.assign(static_cast<size_t>(cols_) + 1, 0);
  for (const int32_t col : col_idx_) {
    ++t->row_ptr_[static_cast<size_t>(col) + 1];
  }
  for (size_t c = 1; c < t->row_ptr_.size(); ++c) {
    t->row_ptr_[c] += t->row_ptr_[c - 1];
  }
  std::vector<int64_t> next(t->row_ptr_.begin(), t->row_ptr_.end() - 1);
  t->col_idx_.resize(col_idx_.size());
  t->values_.resize(values_.size());
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const int64_t slot = next[col_idx_[k]]++;
      t->col_idx_[slot] = static_cast<int32_t>(r);
      t->values_[slot] = values_[k];
    }
  }
  transpose_cache_ = std::move(t);
  return transpose_cache_;
}

void CsrMatrix::MultiplyInto(const float* x, int64_t d, float* y) const {
  for (int64_t r = 0; r < rows_; ++r) {
    float* yrow = y + r * d;
    std::fill(yrow, yrow + d, 0.0f);
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const float v = values_[k];
      const float* xrow = x + static_cast<int64_t>(col_idx_[k]) * d;
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
