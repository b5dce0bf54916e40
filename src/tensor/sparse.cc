#include "tensor/sparse.h"

#include <algorithm>
#include <map>

#include "core/logging.h"

namespace hygnn::tensor {

std::shared_ptr<CsrMatrix> CsrMatrix::FromCoo(
    int64_t rows, int64_t cols, const std::vector<int32_t>& row_indices,
    const std::vector<int32_t>& col_indices,
    const std::vector<float>& values) {
  HYGNN_CHECK_EQ(row_indices.size(), col_indices.size());
  HYGNN_CHECK_EQ(row_indices.size(), values.size());
  auto m = std::make_shared<CsrMatrix>();
  m->rows_ = rows;
  m->cols_ = cols;
  // Deduplicate by (row, col), summing values.
  std::map<std::pair<int32_t, int32_t>, float> cells;
  for (size_t i = 0; i < row_indices.size(); ++i) {
    HYGNN_CHECK(row_indices[i] >= 0 && row_indices[i] < rows);
    HYGNN_CHECK(col_indices[i] >= 0 && col_indices[i] < cols);
    cells[{row_indices[i], col_indices[i]}] += values[i];
  }
  m->row_ptr_.assign(static_cast<size_t>(rows) + 1, 0);
  m->col_idx_.reserve(cells.size());
  m->values_.reserve(cells.size());
  for (const auto& [key, value] : cells) {
    m->row_ptr_[static_cast<size_t>(key.first) + 1]++;
    m->col_idx_.push_back(key.second);
    m->values_.push_back(value);
  }
  for (size_t r = 1; r < m->row_ptr_.size(); ++r) {
    m->row_ptr_[r] += m->row_ptr_[r - 1];
  }
  return m;
}

std::shared_ptr<const CsrMatrix> CsrMatrix::Transpose() const {
  if (transpose_cache_) return transpose_cache_;
  std::vector<int32_t> t_rows, t_cols;
  std::vector<float> t_vals;
  t_rows.reserve(col_idx_.size());
  t_cols.reserve(col_idx_.size());
  t_vals.reserve(col_idx_.size());
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      t_rows.push_back(col_idx_[k]);
      t_cols.push_back(static_cast<int32_t>(r));
      t_vals.push_back(values_[k]);
    }
  }
  transpose_cache_ = FromCoo(cols_, rows_, t_rows, t_cols, t_vals);
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
  const int64_t n = a->rows(), d = x.cols();
  auto xi = x.impl();
  // SpMM is an opaque eager op reading xi->data inline; run any
  // pending recorded graph below it first.
  MaterializeTensor(xi);
  auto out = std::make_shared<TensorImpl>();
  out->rows = n;
  out->cols = d;
  AssignZeros(out.get());
  out->requires_grad = xi->requires_grad && !InferenceModeEnabled();
  a->MultiplyInto(xi->data.data(), d, out->data.data());
  if (out->requires_grad) {
    out->parents = {xi};
    TensorImpl* oi = out.get();
    out->backward_fn = [a, xi, oi, d]() {
      if (oi->grad.empty()) return;
      xi->EnsureGrad();
      auto at = a->Transpose();
      // dx += A^T * dout
      std::vector<float> tmp(xi->data.size(), 0.0f);
      at->MultiplyInto(oi->grad.data(), d, tmp.data());
      for (size_t i = 0; i < tmp.size(); ++i) xi->grad[i] += tmp[i];
    };
  }
  return Tensor(out);
}

}  // namespace hygnn::tensor
