#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/random.h"

namespace dtrec {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    DTREC_CHECK_EQ(r.size(), cols_) << "ragged initializer list";
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::RandomNormal(size_t rows, size_t cols, double stddev,
                            Rng* rng) {
  DTREC_CHECK(rng != nullptr);
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = rng->Normal(0.0, stddev);
  return m;
}

Matrix Matrix::RandomUniform(size_t rows, size_t cols, double lo, double hi,
                             Rng* rng) {
  DTREC_CHECK(rng != nullptr);
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = rng->Uniform(lo, hi);
  return m;
}

void Matrix::Fill(double v) { std::fill(data_.begin(), data_.end(), v); }

Matrix Matrix::Transposed() const {
  Matrix t;
  TransposeInto(&t);
  return t;
}

void Matrix::TransposeInto(Matrix* out) const {
  DTREC_CHECK(out != nullptr && out != this);
  out->Resize(cols_, rows_);
  const double* src = data_.data();
  double* dst = out->data();
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) dst[c * rows_ + r] = src[r * cols_ + c];
  }
}

Matrix Matrix::RowCopy(size_t r) const {
  DTREC_CHECK_LT(r, rows_);
  Matrix out(1, cols_);
  std::copy(row(r), row(r) + cols_, out.data());
  return out;
}

Matrix Matrix::ColBlock(size_t col_begin, size_t col_end) const {
  DTREC_CHECK_LE(col_begin, col_end);
  DTREC_CHECK_LE(col_end, cols_);
  Matrix out(rows_, col_end - col_begin);
  for (size_t r = 0; r < rows_; ++r) {
    std::copy(row(r) + col_begin, row(r) + col_end, out.row(r));
  }
  return out;
}

void Matrix::SetColBlock(size_t col_begin, const Matrix& block) {
  DTREC_CHECK_EQ(block.rows(), rows_);
  DTREC_CHECK_LE(col_begin + block.cols(), cols_);
  for (size_t r = 0; r < rows_; ++r) {
    std::copy(block.row(r), block.row(r) + block.cols(), row(r) + col_begin);
  }
}

bool Matrix::AllClose(const Matrix& other, double atol, double rtol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    const double diff = std::fabs(data_[i] - other.data_[i]);
    if (diff > atol + rtol * std::fabs(other.data_[i])) return false;
  }
  return true;
}

bool Matrix::HasNonFinite() const {
  for (double v : data_) {
    if (!std::isfinite(v)) return true;
  }
  return false;
}

double Matrix::Sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Matrix::Mean() const {
  DTREC_CHECK(!empty());
  return Sum() / static_cast<double>(data_.size());
}

double Matrix::Min() const {
  DTREC_CHECK(!empty());
  return *std::min_element(data_.begin(), data_.end());
}

double Matrix::Max() const {
  DTREC_CHECK(!empty());
  return *std::max_element(data_.begin(), data_.end());
}

double Matrix::FrobeniusNormSquared() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

std::string Matrix::DebugString(size_t max_rows, size_t max_cols) const {
  std::ostringstream os;
  os << rows_ << "x" << cols_ << " [";
  const size_t show_rows = std::min(rows_, max_rows);
  for (size_t r = 0; r < show_rows; ++r) {
    os << (r == 0 ? "[" : ", [");
    const size_t show_cols = std::min(cols_, max_cols);
    for (size_t c = 0; c < show_cols; ++c) {
      if (c > 0) os << ", ";
      os << (*this)(r, c);
    }
    if (show_cols < cols_) os << ", ...";
    os << "]";
  }
  if (show_rows < rows_) os << ", ...";
  os << "]";
  return os.str();
}

bool operator==(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::equal(a.data(), a.data() + a.size(), b.data());
}

}  // namespace dtrec
