#ifndef DTREC_TENSOR_MATRIX_H_
#define DTREC_TENSOR_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/logging.h"

namespace dtrec {

class Rng;

/// Dense row-major matrix of doubles.
///
/// This is the single numeric container used across dtrec: embedding
/// tables, mini-batch activations, gradients, and the full user-item rating
/// matrices of the synthetic datasets. Double precision is deliberate — it
/// makes the finite-difference gradient checks in autograd/ meaningful.
///
/// A 1×N or N×1 Matrix doubles as a vector; helpers that need vectors take
/// Matrix and assert the shape.
class Matrix {
 public:
  /// Empty 0×0 matrix.
  Matrix() = default;

  /// rows×cols matrix initialized to `fill`.
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// From nested initializer list; all rows must have equal arity.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// All-zeros / all-ones / constant factories.
  static Matrix Zeros(size_t rows, size_t cols) { return Matrix(rows, cols); }
  static Matrix Ones(size_t rows, size_t cols) {
    return Matrix(rows, cols, 1.0);
  }
  static Matrix Constant(size_t rows, size_t cols, double v) {
    return Matrix(rows, cols, v);
  }

  /// Identity matrix of size n.
  static Matrix Identity(size_t n);

  /// Entries iid Normal(0, stddev).
  static Matrix RandomNormal(size_t rows, size_t cols, double stddev,
                             Rng* rng);

  /// Entries iid Uniform[lo, hi).
  static Matrix RandomUniform(size_t rows, size_t cols, double lo, double hi,
                              Rng* rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) {
    DTREC_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    DTREC_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Flat element access (row-major order); used by optimizers that treat
  /// parameters as one contiguous vector.
  double& at_flat(size_t i) {
    DTREC_DCHECK(i < data_.size());
    return data_[i];
  }
  double at_flat(size_t i) const {
    DTREC_DCHECK(i < data_.size());
    return data_[i];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Pointer to the start of row r.
  double* row(size_t r) {
    DTREC_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }
  const double* row(size_t r) const {
    DTREC_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }

  /// Sets every entry to v.
  void Fill(double v);

  /// Sets every entry to 0.
  void SetZero() { Fill(0.0); }

  /// Changes the shape to rows×cols in place. The allocation is kept
  /// whenever it is already large enough, which is how the autograd
  /// workspace and the out-parameter kernels in tensor/ops.h reuse buffers
  /// across steps. Entry values are unspecified afterwards.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Returns a new matrix that is the transpose of this one.
  Matrix Transposed() const;

  /// Writes the transpose into `out` (resized in place; must not alias).
  void TransposeInto(Matrix* out) const;

  /// Copies row r into a 1×cols matrix.
  Matrix RowCopy(size_t r) const;

  /// Extracts the column block [col_begin, col_end) as a new matrix.
  Matrix ColBlock(size_t col_begin, size_t col_end) const;

  /// Writes `block` (rows()×(col_end-col_begin)) into columns
  /// [col_begin, col_end).
  void SetColBlock(size_t col_begin, const Matrix& block);

  /// True iff shapes match and all entries are within atol+rtol*|other|.
  bool AllClose(const Matrix& other, double atol = 1e-9,
                double rtol = 1e-7) const;

  /// True if any entry is NaN or infinite.
  bool HasNonFinite() const;

  /// Sum of all entries.
  double Sum() const;

  /// Mean of all entries. Requires non-empty.
  double Mean() const;

  /// Minimum / maximum entry. Requires non-empty.
  double Min() const;
  double Max() const;

  /// Squared Frobenius norm: sum of squared entries.
  double FrobeniusNormSquared() const;

  /// Compact debug rendering ("2x3 [[1, 2, 3], [4, 5, 6]]"), truncated for
  /// large matrices.
  std::string DebugString(size_t max_rows = 6, size_t max_cols = 8) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// Exact element-wise equality (mostly for tests).
bool operator==(const Matrix& a, const Matrix& b);

}  // namespace dtrec

#endif  // DTREC_TENSOR_MATRIX_H_
