#include "tensor/ops.h"

#include <algorithm>

#include "tensor/kernels.h"
#include "util/math_util.h"
#include "util/numeric_guard.h"

namespace dtrec {

// The three matmuls route through the blocked kernel layer
// (tensor/kernels.h), which overwrites the resized output, so nothing
// zero-fills it first. No data-dependent skips here: the seed's
// `aik == 0.0` shortcut changed IEEE semantics (0·NaN became 0, hiding a
// NaN/Inf in the other operand from the post-hoc finiteness check) and
// put an unpredictable branch in the dense hot loop.

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMul(a, b, &c);
  return c;
}

void MatMul(const Matrix& a, const Matrix& b, Matrix* out) {
  DTREC_CHECK_EQ(a.cols(), b.rows());
  out->Resize(a.rows(), b.cols());
  kernels::Gemm(a.rows(), b.cols(), a.cols(), a.data(), a.cols(), b.data(),
                b.cols(), out->data(), out->cols());
  DTREC_ASSERT_FINITE(*out, "MatMul");
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulTransA(a, b, &c);
  return c;
}

void MatMulTransA(const Matrix& a, const Matrix& b, Matrix* out) {
  DTREC_CHECK_EQ(a.rows(), b.rows());
  out->Resize(a.cols(), b.cols());
  kernels::GemmTransA(a.cols(), b.cols(), a.rows(), a.data(), a.cols(),
                      b.data(), b.cols(), out->data(), out->cols());
  DTREC_ASSERT_FINITE(*out, "MatMulTransA");
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulTransB(a, b, &c);
  return c;
}

void MatMulTransB(const Matrix& a, const Matrix& b, Matrix* out) {
  DTREC_CHECK_EQ(a.cols(), b.cols());
  out->Resize(a.rows(), b.rows());
  kernels::GemmTransB(a.rows(), b.rows(), a.cols(), a.data(), a.cols(),
                      b.data(), b.cols(), out->data(), out->cols());
  DTREC_ASSERT_FINITE(*out, "MatMulTransB");
}

void RowwiseDot(const Matrix& a, const Matrix& b, Matrix* out) {
  DTREC_CHECK_EQ(a.rows(), b.rows());
  DTREC_CHECK_EQ(a.cols(), b.cols());
  out->Resize(a.rows(), 1);
  kernels::BatchedRowDot(a.rows(), a.cols(), a.data(), a.cols(), b.data(),
                         b.cols(), out->data());
  DTREC_ASSERT_FINITE(*out, "RowwiseDot");
}

namespace {

/// out = f(a, b) element-wise over equal shapes.
template <typename F>
void Zip(const Matrix& a, const Matrix& b, Matrix* out, F f, const char* op) {
  DTREC_CHECK_EQ(a.rows(), b.rows());
  DTREC_CHECK_EQ(a.cols(), b.cols());
  out->Resize(a.rows(), a.cols());
  const double* x = a.data();
  const double* y = b.data();
  double* z = out->data();
  const size_t n = a.size();
  for (size_t i = 0; i < n; ++i) z[i] = f(x[i], y[i]);
  DTREC_ASSERT_FINITE(*out, op);
}

constexpr auto kPlus = [](double x, double y) { return x + y; };
constexpr auto kMinus = [](double x, double y) { return x - y; };
constexpr auto kTimes = [](double x, double y) { return x * y; };
constexpr auto kOver = [](double x, double y) { return x / y; };

}  // namespace

void Add(const Matrix& a, const Matrix& b, Matrix* out) {
  Zip(a, b, out, kPlus, "Add");
}

void Sub(const Matrix& a, const Matrix& b, Matrix* out) {
  Zip(a, b, out, kMinus, "Sub");
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  Matrix c;
  Zip(a, b, &c, kTimes, "Hadamard");
  return c;
}
void Hadamard(const Matrix& a, const Matrix& b, Matrix* out) {
  Zip(a, b, out, kTimes, "Hadamard");
}

void Divide(const Matrix& a, const Matrix& b, Matrix* out) {
  Zip(a, b, out, kOver, "Divide");
}

void Scale(const Matrix& a, double alpha, Matrix* out) {
  out->Resize(a.rows(), a.cols());
  const double* x = a.data();
  double* z = out->data();
  const size_t n = a.size();
  for (size_t i = 0; i < n; ++i) z[i] = x[i] * alpha;
  DTREC_ASSERT_FINITE(*out, "Scale");
}

void AddScaledInPlace(Matrix* a, const Matrix& b, double alpha) {
  DTREC_CHECK(a != nullptr);
  DTREC_CHECK_EQ(a->rows(), b.rows());
  DTREC_CHECK_EQ(a->cols(), b.cols());
  double* x = a->data();
  const double* y = b.data();
  const size_t n = a->size();
  for (size_t i = 0; i < n; ++i) x[i] += alpha * y[i];
  DTREC_ASSERT_FINITE(*a, "AddScaledInPlace");
}

void ScaleInPlace(Matrix* a, double alpha) {
  DTREC_CHECK(a != nullptr);
  double* x = a->data();
  const size_t n = a->size();
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

Matrix SigmoidMat(const Matrix& a) {
  Matrix c;
  SigmoidMat(a, &c);
  return c;
}

void SigmoidMat(const Matrix& a, Matrix* out) {
  out->Resize(a.rows(), a.cols());
  const double* x = a.data();
  double* z = out->data();
  const size_t n = a.size();
  for (size_t i = 0; i < n; ++i) z[i] = Sigmoid(x[i]);
  DTREC_ASSERT_FINITE(*out, "SigmoidMat");
}

double RowDot(const Matrix& a, size_t r, const Matrix& b, size_t r2) {
  DTREC_CHECK_EQ(a.cols(), b.cols());
  DTREC_CHECK_LT(r, a.rows());
  DTREC_CHECK_LT(r2, b.rows());
  const double* x = a.row(r);
  const double* y = b.row(r2);
  double s = 0.0;
  for (size_t k = 0; k < a.cols(); ++k) s += x[k] * y[k];
  DTREC_ASSERT_FINITE_VAL(s, "RowDot");
  return s;
}

double FlatDot(const Matrix& a, const Matrix& b) {
  DTREC_CHECK_EQ(a.size(), b.size());
  const double* x = a.data();
  const double* y = b.data();
  const size_t n = a.size();
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += x[i] * y[i];
  DTREC_ASSERT_FINITE_VAL(s, "FlatDot");
  return s;
}

Matrix ColSums(const Matrix& a) {
  Matrix c(1, a.cols());
  double* sums = c.data();
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* arow = a.row(r);
    for (size_t j = 0; j < a.cols(); ++j) sums[j] += arow[j];
  }
  return c;
}

Matrix RowSums(const Matrix& a) {
  Matrix c(a.rows(), 1);
  double* sums = c.data();
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* arow = a.row(r);
    double s = 0.0;
    for (size_t j = 0; j < a.cols(); ++j) s += arow[j];
    sums[r] = s;
  }
  return c;
}

Matrix HConcat(const Matrix& a, const Matrix& b) {
  Matrix c;
  HConcat(a, b, &c);
  return c;
}

void HConcat(const Matrix& a, const Matrix& b, Matrix* out) {
  DTREC_CHECK_EQ(a.rows(), b.rows());
  const size_t ac = a.cols(), bc = b.cols();
  out->Resize(a.rows(), ac + bc);
  const double* x = a.data();
  const double* y = b.data();
  double* z = out->data();
  for (size_t r = 0; r < a.rows(); ++r) {
    z = std::copy(x + r * ac, x + (r + 1) * ac, z);
    z = std::copy(y + r * bc, y + (r + 1) * bc, z);
  }
}

Matrix GatherRows(const Matrix& a, const std::vector<size_t>& rows) {
  Matrix c;
  GatherRows(a, rows, &c);
  return c;
}

void GatherRows(const Matrix& a, const std::vector<size_t>& rows,
                Matrix* out) {
  const size_t cols = a.cols();
  out->Resize(rows.size(), cols);
  const double* src = a.data();
  double* dst = out->data();
  for (size_t i = 0; i < rows.size(); ++i) {
    DTREC_CHECK_LT(rows[i], a.rows());
    std::copy(src + rows[i] * cols, src + (rows[i] + 1) * cols,
              dst + i * cols);
  }
}

void ScatterAddRows(Matrix* accum, const std::vector<size_t>& rows,
                    const Matrix& grad) {
  DTREC_CHECK(accum != nullptr);
  DTREC_CHECK_EQ(rows.size(), grad.rows());
  DTREC_CHECK_EQ(accum->cols(), grad.cols());
  const size_t cols = grad.cols();
  double* base = accum->data();
  const double* src = grad.data();
  for (size_t i = 0; i < rows.size(); ++i) {
    DTREC_CHECK_LT(rows[i], accum->rows());
    double* dst = base + rows[i] * cols;
    const double* g = src + i * cols;
    for (size_t j = 0; j < cols; ++j) dst[j] += g[j];
  }
}

}  // namespace dtrec
