#ifndef DTREC_TENSOR_OPS_H_
#define DTREC_TENSOR_OPS_H_

#include <vector>

#include "tensor/matrix.h"

namespace dtrec {

// Free-function kernels over Matrix. All functions check shapes with
// DTREC_CHECK once per call and then loop over raw data() pointers. A form
// taking a trailing `Matrix* out` writes into `out`, resizing it in place,
// so a caller that keeps `out` between calls (the autograd workspace)
// allocates nothing once the buffer has grown; `out` must not alias an
// input. Where a value-returning form also exists it allocates its result
// and runs the same loop, so both forms are bit-identical.

/// C = A * B. Requires A.cols() == B.rows().
Matrix MatMul(const Matrix& a, const Matrix& b);
void MatMul(const Matrix& a, const Matrix& b, Matrix* out);

/// C = Aᵀ * B. Requires A.rows() == B.rows(). Avoids materializing Aᵀ.
Matrix MatMulTransA(const Matrix& a, const Matrix& b);
void MatMulTransA(const Matrix& a, const Matrix& b, Matrix* out);

/// C = A * Bᵀ. Requires A.cols() == B.cols(). Avoids materializing Bᵀ.
Matrix MatMulTransB(const Matrix& a, const Matrix& b);
void MatMulTransB(const Matrix& a, const Matrix& b, Matrix* out);

/// Row-wise dot products: C(r, 0) = A.row(r) · B.row(r). Shapes must
/// match. Batched through the kernel layer so the finiteness guard runs
/// once on the whole result instead of per row.
void RowwiseDot(const Matrix& a, const Matrix& b, Matrix* out);

/// Element-wise sum / difference / product (Hadamard). Shapes must match.
void Add(const Matrix& a, const Matrix& b, Matrix* out);
void Sub(const Matrix& a, const Matrix& b, Matrix* out);
Matrix Hadamard(const Matrix& a, const Matrix& b);
void Hadamard(const Matrix& a, const Matrix& b, Matrix* out);

/// Element-wise division a ./ b; caller guarantees b has no zeros.
void Divide(const Matrix& a, const Matrix& b, Matrix* out);

/// alpha * A.
void Scale(const Matrix& a, double alpha, Matrix* out);

/// A += alpha * B (axpy). Shapes must match.
void AddScaledInPlace(Matrix* a, const Matrix& b, double alpha);

/// A *= alpha.
void ScaleInPlace(Matrix* a, double alpha);

/// Element-wise logistic sigmoid (numerically stable).
Matrix SigmoidMat(const Matrix& a);
void SigmoidMat(const Matrix& a, Matrix* out);

/// Row r of `a` dotted with row r2 of `b`; rows must have equal length.
double RowDot(const Matrix& a, size_t r, const Matrix& b, size_t r2);

/// Dot product treating both matrices as flat vectors; shapes must match in
/// total size.
double FlatDot(const Matrix& a, const Matrix& b);

/// Sum over rows -> 1×cols matrix.
Matrix ColSums(const Matrix& a);

/// Sum over columns -> rows×1 matrix.
Matrix RowSums(const Matrix& a);

/// Horizontal concatenation [A | B]. Row counts must match.
Matrix HConcat(const Matrix& a, const Matrix& b);
void HConcat(const Matrix& a, const Matrix& b, Matrix* out);

/// Gathers the listed rows of `a` into a new matrix (one output row per
/// index, duplicates allowed).
Matrix GatherRows(const Matrix& a, const std::vector<size_t>& rows);
void GatherRows(const Matrix& a, const std::vector<size_t>& rows,
                Matrix* out);

/// Adds each row of `grad` into row `rows[i]` of `accum` (scatter-add, the
/// adjoint of GatherRows).
void ScatterAddRows(Matrix* accum, const std::vector<size_t>& rows,
                    const Matrix& grad);

}  // namespace dtrec

#endif  // DTREC_TENSOR_OPS_H_
