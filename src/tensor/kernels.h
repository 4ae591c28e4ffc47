#ifndef DTREC_TENSOR_KERNELS_H_
#define DTREC_TENSOR_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace dtrec::kernels {

// Cache-tiled, register-blocked double-precision GEMM layer.
//
// This is the single place every dense matmul in dtrec lands: the
// tensor-level MatMul/MatMulTransA/MatMulTransB free functions, the
// autograd matmul forward/backward, and serving's ScoreAllItems all route
// here. Future SIMD/threading work plugs into this file and nothing else.
//
// Layout follows the classic BLIS/GotoBLAS decomposition: the operand
// panels are packed into contiguous micro-panel-major buffers (A in
// kMr-row strips, B in kNr-column strips, both zero-padded to full
// strips), and an MR×NR register-accumulator micro-kernel streams through
// one packed A strip and one packed B strip per (ir, jr) tile. Packing
// takes strided element accessors, so the transposed variants reuse the
// same core instead of materializing Aᵀ/Bᵀ.
//
// All entry points *accumulate* into C (callers zero-initialize), operate
// on raw row-major buffers with explicit leading dimensions, and do no
// numeric checking of their own — the tensor/ops.cc wrappers run one
// whole-matrix DTREC_ASSERT_FINITE on the finished result instead of
// per-element (or per-row) guards inside hot loops.

/// Micro-tile geometry, exposed so the equivalence tests can probe exact
/// tile boundaries (kMr·kNr accumulators live in registers during the
/// inner loop; kMc/kKc/kNc size the packed cache panels).
inline constexpr size_t kMr = 4;
inline constexpr size_t kNr = 8;
inline constexpr size_t kMc = 64;
inline constexpr size_t kKc = 256;
inline constexpr size_t kNc = 512;

/// C += A·B. A is m×k (leading dim lda), B is k×n (ldb), C is m×n (ldc).
void Gemm(size_t m, size_t n, size_t k, const double* a, size_t lda,
          const double* b, size_t ldb, double* c, size_t ldc);

/// C += Aᵀ·B. A is stored k×m row-major (lda), producing an m×n C; avoids
/// materializing Aᵀ by packing A with swapped strides.
void GemmTransA(size_t m, size_t n, size_t k, const double* a, size_t lda,
                const double* b, size_t ldb, double* c, size_t ldc);

/// C += A·Bᵀ. B is stored n×k row-major (ldb), producing an m×n C.
void GemmTransB(size_t m, size_t n, size_t k, const double* a, size_t lda,
                const double* b, size_t ldb, double* c, size_t ldc);

/// Batched row-dot: y[i] = A.row(i) · B.row(i) for i in [0, m), rows of
/// length k. Pass ldb = 0 to broadcast B's row 0 against every row of A
/// (the serving ScoreAllItems case: one user vector against all items).
/// Overwrites y.
void BatchedRowDot(size_t m, size_t k, const double* a, size_t lda,
                   const double* b, size_t ldb, double* y);

/// Quantized row-dot: y[i] = Σ_p a[i·lda + p]·b[p] over int8 codes, one
/// shared b row (a quantized user vector) against m rows. Integer
/// arithmetic throughout, so every variant returns the same value: the
/// exact dot as an integer-valued double (exact for k < 2^39). AVX2 and
/// SSE2 variants sign-extend to int16 lanes and multiply-add adjacent
/// pairs (vpmaddwd) into int32 lanes, which are folded into the double
/// every 2^16 codes, so no lane overflows at any k; scalar otherwise.
/// Overwrites y.
void QuantizedRowDot(size_t m, size_t k, const int8_t* a, size_t lda,
                     const int8_t* b, double* y);

// Bit-identity contract of BatchedRowDot, relied on by the pruned serving
// sweep (ServingModel::SweepScore): a body row's result (i <
// m − m%4) depends only on that row's data — not on m, not on which of
// the four group lanes it occupies — and a ragged-tail row's result is
// exactly what a 1-row call produces. Re-scoring an item therefore goes
// through BatchedRowDot itself (a 4-row call over the item's aligned
// group, or a 1-row call for tail items) rather than a source-level copy
// of the loop, which the compiler is free to contract/vectorize
// differently. KernelsTest.BatchedRowDotLanesArePositionIndependent pins
// this contract.

// Naive reference kernels: the seed's triple loops, minus the data-
// dependent `aik == 0` sparsity skip (which silently turned 0·NaN into 0).
// Kept as the ground truth for the kernel-equivalence test suite and as
// the baseline the perf-regression bench compares against. Same
// accumulate-into-C contract as the blocked kernels.
namespace naive {

void Gemm(size_t m, size_t n, size_t k, const double* a, size_t lda,
          const double* b, size_t ldb, double* c, size_t ldc);
void GemmTransA(size_t m, size_t n, size_t k, const double* a, size_t lda,
                const double* b, size_t ldb, double* c, size_t ldc);
void GemmTransB(size_t m, size_t n, size_t k, const double* a, size_t lda,
                const double* b, size_t ldb, double* c, size_t ldc);
void BatchedRowDot(size_t m, size_t k, const double* a, size_t lda,
                   const double* b, size_t ldb, double* y);
void QuantizedRowDot(size_t m, size_t k, const int8_t* a, size_t lda,
                     const int8_t* b, double* y);

}  // namespace naive

}  // namespace dtrec::kernels

#endif  // DTREC_TENSOR_KERNELS_H_
