#ifndef DTREC_TENSOR_KERNELS_H_
#define DTREC_TENSOR_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace dtrec::kernels {

// Cache-tiled, register-blocked double-precision GEMM layer.
//
// Every dense matmul in dtrec lands here: the tensor-level
// MatMul/MatMulTransA/MatMulTransB free functions and, through them, the
// autograd matmul forward/backward. Serving scores through the kernels
// below (BatchedRowDot, and QuantizedBoundMask for the top-K sweep's
// int8 bounds), not through GEMM.
//
// Layout follows the classic BLIS/GotoBLAS decomposition, loop order
// jc → pc → ic → jr → ir: B is packed into zero-padded kNr-column strips,
// and an MR×NR register-accumulator micro-kernel streams one A strip
// against one packed B strip per (ir, jr) tile. The micro-kernel reads A
// through (row, col) strides, so it runs on A in place — (lda, 1), or
// (1, lda) for Aᵀ — and the transposed variants share one core without
// materializing Aᵀ/Bᵀ. Of A only the ragged last strip of each kMc block
// (mc % kMr rows) is packed, into one zero-padded kMr-row strip read
// through strides (1, kMr), because reading it in place would run past
// row m. A full tile goes from the registers straight into C; when op(B)
// spans more than 8 column strips (n > 64), C is too wide to stay cached,
// so each tile's rows of C are prefetched for writing first.
//
// The GEMM entry points *overwrite* C: per output, each kKc block of the
// inner dimension is one multiply-add chain from +0 (fused under
// AVX2+FMA, multiply-then-add otherwise), and C is defined as
// 0.0 + block₁ + block₂ + … in block order, so the first block stores
// 0.0 + chain and k = 0 stores +0. m = 0 or n = 0 touches nothing. They
// operate on raw row-major buffers with explicit leading dimensions, and
// do no numeric checking of their own — the tensor/ops.cc wrappers run
// one whole-matrix DTREC_ASSERT_FINITE on the finished result instead of
// per-element (or per-row) guards inside hot loops.

/// Micro-tile geometry, exposed so the equivalence tests can probe exact
/// tile boundaries (kMr·kNr accumulators live in registers during the
/// inner loop; kMc/kKc/kNc size the packed cache panels).
inline constexpr size_t kMr = 4;
inline constexpr size_t kNr = 8;
inline constexpr size_t kMc = 64;
inline constexpr size_t kKc = 256;
inline constexpr size_t kNc = 512;

/// C = A·B. A is m×k (leading dim lda), B is k×n (ldb), C is m×n (ldc).
void Gemm(size_t m, size_t n, size_t k, const double* a, size_t lda,
          const double* b, size_t ldb, double* c, size_t ldc);

/// C = Aᵀ·B. A is stored k×m row-major (lda), producing an m×n C; Aᵀ is
/// read through swapped strides, never materialized.
void GemmTransA(size_t m, size_t n, size_t k, const double* a, size_t lda,
                const double* b, size_t ldb, double* c, size_t ldc);

/// C = A·Bᵀ. B is stored n×k row-major (ldb), producing an m×n C.
void GemmTransB(size_t m, size_t n, size_t k, const double* a, size_t lda,
                const double* b, size_t ldb, double* c, size_t ldc);

/// Batched row-dot: y[i] = A.row(i) · B.row(i) for i in [0, m), rows of
/// length k. Pass ldb = 0 to broadcast B's row 0 against every row of A
/// (the serving ScoreAllItems case: one user vector against all items).
/// Overwrites y.
void BatchedRowDot(size_t m, size_t k, const double* a, size_t lda,
                   const double* b, size_t ldb, double* y);

/// The terms of the top-K sweep's item bound (DESIGN.md §5j) that every
/// row of one chunk shares.
struct QuantizedBoundTerms {
  double user_scale = 0.0;      ///< s_p, the user's code scale
  double user_code_norm = 0.0;  ///< ‖p̂‖, the norm of the user's codes
  double shared = 0.0;          ///< the chunk's user-side terms and slack
  double bias_slack = 0.0;      ///< relative slack on each item bias
};

/// The top-K sweep's int8 bound filter over one chunk of m ≤ 64 rows, one
/// pass in registers. For each row i, with dot_i = Σ_p a[i·lda + p]·b[p]
/// the exact int8 dot of its codes with the shared user codes b, it
/// writes
///   bounds[i] = MulAdd(s_p·scales[i], dot_i, ‖p̂‖·residuals[i]) + shared
/// plus MulAdd(bias_slack, |bias[i]|, bias[i]) when `bias` is non-null,
/// and returns the mask whose bit i is set when !(bounds[i] < root): the
/// rows that may reach the root, a NaN bound or root included. MulAdd is
/// a fused multiply-add under AVX2+FMA and multiply-then-add otherwise,
/// in the SIMD body, the ragged rows and the naive reference alike, so
/// every variant writes the same bytes. The dot is integer arithmetic:
/// int16 lanes multiply-added in pairs (vpmaddwd) into int32 lanes,
/// folded into a double every 2^16 codes so no lane overflows, exact for
/// k < 2^39.
uint64_t QuantizedBoundMask(size_t m, size_t k, const int8_t* a, size_t lda,
                            const int8_t* b, const double* scales,
                            const double* residuals, const double* bias,
                            const QuantizedBoundTerms& terms, double root,
                            double* bounds);

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

// Naive reference kernels: the ground truth for the kernel-equivalence
// test suite and the baseline the kernel bench compares against. The GEMM
// references are exact: one loop per output that keeps the blocked
// order (a chain from +0 per kKc block, the blocks added in order) with
// the micro-kernel's multiply-add, so the blocked kernels must match them
// bit for bit. Same overwrite contract as the blocked kernels. No data-
// dependent skips (the seed's `aik == 0` shortcut turned 0·NaN into 0).
// QuantizedRowDot is the int8 dot alone, y[i] = Σ_p a[i·lda + p]·b[p] as
// an integer-valued double; QuantizedBoundMask spells the fused kernel's
// bound out row by row on top of it.
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
uint64_t QuantizedBoundMask(size_t m, size_t k, const int8_t* a, size_t lda,
                            const int8_t* b, const double* scales,
                            const double* residuals, const double* bias,
                            const QuantizedBoundTerms& terms, double root,
                            double* bounds);

}  // namespace naive

}  // namespace dtrec::kernels

#endif  // DTREC_TENSOR_KERNELS_H_
