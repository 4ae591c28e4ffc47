#include "tensor/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "util/numeric_guard.h"
#include "util/random.h"

namespace dtrec {
namespace {

// Equivalence suite: the blocked, packed-panel kernels must match the
// naive triple-loop references bit-for-bit modulo summation order, over
// shapes chosen to hit every packing edge case — single rows/columns,
// sizes that are not multiples of the micro/cache tiles, exact tile
// boundaries and boundaries ± 1, and empty operands.

Matrix BlockedMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  kernels::Gemm(a.rows(), b.cols(), a.cols(), a.data(), a.cols(), b.data(),
                b.cols(), c.data(), c.cols());
  return c;
}

Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  kernels::naive::Gemm(a.rows(), b.cols(), a.cols(), a.data(), a.cols(),
                       b.data(), b.cols(), c.data(), c.cols());
  return c;
}

struct Shape {
  size_t m, k, n;
};

std::vector<Shape> EdgeShapes() {
  using kernels::kKc;
  using kernels::kMc;
  using kernels::kMr;
  using kernels::kNc;
  using kernels::kNr;
  return {
      {1, 1, 1},
      {1, 7, 1},
      {1, 13, 9},           // single output row
      {9, 13, 1},           // single output column
      {3, 1, 5},            // inner dim 1
      {kMr, 5, kNr},        // exactly one micro-tile
      {kMr - 1, 5, kNr - 1},
      {kMr + 1, 5, kNr + 1},
      {2 * kMr + 3, 17, 3 * kNr + 5},  // ragged micro-tiles
      {kMc, 8, kNr},        // exactly one A cache panel
      {kMc + 1, kKc + 1, kNr + 3},     // cache-panel boundary + 1
      {7, kKc, 11},         // exactly one k block
      {5, 2 * kKc + 1, 9},  // k spans three blocks, ragged
      {3, 4, kNc},          // exactly one B cache panel
      {3, 4, kNc + 1},
      {65, 129, 65},        // odd sizes above every tile
  };
}

TEST(KernelsTest, GemmMatchesNaiveOnEdgeShapes) {
  Rng rng(11);
  for (const Shape& s : EdgeShapes()) {
    const Matrix a = Matrix::RandomNormal(s.m, s.k, 1.0, &rng);
    const Matrix b = Matrix::RandomNormal(s.k, s.n, 1.0, &rng);
    EXPECT_TRUE(BlockedMatMul(a, b).AllClose(NaiveMatMul(a, b), 1e-12, 1e-12))
        << "shape " << s.m << "x" << s.k << " * " << s.k << "x" << s.n;
  }
}

TEST(KernelsTest, GemmTransAMatchesNaive) {
  Rng rng(12);
  for (const Shape& s : EdgeShapes()) {
    // A stored k×m, logical op Aᵀ·B.
    const Matrix a = Matrix::RandomNormal(s.k, s.m, 1.0, &rng);
    const Matrix b = Matrix::RandomNormal(s.k, s.n, 1.0, &rng);
    Matrix blocked(s.m, s.n), naive(s.m, s.n);
    kernels::GemmTransA(s.m, s.n, s.k, a.data(), a.cols(), b.data(), b.cols(),
                        blocked.data(), blocked.cols());
    kernels::naive::GemmTransA(s.m, s.n, s.k, a.data(), a.cols(), b.data(),
                               b.cols(), naive.data(), naive.cols());
    EXPECT_TRUE(blocked.AllClose(naive, 1e-12, 1e-12))
        << "shape m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

TEST(KernelsTest, GemmTransBMatchesNaive) {
  Rng rng(13);
  for (const Shape& s : EdgeShapes()) {
    const Matrix a = Matrix::RandomNormal(s.m, s.k, 1.0, &rng);
    const Matrix b = Matrix::RandomNormal(s.n, s.k, 1.0, &rng);  // n×k
    Matrix blocked(s.m, s.n), naive(s.m, s.n);
    kernels::GemmTransB(s.m, s.n, s.k, a.data(), a.cols(), b.data(), b.cols(),
                        blocked.data(), blocked.cols());
    kernels::naive::GemmTransB(s.m, s.n, s.k, a.data(), a.cols(), b.data(),
                               b.cols(), naive.data(), naive.cols());
    EXPECT_TRUE(blocked.AllClose(naive, 1e-12, 1e-12))
        << "shape m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

TEST(KernelsTest, EmptyOperandsAreNoOps) {
  // Any zero dimension must leave C untouched and not read the operands.
  Matrix c(3, 3, 7.0);
  kernels::Gemm(3, 3, 0, nullptr, 0, nullptr, 0, c.data(), 3);
  kernels::Gemm(0, 3, 3, nullptr, 3, nullptr, 3, c.data(), 3);
  kernels::Gemm(3, 0, 3, nullptr, 3, nullptr, 0, c.data(), 0);
  EXPECT_TRUE(c == Matrix(3, 3, 7.0));
  kernels::BatchedRowDot(0, 5, nullptr, 5, nullptr, 5, nullptr);
}

TEST(KernelsTest, GemmAccumulatesIntoC) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  Matrix c(2, 2, 100.0);
  kernels::Gemm(2, 2, 2, a.data(), 2, b.data(), 2, c.data(), 2);
  EXPECT_TRUE((c == Matrix{{119, 122}, {143, 150}}));
}

TEST(KernelsTest, BatchedRowDotMatchesNaive) {
  Rng rng(14);
  for (size_t m : {size_t{1}, size_t{3}, size_t{4}, size_t{5}, size_t{63}}) {
    for (size_t k : {size_t{1}, size_t{3}, size_t{8}, size_t{17}}) {
      const Matrix a = Matrix::RandomNormal(m, k, 1.0, &rng);
      const Matrix b = Matrix::RandomNormal(m, k, 1.0, &rng);
      std::vector<double> fast(m), ref(m);
      kernels::BatchedRowDot(m, k, a.data(), k, b.data(), k, fast.data());
      kernels::naive::BatchedRowDot(m, k, a.data(), k, b.data(), k,
                                    ref.data());
      for (size_t i = 0; i < m; ++i) {
        EXPECT_NEAR(fast[i], ref[i], 1e-12) << "m=" << m << " k=" << k;
      }
    }
  }
}

TEST(KernelsTest, BatchedRowDotBroadcastsWithZeroStride) {
  // ldb = 0: one user vector against every item row (ScoreAllItems).
  Rng rng(15);
  const Matrix items = Matrix::RandomNormal(37, 12, 1.0, &rng);
  const Matrix user = Matrix::RandomNormal(1, 12, 1.0, &rng);
  std::vector<double> scores(37);
  kernels::BatchedRowDot(37, 12, items.data(), 12, user.data(), 0,
                         scores.data());
  for (size_t i = 0; i < 37; ++i) {
    EXPECT_NEAR(scores[i], RowDot(items, i, user, 0), 1e-12);
  }
}

TEST(KernelsTest, BatchedRowDotLanesArePositionIndependent) {
  // Pins the bit-identity contract the serving sweeps rely on: a body
  // row's value (i < m − m%4) depends only on its own data — re-scoring
  // it through a 4-row call over its aligned group reproduces the exact
  // bits — and a ragged-tail row equals a 1-row call. EXPECT_EQ on raw
  // doubles: if the compiler ever specializes the body and tail loops
  // with different FP contraction for small m, this is the alarm.
  Rng rng(18);
  for (size_t m : {size_t{4}, size_t{5}, size_t{6}, size_t{7}, size_t{11},
                   size_t{12}}) {
    for (size_t k : {size_t{1}, size_t{8}, size_t{17}}) {
      const Matrix a = Matrix::RandomNormal(m, k, 1.0, &rng);
      const Matrix b = Matrix::RandomNormal(1, k, 1.0, &rng);
      std::vector<double> batched(m);
      kernels::BatchedRowDot(m, k, a.data(), k, b.data(), 0, batched.data());
      const size_t tail_begin = m - m % 4;
      for (size_t g = 0; g < tail_begin; g += 4) {
        double lanes[4];
        kernels::BatchedRowDot(4, k, a.row(g), k, b.data(), 0, lanes);
        for (size_t lane = 0; lane < 4; ++lane) {
          EXPECT_EQ(batched[g + lane], lanes[lane])
              << "m=" << m << " k=" << k << " row " << g + lane;
        }
      }
      for (size_t i = tail_begin; i < m; ++i) {
        double solo;
        kernels::BatchedRowDot(1, k, a.row(i), k, b.data(), 0, &solo);
        EXPECT_EQ(batched[i], solo) << "m=" << m << " k=" << k << " row "
                                    << i;
      }
    }
  }
}

// ------------------------------------------------------ NaN propagation
//
// Regression for the seed's `aik == 0.0` sparsity skip in MatMul /
// MatMulTransA: skipping the inner loop when a is zero turned 0·NaN into
// 0, so a NaN planted in `b` vanished whenever its partner entries in `a`
// were zero — defeating the DTREC_ASSERT_FINITE contract downstream.

TEST(KernelsNaNTest, GemmPropagatesNaNThroughZeroRows) {
  Matrix a(3, 4);  // all zeros — the seed kernel skipped every product
  Matrix b(4, 2, 1.0);
  b(2, 1) = std::nan("");
  Matrix c(3, 2);
  kernels::Gemm(3, 2, 4, a.data(), 4, b.data(), 2, c.data(), 2);
  EXPECT_TRUE(c.HasNonFinite());
  // Column 0 never meets the NaN; column 1 must be NaN in every row.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::isnan(c(i, 1))) << "row " << i;
    EXPECT_FALSE(std::isnan(c(i, 0))) << "row " << i;
  }
}

TEST(KernelsNaNTest, GemmTransAPropagatesNaNThroughZeroRows) {
  Matrix a(4, 3);  // k×m, all zeros
  Matrix b(4, 2, 1.0);
  b(1, 0) = std::numeric_limits<double>::infinity();
  Matrix c(3, 2);
  kernels::GemmTransA(3, 2, 4, a.data(), 3, b.data(), 2, c.data(), 2);
  EXPECT_TRUE(c.HasNonFinite());
}

#ifdef DTREC_NUMERIC_CHECKS

TEST(KernelsNaNDeathTest, MatMulGuardSeesNaNDespiteZeroOperand) {
  // End-to-end through the tensor op: the post-hoc whole-matrix guard
  // must fire even though every entry of `a` is zero.
  Matrix a(2, 2);
  Matrix b(2, 2, 1.0);
  b(0, 0) = std::nan("");
  EXPECT_DEATH((void)MatMul(a, b), "numeric check failed.*MatMul");
}

#else  // !DTREC_NUMERIC_CHECKS

TEST(KernelsNaNTest, MatMulSurfacesNaNDespiteZeroOperand) {
  Matrix a(2, 2);
  Matrix b(2, 2, 1.0);
  b(0, 0) = std::nan("");
  EXPECT_TRUE(MatMul(a, b).HasNonFinite());
  EXPECT_TRUE(MatMulTransA(a, b).HasNonFinite());
}

#endif  // DTREC_NUMERIC_CHECKS

// Tensor-level wrappers stay consistent with each other after the reroute.
TEST(KernelsTest, TensorOpsAgreeWithExplicitTransposes) {
  Rng rng(16);
  const Matrix a = Matrix::RandomNormal(9, 6, 1.0, &rng);
  const Matrix b = Matrix::RandomNormal(9, 5, 1.0, &rng);
  EXPECT_TRUE(MatMulTransA(a, b).AllClose(MatMul(a.Transposed(), b)));
  const Matrix c = Matrix::RandomNormal(7, 6, 1.0, &rng);
  EXPECT_TRUE(MatMulTransB(a, c).AllClose(MatMul(a, c.Transposed())));
  const Matrix d = Matrix::RandomNormal(9, 6, 1.0, &rng);
  Matrix rd;
  RowwiseDot(a, d, &rd);
  for (size_t r = 0; r < a.rows(); ++r) {
    EXPECT_NEAR(rd(r, 0), RowDot(a, r, d, r), 1e-12);
  }
}

}  // namespace
}  // namespace dtrec
