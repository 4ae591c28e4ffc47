#include <gtest/gtest.h>

#include <cmath>

#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "util/random.h"

namespace dtrec {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 9.0;
  EXPECT_DOUBLE_EQ(m.at_flat(1), 9.0);
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 0), 4.0);
}

TEST(MatrixTest, Identity) {
  Matrix id = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(id(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(id.Sum(), 3.0);
}

TEST(MatrixTest, RandomFactoriesDeterministic) {
  Rng rng1(5), rng2(5);
  Matrix a = Matrix::RandomNormal(4, 4, 1.0, &rng1);
  Matrix b = Matrix::RandomNormal(4, 4, 1.0, &rng2);
  EXPECT_TRUE(a == b);
  Matrix u = Matrix::RandomUniform(4, 4, -1.0, 1.0, &rng1);
  EXPECT_GE(u.Min(), -1.0);
  EXPECT_LT(u.Max(), 1.0);
}

TEST(MatrixTest, Transposed) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_TRUE(t.Transposed() == m);
}

TEST(MatrixTest, RowCopyAndColBlock) {
  Matrix m{{1, 2, 3, 4}, {5, 6, 7, 8}};
  Matrix row = m.RowCopy(1);
  EXPECT_EQ(row.rows(), 1u);
  EXPECT_DOUBLE_EQ(row(0, 3), 8.0);
  Matrix block = m.ColBlock(1, 3);
  EXPECT_EQ(block.cols(), 2u);
  EXPECT_DOUBLE_EQ(block(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(block(1, 1), 7.0);
}

TEST(MatrixTest, SetColBlockRoundTrip) {
  Matrix m(2, 4);
  Matrix block{{1, 2}, {3, 4}};
  m.SetColBlock(2, block);
  EXPECT_DOUBLE_EQ(m(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 3), 4.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_TRUE(m.ColBlock(2, 4) == block);
}

TEST(MatrixTest, Reductions) {
  Matrix m{{1, -2}, {3, 4}};
  EXPECT_DOUBLE_EQ(m.Sum(), 6.0);
  EXPECT_DOUBLE_EQ(m.Mean(), 1.5);
  EXPECT_DOUBLE_EQ(m.Min(), -2.0);
  EXPECT_DOUBLE_EQ(m.Max(), 4.0);
  EXPECT_DOUBLE_EQ(m.FrobeniusNormSquared(), 1 + 4 + 9 + 16);
}

TEST(MatrixTest, AllCloseAndNonFinite) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{1.0 + 1e-10, 2.0}};
  EXPECT_TRUE(a.AllClose(b));
  Matrix c{{1.1, 2.0}};
  EXPECT_FALSE(a.AllClose(c));
  EXPECT_FALSE(a.AllClose(Matrix(2, 1)));
  EXPECT_FALSE(a.HasNonFinite());
  c(0, 0) = std::nan("");
  EXPECT_TRUE(c.HasNonFinite());
}

TEST(MatrixTest, DebugStringTruncates) {
  Matrix m(10, 20, 1.0);
  const std::string s = m.DebugString(2, 3);
  EXPECT_NE(s.find("10x20"), std::string::npos);
  EXPECT_NE(s.find("..."), std::string::npos);
}

// ------------------------------------------------------------------- Ops

TEST(OpsTest, MatMulHandComputed) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = MatMul(a, b);
  EXPECT_TRUE((c == Matrix{{19, 22}, {43, 50}}));
}

TEST(OpsTest, MatMulIdentity) {
  Rng rng(1);
  Matrix a = Matrix::RandomNormal(5, 5, 1.0, &rng);
  EXPECT_TRUE(MatMul(a, Matrix::Identity(5)).AllClose(a));
  EXPECT_TRUE(MatMul(Matrix::Identity(5), a).AllClose(a));
}

TEST(OpsTest, TransposedMatMulsAgreeWithNaive) {
  Rng rng(2);
  Matrix a = Matrix::RandomNormal(4, 6, 1.0, &rng);
  Matrix b = Matrix::RandomNormal(4, 3, 1.0, &rng);
  EXPECT_TRUE(MatMulTransA(a, b).AllClose(MatMul(a.Transposed(), b)));
  Matrix c = Matrix::RandomNormal(5, 6, 1.0, &rng);
  EXPECT_TRUE(MatMulTransB(a, c).AllClose(MatMul(a, c.Transposed())));
}

TEST(OpsTest, ElementwiseOps) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{2, 2}, {2, 2}};
  Matrix out(7, 1, -1.0);  // reused: resized in place by every call
  Add(a, b, &out);
  EXPECT_TRUE((out == Matrix{{3, 4}, {5, 6}}));
  Sub(a, b, &out);
  EXPECT_TRUE((out == Matrix{{-1, 0}, {1, 2}}));
  EXPECT_TRUE((Hadamard(a, b) == Matrix{{2, 4}, {6, 8}}));
  Divide(a, b, &out);
  EXPECT_TRUE((out == Matrix{{0.5, 1}, {1.5, 2}}));
  Scale(a, 2.0, &out);
  EXPECT_TRUE((out == Matrix{{2, 4}, {6, 8}}));
}

TEST(OpsTest, InPlaceOps) {
  Matrix a{{1, 1}};
  Matrix b{{2, 3}};
  AddScaledInPlace(&a, b, 0.5);
  EXPECT_TRUE((a == Matrix{{2, 2.5}}));
  ScaleInPlace(&a, 2.0);
  EXPECT_TRUE((a == Matrix{{4, 5}}));
}

TEST(OpsTest, SigmoidMat) {
  Matrix a{{0, 1}};
  Matrix s = SigmoidMat(a);
  EXPECT_DOUBLE_EQ(s(0, 0), 0.5);
  EXPECT_NEAR(s(0, 1), 1.0 / (1.0 + std::exp(-1.0)), 1e-15);
}

TEST(OpsTest, DotsAndSums) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Matrix b{{1, 0, 1}, {0, 1, 0}};
  EXPECT_DOUBLE_EQ(RowDot(a, 0, b, 0), 4.0);
  EXPECT_DOUBLE_EQ(RowDot(a, 1, b, 1), 5.0);
  EXPECT_DOUBLE_EQ(FlatDot(a, b), 4.0 + 5.0);
  EXPECT_TRUE((ColSums(a) == Matrix{{5, 7, 9}}));
  EXPECT_TRUE((RowSums(a) == Matrix{{6}, {15}}));
}

TEST(OpsTest, HConcat) {
  Matrix a{{1}, {2}};
  Matrix b{{3, 4}, {5, 6}};
  Matrix c = HConcat(a, b);
  EXPECT_EQ(c.cols(), 3u);
  EXPECT_TRUE((c == Matrix{{1, 3, 4}, {2, 5, 6}}));
}

TEST(OpsTest, GatherAndScatter) {
  Matrix a{{1, 2}, {3, 4}, {5, 6}};
  Matrix g = GatherRows(a, {2, 0, 2});
  EXPECT_TRUE((g == Matrix{{5, 6}, {1, 2}, {5, 6}}));

  Matrix accum(3, 2);
  Matrix grad{{1, 1}, {2, 2}, {10, 10}};
  ScatterAddRows(&accum, {2, 0, 2}, grad);
  // Row 2 receives the 1st and 3rd gradient rows.
  EXPECT_TRUE((accum == Matrix{{2, 2}, {0, 0}, {11, 11}}));
}

}  // namespace
}  // namespace dtrec
