#include "tensor/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "util/numeric_guard.h"
#include "util/random.h"

namespace dtrec {
namespace {

// Equivalence suite: the blocked kernels must match the exact naive
// references byte for byte (so −0.0 ≠ +0.0), over shapes chosen to hit
// every packing edge case — single rows/columns, sizes that are not
// multiples of the micro/cache tiles, exact tile boundaries and
// boundaries ± 1, either side of the wide-C prefetch (n = 64 | 65), the
// training step's products, and empty operands.

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

/// The DT training step's products (the propensity head's two layers and
/// their backward products), Coat- and Yahoo-shaped, and both sides of the
/// wide-C prefetch (n = 64 | 65) with k over two kKc blocks and a ragged
/// last strip of A.
std::vector<Shape> StepAndWideShapes() {
  return {
      {1024, 48, 16}, {1024, 16, 1}, {48, 1024, 16}, {1024, 16, 48},
      {16, 1024, 1},  {2048, 24, 16}, {2048, 16, 1}, {24, 2048, 16},
      {2048, 16, 24}, {67, 300, 64},  {67, 300, 65},  {130, 20, 64},
      {130, 20, 65},
  };
}

/// Normal entries with about a tenth each +0, −0 and subnormal, and one
/// NaN when `nan` is set. Every NaN the kernels produce then carries this
/// one payload (there are no infinities to make a fresh one), so a byte
/// comparison stays exact.
Matrix SpecialOperand(size_t rows, size_t cols, bool nan, Rng* rng) {
  Matrix m = Matrix::RandomNormal(rows, cols, 1.0, rng);
  for (size_t i = 0; i < m.size(); ++i) {
    switch (rng->UniformIndex(10)) {
      case 0:
        m.at_flat(i) = 0.0;
        break;
      case 1:
        m.at_flat(i) = -0.0;
        break;
      case 2:
        m.at_flat(i) *= std::numeric_limits<double>::denorm_min() * 1e6;
        break;
      default:
        break;
    }
  }
  if (nan && m.size() > 0) {
    m.at_flat(rng->UniformIndex(m.size())) =
        std::numeric_limits<double>::quiet_NaN();
  }
  return m;
}

/// Raw-byte equality of two same-shaped results.
void ExpectSameBytes(const Matrix& got, const Matrix& want,
                     const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  size_t differing = 0, first = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(got.data() + i, want.data() + i, sizeof(double)) != 0) {
      if (differing++ == 0) first = i;
    }
  }
  EXPECT_EQ(differing, 0u) << what << ": first at flat index " << first
                           << " (" << got.at_flat(first) << " vs "
                           << want.at_flat(first) << ")";
}

enum class GemmOp { kPlain, kTransA, kTransB };

/// Runs one op blocked and naive on a shape's operands, each into an
/// output prefilled with different garbage, and compares the bytes.
void CheckAgainstNaive(GemmOp op, const Shape& s, bool special, Rng* rng) {
  const size_t a_rows = op == GemmOp::kTransA ? s.k : s.m;
  const size_t a_cols = op == GemmOp::kTransA ? s.m : s.k;
  const size_t b_rows = op == GemmOp::kTransB ? s.n : s.k;
  const size_t b_cols = op == GemmOp::kTransB ? s.k : s.n;
  const Matrix a = special ? SpecialOperand(a_rows, a_cols, true, rng)
                           : Matrix::RandomNormal(a_rows, a_cols, 1.0, rng);
  const Matrix b = special ? SpecialOperand(b_rows, b_cols, true, rng)
                           : Matrix::RandomNormal(b_rows, b_cols, 1.0, rng);
  Matrix blocked(s.m, s.n, 7.0);
  Matrix naive(s.m, s.n, std::numeric_limits<double>::quiet_NaN());
  const auto run = [&](auto gemm, Matrix* c) {
    gemm(s.m, s.n, s.k, a.data(), a_cols, b.data(), b_cols, c->data(), s.n);
  };
  switch (op) {
    case GemmOp::kPlain:
      run(kernels::Gemm, &blocked);
      run(kernels::naive::Gemm, &naive);
      break;
    case GemmOp::kTransA:
      run(kernels::GemmTransA, &blocked);
      run(kernels::naive::GemmTransA, &naive);
      break;
    case GemmOp::kTransB:
      run(kernels::GemmTransB, &blocked);
      run(kernels::naive::GemmTransB, &naive);
      break;
  }
  ExpectSameBytes(blocked, naive,
                  "m=" + std::to_string(s.m) + " k=" + std::to_string(s.k) +
                      " n=" + std::to_string(s.n) +
                      (special ? " special operands" : ""));
}

void CheckAllShapesAgainstNaive(GemmOp op, uint64_t seed) {
  Rng rng(seed);
  std::vector<Shape> shapes = EdgeShapes();
  for (const Shape& s : StepAndWideShapes()) shapes.push_back(s);
  for (const Shape& s : shapes) {
    for (bool special : {false, true}) CheckAgainstNaive(op, s, special, &rng);
  }
}

TEST(KernelsTest, GemmMatchesNaiveOnEdgeShapes) {
  CheckAllShapesAgainstNaive(GemmOp::kPlain, 11);
}

TEST(KernelsTest, GemmTransAMatchesNaive) {
  CheckAllShapesAgainstNaive(GemmOp::kTransA, 12);
}

TEST(KernelsTest, GemmTransBMatchesNaive) {
  CheckAllShapesAgainstNaive(GemmOp::kTransB, 13);
}

TEST(KernelsTest, EmptySumWritesZerosAndEmptyOutputIsUntouched) {
  // k = 0: C is the empty sum, +0, whatever it held. m = 0 or n = 0: no
  // output, so C stays as it was and the operands are not read.
  Matrix c(3, 3, std::numeric_limits<double>::quiet_NaN());
  kernels::Gemm(3, 3, 0, nullptr, 0, nullptr, 0, c.data(), 3);
  ExpectSameBytes(c, Matrix(3, 3), "k=0");
  Matrix untouched(3, 3, 7.0);
  kernels::Gemm(0, 3, 3, nullptr, 3, nullptr, 3, untouched.data(), 3);
  kernels::GemmTransA(3, 0, 3, nullptr, 3, nullptr, 0, untouched.data(), 0);
  kernels::GemmTransB(0, 0, 3, nullptr, 3, nullptr, 3, untouched.data(), 3);
  EXPECT_TRUE(untouched == Matrix(3, 3, 7.0));
  kernels::BatchedRowDot(0, 5, nullptr, 5, nullptr, 5, nullptr);
}

TEST(KernelsTest, GemmOverwritesC) {
  // C's prior contents, finite or NaN, never enter the product: on one
  // k block and across three (the first block stores 0.0 + chain).
  for (const double prior : {100.0, std::numeric_limits<double>::quiet_NaN()}) {
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Matrix b{{5.0, 6.0}, {7.0, 8.0}};
    Matrix c(2, 2, prior);
    kernels::Gemm(2, 2, 2, a.data(), 2, b.data(), 2, c.data(), 2);
    EXPECT_TRUE((c == Matrix{{19, 22}, {43, 50}})) << prior;
    c.Fill(prior);
    kernels::GemmTransA(2, 2, 2, a.data(), 2, b.data(), 2, c.data(), 2);
    EXPECT_TRUE((c == Matrix{{26, 30}, {38, 44}})) << prior;
    c.Fill(prior);
    kernels::GemmTransB(2, 2, 2, a.data(), 2, b.data(), 2, c.data(), 2);
    EXPECT_TRUE((c == Matrix{{17, 23}, {39, 53}})) << prior;

    const size_t k = 2 * kernels::kKc + 5;
    const Matrix ones(5, k, 1.0);
    const Matrix twos(k, 9, 2.0);
    Matrix wide(5, 9, prior);
    kernels::Gemm(5, 9, k, ones.data(), k, twos.data(), 9, wide.data(), 9);
    EXPECT_TRUE(wide == Matrix(5, 9, 2.0 * static_cast<double>(k))) << prior;
  }
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

/// Random int8 codes spanning the whole range, −128 and 127 included.
std::vector<int8_t> RandomCodes(size_t n, Rng* rng) {
  std::vector<int8_t> codes(n);
  for (int8_t& v : codes) v = static_cast<int8_t>(rng->UniformIndex(256));
  codes.front() = -128;
  codes.back() = 127;
  return codes;
}

/// The fused kernel's bounds and mask against the naive reference, byte
/// for byte; every bit at or past m must be clear.
void ExpectBoundMaskMatchesNaive(size_t m, size_t k,
                                 const std::vector<int8_t>& a,
                                 const std::vector<int8_t>& b,
                                 const std::vector<double>& scales,
                                 const std::vector<double>& residuals,
                                 const double* bias,
                                 const kernels::QuantizedBoundTerms& terms,
                                 double root, const std::string& what) {
  double fast[64], ref[64];
  const uint64_t fast_mask = kernels::QuantizedBoundMask(
      m, k, a.data(), k, b.data(), scales.data(), residuals.data(), bias,
      terms, root, fast);
  const uint64_t ref_mask = kernels::naive::QuantizedBoundMask(
      m, k, a.data(), k, b.data(), scales.data(), residuals.data(), bias,
      terms, root, ref);
  EXPECT_EQ(fast_mask, ref_mask) << what;
  EXPECT_EQ(std::memcmp(fast, ref, m * sizeof(double)), 0) << what;
  for (size_t i = 0; i < m; ++i) {
    EXPECT_EQ((fast_mask >> i) & 1, fast[i] < root ? 0u : 1u)
        << what << " row " << i;
  }
  if (m < 64) {
    EXPECT_EQ(fast_mask >> m, 0u) << what;
  }
}

TEST(KernelsTest, QuantizedBoundMaskEqualsNaiveExactly) {
  // Every chunk length (the 4-row body and every ragged m % 4), widths on
  // both sides of the 8- and 16-code SIMD steps, biases on and off, and a
  // root of −∞, a finite value, +∞ and NaN. The scales, residuals and
  // terms are random doubles, so a variant that rounds the bound in
  // another order (say, an FMA where the reference multiplies and adds)
  // writes other bytes.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(19);
  const std::vector<double> roots = {-kInf, 0.25, kInf, std::nan("")};
  for (size_t m = 1; m <= 64; ++m) {
    for (size_t k : {size_t{1}, size_t{7}, size_t{8}, size_t{15}, size_t{16},
                     size_t{17}, size_t{31}, size_t{32}, size_t{33},
                     size_t{64}}) {
      const std::vector<int8_t> a = RandomCodes(m * k, &rng);
      const std::vector<int8_t> b = RandomCodes(k, &rng);
      std::vector<double> scales(m), residuals(m), bias(m);
      for (size_t i = 0; i < m; ++i) {
        scales[i] = rng.Uniform() / 127.0;
        residuals[i] = 0.01 * rng.Uniform();
        bias[i] = rng.Normal();
      }
      const kernels::QuantizedBoundTerms terms{
          .user_scale = rng.Uniform() / 127.0,
          .user_code_norm = rng.Uniform(),
          .shared = rng.Normal(),
          .bias_slack = 1e-9};
      for (const double root : roots) {
        for (const bool with_bias : {false, true}) {
          ExpectBoundMaskMatchesNaive(
              m, k, a, b, scales, residuals,
              with_bias ? bias.data() : nullptr, terms, root,
              "m=" + std::to_string(m) + " k=" + std::to_string(k) +
                  " root=" + std::to_string(root) +
                  (with_bias ? " bias" : ""));
        }
      }
    }
  }
  // Past 2^16 codes the int32 lanes are folded into the double.
  const size_t k = (size_t{1} << 16) + 24;
  for (size_t m : {size_t{1}, size_t{4}, size_t{7}, size_t{64}}) {
    const std::vector<int8_t> a = RandomCodes(m * k, &rng);
    const std::vector<int8_t> b = RandomCodes(k, &rng);
    std::vector<double> scales(m), residuals(m);
    for (size_t i = 0; i < m; ++i) {
      scales[i] = rng.Uniform() / 127.0;
      residuals[i] = rng.Uniform();
    }
    const kernels::QuantizedBoundTerms terms{.user_scale = 1.0 / 127.0,
                                             .user_code_norm = 0.5,
                                             .shared = 0.125};
    ExpectBoundMaskMatchesNaive(m, k, a, b, scales, residuals, nullptr,
                                terms, 0.0, "folded m=" + std::to_string(m));
  }
}

TEST(KernelsTest, QuantizedBoundMaskKeepsUncodedRowsAndUsers) {
  // An uncoded row has s = 0 and r = +∞; an uncoded user has s_p = 0,
  // ‖p̂‖ = 0 and a +∞ shared term. Every bound they touch is +∞ or NaN,
  // and the row must be kept under every root, +∞ and NaN included.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(23);
  const size_t k = 32;
  for (size_t m : {size_t{5}, size_t{16}, size_t{64}}) {
    const std::vector<int8_t> a = RandomCodes(m * k, &rng);
    const std::vector<int8_t> b = RandomCodes(k, &rng);
    std::vector<double> scales(m), residuals(m), bias(m);
    for (size_t i = 0; i < m; ++i) {
      scales[i] = rng.Uniform() / 127.0;
      residuals[i] = 0.01 * rng.Uniform();
      bias[i] = rng.Normal();
    }
    const std::vector<size_t> uncoded = {0, 2, m - 1};
    for (size_t i : uncoded) {
      scales[i] = 0.0;
      residuals[i] = kInf;
    }
    const kernels::QuantizedBoundTerms coded_user{.user_scale = 1.0 / 127.0,
                                                  .user_code_norm = 0.75,
                                                  .shared = -1.0,
                                                  .bias_slack = 1e-9};
    const kernels::QuantizedBoundTerms uncoded_user{.shared = kInf,
                                                    .bias_slack = 1e-9};
    for (const double root : {-kInf, 1e6, kInf, std::nan("")}) {
      for (const double* b_i : {static_cast<const double*>(nullptr),
                                static_cast<const double*>(bias.data())}) {
        const std::string what = "m=" + std::to_string(m) +
                                 " root=" + std::to_string(root) +
                                 (b_i != nullptr ? " bias" : "");
        double bounds[64];
        uint64_t mask = kernels::QuantizedBoundMask(
            m, k, a.data(), k, b.data(), scales.data(), residuals.data(),
            b_i, coded_user, root, bounds);
        for (size_t i : uncoded) {
          EXPECT_TRUE(bounds[i] == kInf || std::isnan(bounds[i]))
              << what << " row " << i << " bound " << bounds[i];
          EXPECT_EQ((mask >> i) & 1, 1u) << what << " row " << i;
        }
        ExpectBoundMaskMatchesNaive(m, k, a, b, scales, residuals, b_i,
                                    coded_user, root, what);
        mask = kernels::QuantizedBoundMask(m, k, a.data(), k, b.data(),
                                           scales.data(), residuals.data(),
                                           b_i, uncoded_user, root, bounds);
        for (size_t i = 0; i < m; ++i) {
          EXPECT_TRUE(bounds[i] == kInf || std::isnan(bounds[i]))
              << what << " uncoded user, row " << i;
        }
        EXPECT_EQ(mask, m == 64 ? ~uint64_t{0} : (uint64_t{1} << m) - 1)
            << what << " uncoded user";
        ExpectBoundMaskMatchesNaive(m, k, a, b, scales, residuals, b_i,
                                    uncoded_user, root,
                                    what + " uncoded user");
      }
    }
  }
}

TEST(KernelsTest, QuantizedBoundMaskAtUnitTermsIsTheIntegerDot) {
  // With s = 1, r = 0 and shared = 0 the bound is the int8 dot itself:
  // integer arithmetic, so every ISA variant must return the naive sum
  // exactly, over row counts that hit the 4-row body and the ragged rows,
  // widths on both sides of the 8- and 16-code SIMD steps, and codes that
  // span the whole int8 range (−128 included).
  Rng rng(19);
  const kernels::QuantizedBoundTerms unit{.user_scale = 1.0};
  for (size_t m : {size_t{1}, size_t{4}, size_t{7}, size_t{64}}) {
    for (size_t k : {size_t{1}, size_t{7}, size_t{8}, size_t{15}, size_t{16},
                     size_t{17}, size_t{31}, size_t{32}, size_t{33},
                     size_t{64}}) {
      std::vector<int8_t> a(m * k), b(k);
      for (int8_t& v : a) v = static_cast<int8_t>(rng.UniformIndex(256));
      for (int8_t& v : b) v = static_cast<int8_t>(rng.UniformIndex(256));
      a[0] = -128;
      b[0] = -128;
      a[m * k - 1] = 127;
      const std::vector<double> ones(m, 1.0), zeros(m, 0.0);
      double fast[64];
      std::vector<double> ref(m);
      kernels::QuantizedBoundMask(m, k, a.data(), k, b.data(), ones.data(),
                                  zeros.data(), nullptr, unit, 0.0, fast);
      kernels::naive::QuantizedRowDot(m, k, a.data(), k, b.data(),
                                      ref.data());
      for (size_t i = 0; i < m; ++i) {
        EXPECT_EQ(fast[i], ref[i]) << "m=" << m << " k=" << k << " row " << i;
      }
    }
  }
}

TEST(KernelsTest, QuantizedBoundMaskStaysExactPastTheInt32Range) {
  // All codes −128: each row sums 2^14·k, past 2^31 at this width, so a
  // kernel that kept the whole row in int32 lanes would wrap.
  const size_t m = 5, k = (size_t{1} << 17) + 9;
  const std::vector<int8_t> a(m * k, int8_t{-128}), b(k, int8_t{-128});
  const std::vector<double> ones(m, 1.0), zeros(m, 0.0);
  const kernels::QuantizedBoundTerms unit{.user_scale = 1.0};
  double fast[m];
  std::vector<double> ref(m);
  kernels::QuantizedBoundMask(m, k, a.data(), k, b.data(), ones.data(),
                              zeros.data(), nullptr, unit, 0.0, fast);
  kernels::naive::QuantizedRowDot(m, k, a.data(), k, b.data(), ref.data());
  for (size_t i = 0; i < m; ++i) {
    EXPECT_EQ(fast[i], 16384.0 * static_cast<double>(k)) << "row " << i;
    EXPECT_EQ(ref[i], fast[i]) << "row " << i;
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
