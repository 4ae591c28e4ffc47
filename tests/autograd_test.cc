#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "autograd/tape.h"
#include "tensor/ops.h"
#include "util/random.h"

namespace dtrec {
namespace {

/// Builds the loss graph on `tape`, creating one leaf per entry of
/// `params` (pushed into `leaves` in order).
using GraphBuilder = std::function<ag::Var(
    ag::Tape* tape, std::vector<ag::Var>* leaves,
    const std::vector<Matrix>& params)>;

/// Verifies every analytic leaf gradient against central differences.
void CheckGradients(const GraphBuilder& builder, std::vector<Matrix> params,
                    double tol = 2e-6) {
  // Analytic gradients.
  ag::Tape tape;
  std::vector<ag::Var> leaves;
  ag::Var loss = builder(&tape, &leaves, params);
  ASSERT_EQ(leaves.size(), params.size());
  tape.Backward(loss);

  for (size_t i = 0; i < params.size(); ++i) {
    auto loss_value = [&]() {
      ag::Tape fresh;
      std::vector<ag::Var> fresh_leaves;
      return builder(&fresh, &fresh_leaves, params).value()(0, 0);
    };
    const Matrix numeric =
        ag::NumericalGradient(loss_value, &params[i], 1e-5);
    const double err =
        ag::RelativeGradError(tape.GradOf(leaves[i]), numeric);
    EXPECT_LT(err, tol) << "param " << i << " gradient mismatch";
  }
}

Matrix RandomMat(size_t r, size_t c, uint64_t seed, double scale = 1.0) {
  Rng rng(seed);
  return Matrix::RandomNormal(r, c, scale, &rng);
}

// -------------------------------------------------------------- Tape basics

TEST(TapeTest, LeafHoldsValueAndZeroGrad) {
  ag::Tape tape;
  ag::Var v = tape.Leaf(Matrix{{1, 2}});
  EXPECT_TRUE((v.value() == Matrix{{1, 2}}));
  EXPECT_DOUBLE_EQ(v.grad()(0, 0), 0.0);
}

TEST(TapeTest, BackwardSeedsLossGradient) {
  ag::Tape tape;
  ag::Var v = tape.Leaf(Matrix{{3}});
  ag::Var loss = ag::Sum(v);
  tape.Backward(loss);
  EXPECT_DOUBLE_EQ(loss.grad()(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(v.grad()(0, 0), 1.0);
}

TEST(TapeTest, UnreachableBranchGetsNoGradient) {
  ag::Tape tape;
  ag::Var a = tape.Leaf(Matrix{{1}});
  ag::Var b = tape.Leaf(Matrix{{2}});
  ag::Var unused = ag::Scale(b, 10.0);  // separate head, not in loss
  ag::Var loss = ag::Sum(a);
  tape.Backward(loss);
  EXPECT_DOUBLE_EQ(b.grad()(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(unused.grad()(0, 0), 0.0);
}

TEST(TapeTest, ResetInvalidatesNodes) {
  ag::Tape tape;
  tape.Leaf(Matrix{{1}});
  EXPECT_EQ(tape.num_nodes(), 1u);
  tape.Reset();
  EXPECT_EQ(tape.num_nodes(), 0u);
}

TEST(TapeTest, DetachBlocksGradient) {
  ag::Tape tape;
  ag::Var a = tape.Leaf(Matrix{{2}});
  ag::Var d = ag::Detach(ag::Scale(a, 3.0));
  ag::Var loss = ag::Sum(ag::Mul(d, a));  // loss = 6a via detached const
  tape.Backward(loss);
  // d(loss)/da = d.value = 6 (no flow through the detached path).
  EXPECT_DOUBLE_EQ(a.grad()(0, 0), 6.0);
}

TEST(TapeTest, GradientAccumulatesOverReuse) {
  ag::Tape tape;
  ag::Var a = tape.Leaf(Matrix{{3}});
  ag::Var loss = ag::Sum(ag::Add(a, a));
  tape.Backward(loss);
  EXPECT_DOUBLE_EQ(a.grad()(0, 0), 2.0);
}

// ------------------------------------------------------ per-op grad checks

TEST(GradCheckTest, AddSubMul) {
  CheckGradients(
      [](ag::Tape* t, std::vector<ag::Var>* leaves,
         const std::vector<Matrix>& p) {
        leaves->push_back(t->Leaf(p[0]));
        leaves->push_back(t->Leaf(p[1]));
        ag::Var x = (*leaves)[0], y = (*leaves)[1];
        return ag::Sum(ag::Mul(ag::Add(x, y), ag::Sub(x, y)));
      },
      {RandomMat(3, 4, 1), RandomMat(3, 4, 2)});
}

TEST(GradCheckTest, DivAndDivScalar) {
  Matrix denom = RandomMat(2, 3, 3);
  for (size_t i = 0; i < denom.size(); ++i) {
    denom.at_flat(i) = 1.5 + std::fabs(denom.at_flat(i));
  }
  CheckGradients(
      [](ag::Tape* t, std::vector<ag::Var>* leaves,
         const std::vector<Matrix>& p) {
        leaves->push_back(t->Leaf(p[0]));
        leaves->push_back(t->Leaf(p[1]));
        ag::Var quotient = ag::Div((*leaves)[0], (*leaves)[1]);
        ag::Var denom_sum = ag::AddScalar(ag::Sum((*leaves)[1]), 20.0);
        return ag::Sum(ag::DivScalar(quotient, denom_sum));
      },
      {RandomMat(2, 3, 4), denom});
}

TEST(GradCheckTest, MatMulAndTranspose) {
  CheckGradients(
      [](ag::Tape* t, std::vector<ag::Var>* leaves,
         const std::vector<Matrix>& p) {
        leaves->push_back(t->Leaf(p[0]));
        leaves->push_back(t->Leaf(p[1]));
        ag::Var prod = ag::MatMul((*leaves)[0], (*leaves)[1]);
        return ag::Sum(ag::MatMul(prod, ag::Transpose(prod)));
      },
      {RandomMat(3, 4, 5, 0.5), RandomMat(4, 2, 6, 0.5)});
}

TEST(GradCheckTest, UnaryOps) {
  Matrix positive = RandomMat(3, 3, 7);
  for (size_t i = 0; i < positive.size(); ++i) {
    positive.at_flat(i) = 0.5 + std::fabs(positive.at_flat(i));
  }
  CheckGradients(
      [](ag::Tape* t, std::vector<ag::Var>* leaves,
         const std::vector<Matrix>& p) {
        leaves->push_back(t->Leaf(p[0]));
        ag::Var x = (*leaves)[0];
        ag::Var term = ag::Add(ag::Sigmoid(x), ag::Exp(ag::Scale(x, -0.5)));
        term = ag::Add(term, ag::Log(x));
        term = ag::Add(term, ag::Square(x));
        return ag::Mean(term);
      },
      {positive});
}

TEST(GradCheckTest, ReluSubgradient) {
  // Entries away from 0 so the subgradient is well-defined for FD.
  Matrix x{{1.0, -2.0, 0.5, -0.25}};
  CheckGradients(
      [](ag::Tape* t, std::vector<ag::Var>* leaves,
         const std::vector<Matrix>& p) {
        leaves->push_back(t->Leaf(p[0]));
        return ag::Sum(ag::Relu((*leaves)[0]));
      },
      {x});
}

TEST(GradCheckTest, FrobeniusAndWeightedSum) {
  const Matrix w = RandomMat(3, 2, 8);
  CheckGradients(
      [w](ag::Tape* t, std::vector<ag::Var>* leaves,
          const std::vector<Matrix>& p) {
        leaves->push_back(t->Leaf(p[0]));
        ag::Var x = (*leaves)[0];
        return ag::Add(ag::FrobeniusSq(x), ag::WeightedSumElems(x, w));
      },
      {RandomMat(3, 2, 9)});
}

TEST(GradCheckTest, GatherRowsWithDuplicates) {
  CheckGradients(
      [](ag::Tape* t, std::vector<ag::Var>* leaves,
         const std::vector<Matrix>& p) {
        leaves->push_back(t->Leaf(p[0]));
        ag::Var g = ag::GatherRows((*leaves)[0], {0, 2, 2, 1});
        return ag::Sum(ag::Square(g));
      },
      {RandomMat(3, 4, 10)});
}

TEST(GradCheckTest, HConcatAndRowwiseDot) {
  CheckGradients(
      [](ag::Tape* t, std::vector<ag::Var>* leaves,
         const std::vector<Matrix>& p) {
        leaves->push_back(t->Leaf(p[0]));
        leaves->push_back(t->Leaf(p[1]));
        ag::Var cat = ag::HConcat((*leaves)[0], (*leaves)[1]);
        return ag::Sum(ag::RowwiseDot(cat, cat));
      },
      {RandomMat(4, 2, 11), RandomMat(4, 3, 12)});
}

TEST(GradCheckTest, AddRowBroadcast) {
  CheckGradients(
      [](ag::Tape* t, std::vector<ag::Var>* leaves,
         const std::vector<Matrix>& p) {
        leaves->push_back(t->Leaf(p[0]));
        leaves->push_back(t->Leaf(p[1]));
        return ag::Sum(
            ag::Square(ag::AddRowBroadcast((*leaves)[0], (*leaves)[1])));
      },
      {RandomMat(5, 3, 13), RandomMat(1, 3, 14)});
}

TEST(GradCheckTest, MulConstAndScaleAddScalar) {
  const Matrix m = RandomMat(2, 2, 15);
  CheckGradients(
      [m](ag::Tape* t, std::vector<ag::Var>* leaves,
          const std::vector<Matrix>& p) {
        leaves->push_back(t->Leaf(p[0]));
        ag::Var x = ag::AddScalar(ag::Scale((*leaves)[0], 1.7), -0.3);
        return ag::Sum(ag::MulConst(x, m));
      },
      {RandomMat(2, 2, 16)});
}

TEST(GradCheckTest, SigmoidBceSumMatchesCompositeAndGradient) {
  Rng rng(17);
  Matrix logits = Matrix::RandomNormal(4, 1, 2.0, &rng);
  Matrix targets(4, 1);
  for (size_t i = 0; i < 4; ++i) targets(i, 0) = rng.Bernoulli(0.5);
  Matrix weights(4, 1, 0.25);

  // Value equals the composite −Σ w·[y·logσ + (1−y)·log(1−σ)].
  ag::Tape tape;
  ag::Var l = tape.Leaf(logits);
  ag::Var bce = ag::SigmoidBceSum(l, targets, weights);
  double expected = 0.0;
  for (size_t i = 0; i < 4; ++i) {
    const double p = 1.0 / (1.0 + std::exp(-logits(i, 0)));
    expected -= 0.25 * (targets(i, 0) * std::log(p) +
                        (1 - targets(i, 0)) * std::log(1 - p));
  }
  EXPECT_NEAR(bce.value()(0, 0), expected, 1e-10);

  CheckGradients(
      [targets, weights](ag::Tape* t, std::vector<ag::Var>* leaves,
                         const std::vector<Matrix>& p) {
        leaves->push_back(t->Leaf(p[0]));
        return ag::SigmoidBceSum((*leaves)[0], targets, weights);
      },
      {logits});
}

TEST(GradCheckTest, GramFrobeniusSqMatchesNaiveValueAndGradient) {
  Matrix a = RandomMat(6, 3, 18, 0.7);
  Matrix b = RandomMat(5, 3, 19, 0.7);
  ag::Tape tape;
  ag::Var va = tape.Leaf(a);
  ag::Var vb = tape.Leaf(b);
  ag::Var gram = ag::GramFrobeniusSq(va, vb);
  const double naive = MatMulTransB(a, b).FrobeniusNormSquared();
  EXPECT_NEAR(gram.value()(0, 0), naive, 1e-9 * (1.0 + naive));

  CheckGradients(
      [](ag::Tape* t, std::vector<ag::Var>* leaves,
         const std::vector<Matrix>& p) {
        leaves->push_back(t->Leaf(p[0]));
        leaves->push_back(t->Leaf(p[1]));
        return ag::GramFrobeniusSq((*leaves)[0], (*leaves)[1]);
      },
      {a, b});
}

// A realistic composite: the full DT-IPS-style step graph.
TEST(GradCheckTest, CompositeMfLossGraph) {
  const std::vector<size_t> users{0, 1, 1, 2};
  const std::vector<size_t> items{1, 0, 2, 1};
  Matrix labels{{1}, {0}, {1}, {0}};
  Matrix weights{{0.5}, {0.0}, {2.0}, {0.25}};
  CheckGradients(
      [&](ag::Tape* t, std::vector<ag::Var>* leaves,
          const std::vector<Matrix>& p) {
        leaves->push_back(t->Leaf(p[0]));  // P
        leaves->push_back(t->Leaf(p[1]));  // Q
        ag::Var pu = ag::GatherRows((*leaves)[0], users);
        ag::Var qi = ag::GatherRows((*leaves)[1], items);
        ag::Var probs = ag::Sigmoid(ag::RowwiseDot(pu, qi));
        ag::Var e = ag::Square(ag::Sub(t->Constant(labels), probs));
        ag::Var ips = ag::WeightedSumElems(e, weights);
        ag::Var ortho = ag::FrobeniusSq(
            ag::MatMul(ag::Transpose((*leaves)[0]), (*leaves)[1]));
        return ag::Add(ips, ag::Scale(ortho, 1e-3));
      },
      {RandomMat(3, 3, 20, 0.5), RandomMat(3, 3, 21, 0.5)});
}

// ----------------------------------------------- parameterized shape sweep

class MatMulShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapeTest, GradientHoldsAcrossShapes) {
  const auto [m, k, n] = GetParam();
  CheckGradients(
      [](ag::Tape* t, std::vector<ag::Var>* leaves,
         const std::vector<Matrix>& p) {
        leaves->push_back(t->Leaf(p[0]));
        leaves->push_back(t->Leaf(p[1]));
        return ag::Sum(ag::MatMul((*leaves)[0], (*leaves)[1]));
      },
      {RandomMat(m, k, 100 + m, 0.5), RandomMat(k, n, 200 + n, 0.5)});
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 5, 3),
                      std::make_tuple(4, 1, 4), std::make_tuple(3, 7, 2),
                      std::make_tuple(6, 2, 6)));

TEST(GradCheckTest, SameVarUsedTwiceInOneOp) {
  // Mul(a, a) must accumulate both partials into the single parent.
  CheckGradients(
      [](ag::Tape* t, std::vector<ag::Var>* leaves,
         const std::vector<Matrix>& p) {
        leaves->push_back(t->Leaf(p[0]));
        return ag::Sum(ag::Mul((*leaves)[0], (*leaves)[0]));
      },
      {RandomMat(3, 3, 30)});
}

TEST(GradCheckTest, DeepChainGraph) {
  // 40 chained ops: exercises the reverse sweep over a long tape.
  CheckGradients(
      [](ag::Tape* t, std::vector<ag::Var>* leaves,
         const std::vector<Matrix>& p) {
        leaves->push_back(t->Leaf(p[0]));
        ag::Var x = (*leaves)[0];
        for (int i = 0; i < 40; ++i) {
          x = ag::AddScalar(ag::Scale(ag::Sigmoid(x), 1.1), -0.05);
        }
        return ag::Mean(x);
      },
      {RandomMat(2, 3, 31)},
      /*tol=*/5e-5);
}

TEST(TapeTest, ConstantReceivesNoBackwardCall) {
  ag::Tape tape;
  ag::Var c = tape.Constant(Matrix{{2.0}});
  ag::Var a = tape.Leaf(Matrix{{3.0}});
  ag::Var loss = ag::Sum(ag::Mul(a, c));
  tape.Backward(loss);
  EXPECT_DOUBLE_EQ(a.grad()(0, 0), 2.0);
}

// ------------------------------------------------------- tape as workspace

/// Raw double equality of shape and every entry (no tolerance).
void ExpectBitEqual(const Matrix& actual, const Matrix& expected) {
  ASSERT_EQ(actual.rows(), expected.rows());
  ASSERT_EQ(actual.cols(), expected.cols());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual.at_flat(i), expected.at_flat(i)) << "entry " << i;
  }
}

/// Graph A: an MLP-tower-shaped graph touching most op kinds.
struct GraphA {
  std::vector<ag::Var> nodes;  // every Var built, leaves first
  ag::Var loss;
};

GraphA BuildGraphA(ag::Tape* t) {
  const Matrix p = RandomMat(5, 3, 40, 0.5);
  const Matrix q = RandomMat(6, 3, 41, 0.5);
  const Matrix w1 = RandomMat(9, 4, 42, 0.5);
  const Matrix labels{{1}, {0}, {1}, {0}};
  const Matrix weights{{0.5}, {0.0}, {2.0}, {0.25}};
  GraphA g;
  ag::Var vp = t->Leaf(p), vq = t->Leaf(q), vw = t->Leaf(w1);
  ag::Var pu = ag::GatherRows(vp, {0, 4, 4, 2});
  ag::Var qi = ag::GatherRows(vq, {5, 1, 0, 1});
  ag::Var hidden = ag::Relu(ag::MatMul(ag::PairFeatures(pu, qi), vw));
  ag::Var logits = ag::RowwiseDot(hidden, hidden);
  ag::Var rating = ag::SigmoidSquaredErrorSum(ag::RowwiseDot(pu, qi),
                                             labels, weights);
  ag::Var bce = ag::SigmoidBceSum(logits, labels, weights);
  ag::Var reg = ag::GramFrobeniusSq(vp, vq);
  g.loss = ag::Add(ag::Add(rating, bce), ag::Scale(reg, 1e-2));
  g.nodes = {vp, vq, vw, pu, qi, hidden, logits, rating, bce, reg, g.loss};
  return g;
}

TEST(TapeWorkspaceTest, ResetAndRebuildMatchesFreshTape) {
  ag::Tape fresh;
  const GraphA expected = BuildGraphA(&fresh);
  fresh.Backward(expected.loss);

  ag::Tape reused;
  GraphA first = BuildGraphA(&reused);
  reused.Backward(first.loss);
  reused.Reset();
  // Graph B: other shapes at the same node indices, larger and smaller.
  ag::Var big = reused.Leaf(RandomMat(40, 7, 43));
  ag::Var small = ag::Sum(ag::Square(ag::Transpose(big)));
  ag::Var scaled = ag::Scale(ag::Exp(ag::Scale(small, 1e-3)), 2.0);
  reused.Backward(ag::Add(scaled, ag::FrobeniusSq(big)));
  reused.Reset();
  const GraphA again = BuildGraphA(&reused);
  reused.Backward(again.loss);

  ASSERT_EQ(reused.num_nodes(), fresh.num_nodes());
  for (size_t i = 0; i < expected.nodes.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectBitEqual(again.nodes[i].value(), expected.nodes[i].value());
    ExpectBitEqual(again.nodes[i].grad(), expected.nodes[i].grad());
  }
}

TEST(TapeWorkspaceTest, ResetKeepsNodeBuffers) {
  ag::Tape tape;
  ag::Var a = tape.Leaf(RandomMat(8, 8, 44));
  tape.Backward(ag::Sum(ag::Square(a)));
  const double* value_buffer = a.value().data();
  tape.Reset();
  ag::Var b = tape.Leaf(RandomMat(4, 4, 45));  // smaller: fits in place
  EXPECT_EQ(b.id(), a.id());
  EXPECT_EQ(b.value().data(), value_buffer);
  ExpectBitEqual(b.grad(), Matrix(4, 4));  // zeroed, not stale
}

TEST(TapeDeathTest, VarKeptAcrossResetDies) {
  ag::Tape tape;
  ag::Var stale = tape.Leaf(Matrix{{1.0}});
  tape.Reset();
  ag::Var live = tape.Leaf(Matrix{{2.0}});  // reuses index 0
  ASSERT_EQ(live.id(), stale.id());
  EXPECT_DEATH((void)tape.ValueOf(stale), "after its tape was Reset");
  EXPECT_DEATH((void)tape.GradOf(stale), "after its tape was Reset");
  EXPECT_DEATH((void)stale.value(), "after its tape was Reset");
  EXPECT_DEATH((void)ag::Scale(stale, 2.0), "after its tape was Reset");
  EXPECT_DEATH((void)ag::Add(live, stale), "after its tape was Reset");
}

// ------------------------------------------------------------- fused ops

/// Inputs of the fused-op fixtures: negative logits, zero weights.
struct FusedFixture {
  Matrix a = RandomMat(5, 3, 50);
  Matrix b = RandomMat(5, 3, 51);
  Matrix logits{{-2.5}, {0.0}, {1.25}, {-0.75}, {3.0}};
  Matrix labels{{1}, {0}, {0}, {1}, {1}};
  Matrix labels2{{0}, {0}, {1}, {1}, {0}};
  Matrix weights{{0.4}, {0.0}, {1.5}, {0.0}, {0.2}};
  Matrix weights2{{0.0}, {0.3}, {0.0}, {2.0}, {0.1}};
  Matrix head = RandomMat(5, 9, 52);  // weights on the 5×9 features
};

/// The chain PairFeatures replaces, built in the order the fused rule
/// mirrors: HConcat first, then Mul, then the outer HConcat.
ag::Var UnfusedPairFeatures(ag::Var a, ag::Var b) {
  ag::Var pair = ag::HConcat(a, b);
  ag::Var product = ag::Mul(a, b);
  return ag::HConcat(pair, product);
}

/// The chain SigmoidSquaredErrorSum replaces.
ag::Var UnfusedSquaredError(ag::Tape* t, ag::Var logits, const Matrix& y,
                            const Matrix& w) {
  ag::Var probs = ag::Sigmoid(logits);
  ag::Var residual = ag::Sub(t->Constant(y), probs);
  return ag::WeightedSumElems(ag::Square(residual), w);
}

TEST(FusedOpTest, PairFeaturesBitMatchesUnfusedChain) {
  const FusedFixture f;
  for (bool same_operand : {false, true}) {
    SCOPED_TRACE(same_operand);
    auto build = [&](ag::Tape* t, bool fused, ag::Var* a, ag::Var* b) {
      *a = t->Leaf(f.a);
      *b = same_operand ? *a : t->Leaf(f.b);
      ag::Var features =
          fused ? ag::PairFeatures(*a, *b) : UnfusedPairFeatures(*a, *b);
      // A later use of `a` adds into its gradient before the features do.
      ag::Var extra = ag::FrobeniusSq(ag::Scale(*a, 0.3));
      return std::make_pair(features,
                            ag::Add(ag::WeightedSumElems(
                                        ag::Square(features), f.head),
                                    extra));
    };
    ag::Tape fused_tape, chain_tape;
    ag::Var fa, fb, ca, cb;
    auto [fused, fused_loss] = build(&fused_tape, true, &fa, &fb);
    auto [chain, chain_loss] = build(&chain_tape, false, &ca, &cb);
    fused_tape.Backward(fused_loss);
    chain_tape.Backward(chain_loss);
    ExpectBitEqual(fused.value(), chain.value());
    ExpectBitEqual(fused_loss.value(), chain_loss.value());
    ExpectBitEqual(fa.grad(), ca.grad());
    ExpectBitEqual(fb.grad(), cb.grad());
  }
}

TEST(FusedOpTest, SigmoidSquaredErrorSumBitMatchesUnfusedChain) {
  const FusedFixture f;
  auto build = [&](ag::Tape* t, bool fused, ag::Var* logits) {
    *logits = t->Leaf(f.logits);
    // The logits feed two losses, as DIB's unbiased logits do.
    ag::Var first = fused ? ag::SigmoidSquaredErrorSum(*logits, f.labels,
                                                       f.weights)
                          : UnfusedSquaredError(t, *logits, f.labels,
                                                f.weights);
    ag::Var second = fused ? ag::SigmoidSquaredErrorSum(*logits, f.labels2,
                                                        f.weights2)
                           : UnfusedSquaredError(t, *logits, f.labels2,
                                                 f.weights2);
    return ag::Add(first, ag::Scale(second, -0.7));
  };
  ag::Tape fused_tape, chain_tape;
  ag::Var fused_logits, chain_logits;
  ag::Var fused_loss = build(&fused_tape, true, &fused_logits);
  ag::Var chain_loss = build(&chain_tape, false, &chain_logits);
  fused_tape.Backward(fused_loss);
  chain_tape.Backward(chain_loss);
  ExpectBitEqual(fused_loss.value(), chain_loss.value());
  ExpectBitEqual(fused_logits.grad(), chain_logits.grad());
}

TEST(GradCheckTest, PairFeatures) {
  const Matrix head = FusedFixture().head;
  CheckGradients(
      [head](ag::Tape* t, std::vector<ag::Var>* leaves,
             const std::vector<Matrix>& p) {
        leaves->push_back(t->Leaf(p[0]));
        leaves->push_back(t->Leaf(p[1]));
        ag::Var features = ag::PairFeatures((*leaves)[0], (*leaves)[1]);
        return ag::WeightedSumElems(ag::Square(features), head);
      },
      {FusedFixture().a, FusedFixture().b});
}

TEST(GradCheckTest, PairFeaturesSameOperand) {
  const Matrix head = FusedFixture().head;
  CheckGradients(
      [head](ag::Tape* t, std::vector<ag::Var>* leaves,
             const std::vector<Matrix>& p) {
        leaves->push_back(t->Leaf(p[0]));
        ag::Var features = ag::PairFeatures((*leaves)[0], (*leaves)[0]);
        return ag::WeightedSumElems(features, head);
      },
      {FusedFixture().a});
}

TEST(GradCheckTest, SigmoidSquaredErrorSum) {
  const FusedFixture f;
  CheckGradients(
      [f](ag::Tape* t, std::vector<ag::Var>* leaves,
          const std::vector<Matrix>& p) {
        leaves->push_back(t->Leaf(p[0]));
        return ag::Add(
            ag::SigmoidSquaredErrorSum((*leaves)[0], f.labels, f.weights),
            ag::SigmoidSquaredErrorSum((*leaves)[0], f.labels2,
                                       f.weights2));
      },
      {f.logits});
}

TEST(NumericalGradientTest, QuadraticExact) {
  Matrix x{{2.0, -1.0}};
  auto f = [&]() { return x(0, 0) * x(0, 0) + 3.0 * x(0, 1); };
  Matrix g = ag::NumericalGradient(f, &x);
  EXPECT_NEAR(g(0, 0), 4.0, 1e-6);
  EXPECT_NEAR(g(0, 1), 3.0, 1e-6);
  // x restored after probing.
  EXPECT_DOUBLE_EQ(x(0, 0), 2.0);
}

}  // namespace
}  // namespace dtrec
