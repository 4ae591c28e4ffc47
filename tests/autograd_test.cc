#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "autograd/tape.h"
#include "tensor/ops.h"
#include "util/math_util.h"
#include "util/numeric_guard.h"
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

/// A propensity-head-shaped graph (gather, pair features, two matmuls,
/// ReLU, BCE and rating losses, Gram reg) whose batch size sets the shape
/// of every node after the leaves, so two batch sizes put different
/// shapes at the same node indices.
GraphA BuildHeadGraph(ag::Tape* t, size_t batch) {
  std::vector<size_t> users(batch), items(batch);
  Matrix labels(batch, 1), weights(batch, 1);
  for (size_t i = 0; i < batch; ++i) {
    users[i] = (5 * i + 1) % 7;
    items[i] = (3 * i) % 9;
    labels(i, 0) = static_cast<double>(i % 2);
    weights(i, 0) = 0.5 * static_cast<double>(i % 3);
  }
  GraphA g;
  ag::Var vp = t->Leaf(RandomMat(7, 4, 60, 0.5));
  ag::Var vq = t->Leaf(RandomMat(9, 4, 61, 0.5));
  ag::Var vw1 = t->Leaf(RandomMat(12, 5, 62, 0.5));
  ag::Var vw2 = t->Leaf(RandomMat(5, 1, 63, 0.5));
  ag::Var pu = ag::GatherRows(vp, users);
  ag::Var qi = ag::GatherRows(vq, items);
  ag::Var hidden = ag::Relu(ag::MatMul(ag::PairFeatures(pu, qi), vw1));
  ag::Var logits = ag::MatMul(hidden, vw2);
  ag::Var bce = ag::SigmoidBceSum(logits, labels, weights);
  ag::Var rating = ag::SigmoidSquaredErrorSum(ag::RowwiseDot(pu, qi),
                                             labels, weights);
  ag::Var reg = ag::GramFrobeniusSq(vp, vq);
  g.loss = ag::Add(ag::Add(bce, rating), ag::Scale(reg, 1e-2));
  g.nodes = {vp, vq, vw1, vw2, pu, qi, hidden, logits, bce, rating, reg,
             g.loss};
  return g;
}

TEST(TapeWorkspaceTest, AlternatingGraphsOverStaleNaNMatchFreshTapes) {
  // DT-DR's pattern: one tape alternates the prediction graph and a larger
  // imputation graph at the same node indices. Buffers keep what the last
  // graph left (grown entries are not even zero-filled), so every op must
  // write all of its value. A first graph leaves NaN in every value buffer
  // at the largest shape; any entry an op leaves unwritten then shows.
  constexpr size_t kSmall = 6, kLarge = 40;
  ag::Tape fresh_small, fresh_large;
  const GraphA small = BuildHeadGraph(&fresh_small, kSmall);
  fresh_small.Backward(small.loss);
  const GraphA large = BuildHeadGraph(&fresh_large, kLarge);
  fresh_large.Backward(large.loss);

  ag::Tape reused;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t i = 0; i < fresh_large.num_nodes(); ++i) {
    (void)reused.Leaf(Matrix(3 * kLarge, 12, nan));
  }
  for (int round = 0; round < 3; ++round) {
    for (const bool use_large : {false, true}) {
      SCOPED_TRACE(testing::Message() << "round " << round << " large "
                                      << use_large);
      reused.Reset();
      const GraphA& want = use_large ? large : small;
      const GraphA got = BuildHeadGraph(&reused, use_large ? kLarge : kSmall);
      reused.Backward(got.loss);
      ASSERT_EQ(reused.num_nodes(), use_large ? fresh_large.num_nodes()
                                              : fresh_small.num_nodes());
      for (size_t i = 0; i < want.nodes.size(); ++i) {
        SCOPED_TRACE(i);
        ExpectBitEqual(got.nodes[i].value(), want.nodes[i].value());
        ExpectBitEqual(got.nodes[i].grad(), want.nodes[i].grad());
      }
    }
  }
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

TEST(FusedOpTest, ReluMaskFormsMatchBranchyRule) {
  // ReLU selects through a bit mask instead of branching. Forward must
  // give the bits of `x > 0.0 ? x : 0.0` and backward those of
  // `if (x > 0.0) ga += g`, over signed zeros, NaN, infinities,
  // subnormals and ±1 — including a parent gradient that already holds
  // −0.0, which an unselected element must keep.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double sub = std::numeric_limits<double>::denorm_min();
  std::vector<double> xs = {-0.0, 0.0, nan, -inf, sub, -sub, 1.0, -1.0};
  // ReLU(+inf) = +inf, which the forward's finiteness guard rejects.
  if (!kNumericChecksEnabled) xs.push_back(inf);
  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  Matrix x(1, xs.size());
  for (size_t i = 0; i < xs.size(); ++i) x(0, i) = xs[i];

  ag::Tape tape;
  const ag::Var out = ag::Relu(tape.Leaf(x));
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(bits(out.value()(0, i)), bits(xs[i] > 0.0 ? xs[i] : 0.0))
        << "x = " << xs[i];
  }

  // The backward rule alone, on hand-made nodes: a gradient reaching a
  // parent through the tape starts at +0.0, so −0.0 can only be set here.
  ag::Tape::Node node, parent;
  node.op = ag::Op::kRelu;
  parent.value = x;
  Matrix scratch;
  for (const double prior : {-0.0, 0.0, 0.5, -sub}) {
    for (const double g : {-0.0, 0.0, 1.0, -1.0, sub, nan, inf}) {
      node.grad = Matrix(1, xs.size(), g);
      parent.grad = Matrix(1, xs.size(), prior);
      ag::internal::Backprop(node, &parent, nullptr, &scratch);
      for (size_t i = 0; i < xs.size(); ++i) {
        double want = prior;
        if (xs[i] > 0.0) want += g;
        EXPECT_EQ(bits(parent.grad(0, i)), bits(want))
            << "x = " << xs[i] << " g = " << g << " prior = " << prior;
      }
    }
  }
}

// ----------------------------------------------- first-write gradients

/// One term a backward rule puts into a parent entry: added, or for the
/// rules that subtract (Div's divisor), subtracted.
struct Term {
  double value;
  bool subtract = false;
};

/// One backward rule on hand-built nodes: the node, its parents' values
/// and, as the oracle, the terms the rule must put into each parent entry
/// in order — the arithmetic of accumulating into a zero-filled gradient.
struct RuleCase {
  std::string name;
  ag::Tape::Node node;
  Matrix a;
  Matrix b;              // empty for a unary rule
  bool aliased = false;  // both parents are the node holding `a`
  /// terms(p, i): parent p (0 = a, 1 = b), entry i. An aliased case asks
  /// only p = 0, for both parents' terms in the rule's order.
  std::function<std::vector<Term>(int p, size_t i)> terms;
};

/// rows×cols over {−0, +0, 1, −1, subnormal, NaN} (NaN left out when
/// `finite`): entry i takes value (i / n^digit + shift) mod n, so two
/// patterns with digits 0 and 1 meet in every pair of values.
Matrix Pattern(size_t rows, size_t cols, size_t digit, size_t shift,
               bool finite) {
  std::vector<double> vals = {-0.0, 0.0, 1.0, -1.0,
                              std::numeric_limits<double>::denorm_min()};
  if (!finite) vals.push_back(std::numeric_limits<double>::quiet_NaN());
  const size_t n = vals.size();
  const size_t step = digit == 0 ? 1 : n;
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.at_flat(i) = vals[(i / step + shift) % n];
  }
  return m;
}

ag::Tape::Node MakeNode(ag::Op op, Matrix grad, Matrix value = Matrix()) {
  ag::Tape::Node node;
  node.op = op;
  node.grad = std::move(grad);
  node.value = std::move(value);
  return node;
}

/// Every op that has a backward rule, with parents that are distinct
/// nodes and, for the binary rules where shapes allow, one node.
std::vector<RuleCase> RuleCases() {
  using ag::Op;
  // Under numeric checks the kernel products assert finite outputs.
  const bool finite_products = kNumericChecksEnabled;
  const Matrix g = Pattern(6, 6, 0, 0, false);
  const Matrix va = Pattern(6, 6, 1, 2, false);
  const Matrix vb = Pattern(6, 6, 1, 4, false);
  const Matrix z = Pattern(6, 6, 1, 1, false);  // a node value
  // The 1×1 gradients. Rules read g0 at run time, so the oracle does too:
  // a literal −1.0·x may fold to −x, which flips a NaN's sign.
  const Matrix one{{-1.0}}, zero{{-0.0}};
  std::vector<RuleCase> cases;
  const auto unary = [&](const char* name, Op op, Matrix grad, Matrix a,
                         auto terms) {
    cases.push_back({name, MakeNode(op, grad, z), a, Matrix(), false,
                     [terms](int, size_t i) { return terms(i); }});
  };
  const auto binary = [&](const char* name, Op op, Matrix grad, Matrix a,
                          Matrix b, Matrix value, auto terms_a,
                          auto terms_b) {
    cases.push_back({name, MakeNode(op, grad, value), a, b, false,
                     [terms_a, terms_b](int p, size_t i) {
                       return p == 0 ? terms_a(i) : terms_b(i);
                     }});
  };
  // An aliased copy of a two-parent rule whose a- and b-terms are
  // independent of which parent is asked: both land on one entry, a's
  // first.
  const auto aliased = [&](const char* name, Op op, Matrix grad, Matrix a,
                           Matrix value, auto terms_a, auto terms_b) {
    cases.push_back({name, MakeNode(op, grad, value), a, a, true,
                     [terms_a, terms_b](int, size_t i) {
                       std::vector<Term> t = terms_a(i);
                       for (const Term& x : terms_b(i)) t.push_back(x);
                       return t;
                     }});
  };
  using Terms = std::vector<Term>;

  // Element-wise rules: one term per entry.
  const auto add_a = [g](size_t i) { return Terms{{1.0 * g.at_flat(i)}}; };
  const auto sub_b = [g](size_t i) { return Terms{{g.at_flat(i), true}}; };
  binary("Add", Op::kAdd, g, va, vb, z, add_a, add_a);
  aliased("Add aliased", Op::kAdd, g, va, z, add_a, add_a);
  binary("Sub", Op::kSub, g, va, vb, z, add_a, sub_b);
  aliased("Sub aliased", Op::kSub, g, va, z, add_a, sub_b);
  const auto mul = [g](const Matrix& other) {
    return [g, other](size_t i) {
      return Terms{{g.at_flat(i) * other.at_flat(i)}};
    };
  };
  binary("Mul", Op::kMul, g, va, vb, z, mul(vb), mul(va));
  aliased("Mul aliased", Op::kMul, g, va, z, mul(va), mul(va));
  const auto div = [g](const Matrix& divisor, const Matrix& out) {
    return std::make_pair(
        [g, divisor](size_t i) {
          return Terms{{g.at_flat(i) * (1.0 / divisor.at_flat(i))}};
        },
        [g, divisor, out](size_t i) {
          return Terms{{g.at_flat(i) * out.at_flat(i) *
                            (1.0 / divisor.at_flat(i)),
                        true}};
        });
  };
  binary("Div", Op::kDiv, g, va, vb, z, div(vb, z).first, div(vb, z).second);
  aliased("Div aliased", Op::kDiv, g, va, z, div(va, z).first,
          div(va, z).second);
  {
    const double sv = one(0, 0);
    double gs = 0.0;
    for (size_t i = 0; i < g.size(); ++i) {
      gs -= g.at_flat(i) * z.at_flat(i) / sv;
    }
    binary("DivScalar", Op::kDivScalar, g, va, one, z,
           [g, sv](size_t i) { return Terms{{g.at_flat(i) / sv}}; },
           [gs](size_t) { return Terms{{gs}}; });
  }
  unary("Scale", Op::kScale, g, va, [g](size_t i) {
    return Terms{{-0.5 * g.at_flat(i)}};
  });
  cases.back().node.scalar = -0.5;
  unary("AddScalar", Op::kAddScalar, g, va, add_a);
  unary("Sigmoid", Op::kSigmoid, g, va, [g, z](size_t i) {
    const double s = z.at_flat(i);
    return Terms{{g.at_flat(i) * s * (1.0 - s)}};
  });
  unary("Exp", Op::kExp, g, va, mul(z));
  unary("Log", Op::kLog, g, va, [g, va](size_t i) {
    return Terms{{g.at_flat(i) / va.at_flat(i)}};
  });
  unary("Square", Op::kSquare, g, va, [g, va](size_t i) {
    return Terms{{2.0 * g.at_flat(i) * va.at_flat(i)}};
  });
  unary("Relu", Op::kRelu, g, va, [g, va](size_t i) {
    return va.at_flat(i) > 0.0 ? Terms{{g.at_flat(i)}} : Terms{};
  });
  unary("MulConst", Op::kMulConst, g, va, mul(vb));
  cases.back().node.operand[0] = vb;
  {
    // Transpose: a is 6×4, its gradient the transpose of a 4×6 g.
    const Matrix gt = Pattern(4, 6, 0, 3, false);
    unary("Transpose", Op::kTranspose, gt, Pattern(6, 4, 1, 2, false),
          [gt](size_t i) { return Terms{{1.0 * gt(i % 4, i / 4)}}; });
  }

  // Rules over a 1×1 gradient.
  unary("Sum", Op::kSum, zero, va,
        [](size_t) { return Terms{{-0.0}}; });
  unary("FrobeniusSq", Op::kFrobeniusSq, one, va, [one, va](size_t i) {
    return Terms{{2.0 * one(0, 0) * va.at_flat(i)}};
  });
  unary("WeightedSumElems", Op::kWeightedSumElems, one, va,
        [one, vb](size_t i) { return Terms{{one(0, 0) * vb.at_flat(i)}}; });
  cases.back().node.operand[0] = vb;
  unary("SigmoidBceSum", Op::kSigmoidBceSum, one, va,
        [one, va, vb, z](size_t i) {
          return Terms{{one(0, 0) * z.at_flat(i) *
                        (dtrec::Sigmoid(va.at_flat(i)) - vb.at_flat(i))}};
        });
  cases.back().node.operand[0] = vb;
  cases.back().node.operand[1] = z;
  unary("SigmoidSquaredErrorSum", Op::kSigmoidSquaredErrorSum, one, va,
        [one, va, vb, z](size_t i) {
          const double s = dtrec::Sigmoid(va.at_flat(i));
          const double r = vb.at_flat(i) - s;
          const double g_e = 0.0 + one(0, 0) * z.at_flat(i);
          const double g_r = 0.0 + 2.0 * g_e * r;
          const double g_s = 0.0 + -1.0 * g_r;
          return Terms{{g_s * s * (1.0 - s)}};
        });
  cases.back().node.operand[0] = vb;
  cases.back().node.operand[1] = z;

  // Rules that reach part of a parent, or one entry several times.
  {
    const std::vector<size_t> rows = {2, 0, 2, 5};  // rows 1, 3, 4 unseen
    const Matrix gg = Pattern(4, 6, 0, 1, false);
    unary("GatherRows", Op::kGatherRows, gg, Pattern(6, 6, 1, 2, false),
          [gg, rows](size_t i) {
            Terms t;
            for (size_t k = 0; k < rows.size(); ++k) {
              if (rows[k] == i / 6) t.push_back({gg(k, i % 6)});
            }
            return t;
          });
    cases.back().node.indices = rows;
  }
  {
    const Matrix bias = Pattern(1, 6, 1, 3, false);
    binary("AddRowBroadcast", Op::kAddRowBroadcast, g, va, bias, z, add_a,
           [g](size_t i) {
             Terms t;
             for (size_t r = 0; r < 6; ++r) t.push_back({g(r, i)});
             return t;
           });
  }
  {
    const Matrix gh = Pattern(6, 12, 0, 2, false);
    const auto part = [gh](size_t offset) {
      return [gh, offset](size_t i) {
        return Terms{{gh(i / 6, offset + i % 6)}};
      };
    };
    binary("HConcat", Op::kHConcat, gh, va, vb, z, part(0), part(6));
    aliased("HConcat aliased", Op::kHConcat, gh, va, z, part(0), part(6));
  }
  {
    const Matrix gr = Pattern(6, 1, 0, 3, false);
    const auto part = [gr](const Matrix& other) {
      return [gr, other](size_t i) {
        return Terms{{gr(i / 6, 0) * other.at_flat(i)}};
      };
    };
    binary("RowwiseDot", Op::kRowwiseDot, gr, va, vb, z, part(vb), part(va));
    aliased("RowwiseDot aliased", Op::kRowwiseDot, gr, va, z, part(va),
            part(va));
  }
  {
    // PairFeatures: each parent takes gm·(the other's value), then its
    // own block; one node takes gm·vb, gm·va, g_a, g_b.
    const Matrix gp = Pattern(6, 18, 0, 4, false);
    const auto gm = [gp](size_t i) { return 0.0 + gp(i / 6, 12 + i % 6); };
    const auto part = [gp, gm](const Matrix& other, size_t offset) {
      return [gp, gm, other, offset](size_t i) {
        return Terms{{gm(i) * other.at_flat(i)},
                     {0.0 + gp(i / 6, offset + i % 6)}};
      };
    };
    binary("PairFeatures", Op::kPairFeatures, gp, va, vb, z, part(vb, 0),
           part(va, 6));
    cases.push_back({"PairFeatures aliased", MakeNode(Op::kPairFeatures, gp),
                     va, va, true, [gp, gm, va](int, size_t i) {
                       return Terms{{gm(i) * va.at_flat(i)},
                                    {gm(i) * va.at_flat(i)},
                                    {0.0 + gp(i / 6, i % 6)},
                                    {0.0 + gp(i / 6, 6 + i % 6)}};
                     }});
  }

  // Products: the oracle's product is the kernel's own.
  {
    const Matrix gm = Pattern(6, 6, 0, 0, finite_products);
    const Matrix ma = Pattern(6, 6, 1, 2, finite_products);
    const Matrix mb = Pattern(6, 6, 1, 4, finite_products);
    const auto product = [](Matrix c) {
      return [c](size_t i) { return Terms{{1.0 * c.at_flat(i)}}; };
    };
    binary("MatMul", Op::kMatMul, gm, ma, mb, z,
           product(MatMulTransB(gm, mb)), product(MatMulTransA(ma, gm)));
    aliased("MatMul aliased", Op::kMatMul, gm, ma, z,
            product(MatMulTransB(gm, ma)), product(MatMulTransA(ma, gm)));

    const Matrix gram_a = Pattern(6, 6, 1, 1, finite_products);
    const Matrix gram_b = Pattern(6, 6, 0, 3, finite_products);
    const auto scaled = [one](Matrix c) {
      return [one, c](size_t i) {
        return Terms{{(2.0 * one(0, 0)) * c.at_flat(i)}};
      };
    };
    binary("GramFrobeniusSq", Op::kGramFrobeniusSq, one, ma, mb, Matrix(),
           scaled(dtrec::MatMul(ma, gram_b)),
           scaled(dtrec::MatMul(mb, gram_a)));
    cases.back().node.operand[0] = gram_a;
    cases.back().node.operand[1] = gram_b;
    aliased("GramFrobeniusSq aliased", Op::kGramFrobeniusSq, one, ma,
            Matrix(), scaled(dtrec::MatMul(ma, gram_b)),
            scaled(dtrec::MatMul(ma, gram_a)));
    cases.back().node.operand[0] = gram_a;
    cases.back().node.operand[1] = gram_b;
  }
  return cases;
}

TEST(FirstWriteTest, EveryRuleStoresWhatAddingIntoZeroGave) {
  // A fresh parent (NaN in its buffer, as under numeric checks) must come
  // out byte-equal to a written one that held +0.0, and both must equal
  // the oracle's 0.0 + t₁ + t₂ …; a written parent holding −0.0 or 0.5
  // must still accumulate onto it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  struct State {
    bool fresh;
    double fill;
  };
  const State states[] = {{true, nan}, {false, 0.0}, {false, -0.0},
                          {false, 0.5}};
  std::set<ag::Op> covered;
  for (const RuleCase& c : RuleCases()) {
    SCOPED_TRACE(c.name);
    covered.insert(c.node.op);
    const bool binary = c.b.size() > 0;
    std::vector<Matrix> from_fresh;
    for (const State& state : states) {
      SCOPED_TRACE(testing::Message() << "fresh " << state.fresh << " fill "
                                      << state.fill);
      ag::Tape::Node a, b;
      a.value = c.a;
      a.grad = Matrix(c.a.rows(), c.a.cols(), state.fill);
      a.grad_fresh = state.fresh;
      b.value = c.b;
      b.grad = Matrix(c.b.rows(), c.b.cols(), state.fill);
      b.grad_fresh = state.fresh;
      ag::Tape::Node* pb = c.aliased ? &a : binary ? &b : nullptr;
      Matrix scratch;
      ag::internal::Backprop(c.node, &a, pb, &scratch);

      const double prior = state.fresh ? 0.0 : state.fill;
      const int parents = binary && !c.aliased ? 2 : 1;
      for (int p = 0; p < parents; ++p) {
        const ag::Tape::Node& parent = p == 0 ? a : b;
        EXPECT_FALSE(parent.grad_fresh) << "parent " << p;
        for (size_t i = 0; i < parent.grad.size(); ++i) {
          double want = prior;
          for (const Term& t : c.terms(p, i)) {
            want = t.subtract ? want - t.value : want + t.value;
          }
          EXPECT_EQ(bits(parent.grad.at_flat(i)), bits(want))
              << "parent " << p << " entry " << i;
        }
        if (state.fresh) {
          from_fresh.push_back(parent.grad);
        } else if (state.fill == 0.0 && !std::signbit(state.fill)) {
          const Matrix& stored = from_fresh[static_cast<size_t>(p)];
          for (size_t i = 0; i < parent.grad.size(); ++i) {
            EXPECT_EQ(bits(parent.grad.at_flat(i)), bits(stored.at_flat(i)))
                << "parent " << p << " entry " << i;
          }
        }
      }
    }
  }
  for (auto op = static_cast<uint8_t>(ag::Op::kAdd);
       op <= static_cast<uint8_t>(ag::Op::kSigmoidSquaredErrorSum); ++op) {
    EXPECT_TRUE(covered.count(static_cast<ag::Op>(op)))
        << "no case for op " << int{op};
  }
}

TEST(FirstWriteDeathTest, ReadingAFreshGradientDiesUnderNumericChecks) {
  if (!kNumericChecksEnabled) {
    GTEST_SKIP() << "fresh gradients are poisoned only under numeric checks";
  }
  // Marking a node written without writing it leaves the NaN poison its
  // gradient was made with; the rule below it then reads the poison, and
  // Backward names the node it reached.
  const auto run = [] {
    ag::Tape tape;
    ag::Var x = tape.Leaf(Matrix{{1.0, 2.0}});
    ag::Var squared = ag::Square(x);
    ag::Var loss = ag::Sum(ag::Scale(squared, 2.0));
    tape.MutableNode(squared).grad_fresh = false;
    tape.Backward(loss);
  };
  EXPECT_DEATH(run(), "Tape::Backward gradient");
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
