#include "autograd/ops.h"

#include <cmath>

#include "tensor/ops.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/numeric_guard.h"

namespace dtrec::ag {
namespace {

Tape* CheckSameTape(Var a, Var b) {
  DTREC_CHECK(a.valid() && b.valid());
  DTREC_CHECK(a.tape() == b.tape()) << "operands on different tapes";
  return a.tape();
}

void CheckSameShape(const Matrix& a, const Matrix& b) {
  DTREC_CHECK_EQ(a.rows(), b.rows());
  DTREC_CHECK_EQ(a.cols(), b.cols());
}

/// Makes a unary node shaped like `a`.
Var Unary(Op op, Var a) {
  DTREC_CHECK(a.valid());
  const Matrix& in = a.value();
  return a.tape()->AddNode(op, in.rows(), in.cols(), a);
}

/// Makes a 1×1 node over `a` holding `value`.
Var Scalar(Op op, Var a, double value) {
  DTREC_CHECK(a.valid());
  const Var out = a.tape()->AddNode(op, 1, 1, a);
  a.tape()->MutableNode(out).value(0, 0) = value;
  return out;
}

Matrix& ValueOfNew(Var out) { return out.tape()->MutableNode(out).value; }

}  // namespace

// Every forward rule below writes its value into the node's retained
// buffer, and every backward rule adds into retained parent gradients.
// Shapes are checked once per call; loops then run over raw pointers.
// Each element's arithmetic — including the `0.0 + x` a zero-initialized
// intermediate gradient contributes in the fused ops — is the same as the
// unfused chain it replaces, and every reduction keeps its sequential
// order, so results are bit-identical to evaluating op by op.

Var Add(Var a, Var b) {
  Tape* tape = CheckSameTape(a, b);
  CheckSameShape(a.value(), b.value());
  const Var out = tape->AddNode(Op::kAdd, a.value().rows(), a.value().cols(),
                                a, b);
  dtrec::Add(a.value(), b.value(), &ValueOfNew(out));
  return out;
}

Var Sub(Var a, Var b) {
  Tape* tape = CheckSameTape(a, b);
  CheckSameShape(a.value(), b.value());
  const Var out = tape->AddNode(Op::kSub, a.value().rows(), a.value().cols(),
                                a, b);
  dtrec::Sub(a.value(), b.value(), &ValueOfNew(out));
  return out;
}

Var Mul(Var a, Var b) {
  Tape* tape = CheckSameTape(a, b);
  CheckSameShape(a.value(), b.value());
  const Var out = tape->AddNode(Op::kMul, a.value().rows(), a.value().cols(),
                                a, b);
  Hadamard(a.value(), b.value(), &ValueOfNew(out));
  return out;
}

Var Div(Var a, Var b) {
  Tape* tape = CheckSameTape(a, b);
  CheckSameShape(a.value(), b.value());
  const Var out = tape->AddNode(Op::kDiv, a.value().rows(), a.value().cols(),
                                a, b);
  Divide(a.value(), b.value(), &ValueOfNew(out));
  DTREC_ASSERT_FINITE(out.value(), "ag::Div");
  return out;
}

Var DivScalar(Var a, Var s) {
  Tape* tape = CheckSameTape(a, s);
  DTREC_CHECK_EQ(s.value().rows(), 1u);
  DTREC_CHECK_EQ(s.value().cols(), 1u);
  const Var out = tape->AddNode(Op::kDivScalar, a.value().rows(),
                                a.value().cols(), a, s);
  dtrec::Scale(a.value(), 1.0 / s.value()(0, 0), &ValueOfNew(out));
  DTREC_ASSERT_FINITE(out.value(), "ag::DivScalar");
  return out;
}

Var MatMul(Var a, Var b) {
  Tape* tape = CheckSameTape(a, b);
  const Var out = tape->AddNode(Op::kMatMul, a.value().rows(),
                                b.value().cols(), a, b);
  dtrec::MatMul(a.value(), b.value(), &ValueOfNew(out));
  return out;
}

Var Transpose(Var a) {
  DTREC_CHECK(a.valid());
  const Var out =
      a.tape()->AddNode(Op::kTranspose, a.value().cols(), a.value().rows(), a);
  a.value().TransposeInto(&ValueOfNew(out));
  return out;
}

Var Scale(Var a, double alpha) {
  const Var out = Unary(Op::kScale, a);
  a.tape()->MutableNode(out).scalar = alpha;
  dtrec::Scale(a.value(), alpha, &ValueOfNew(out));
  return out;
}

Var AddScalar(Var a, double alpha) {
  const Var out = Unary(Op::kAddScalar, a);
  const double* x = a.value().data();
  double* z = ValueOfNew(out).data();
  const size_t n = a.value().size();
  for (size_t i = 0; i < n; ++i) z[i] = x[i] + alpha;
  return out;
}

Var Sigmoid(Var a) {
  const Var out = Unary(Op::kSigmoid, a);
  SigmoidMat(a.value(), &ValueOfNew(out));
  return out;
}

namespace {

/// out = f(in) element-wise into the node made for `a`.
template <typename F>
Var MapNode(Op op, Var a, F f, const char* name) {
  const Var out = Unary(op, a);
  const double* x = a.value().data();
  double* z = ValueOfNew(out).data();
  const size_t n = a.value().size();
  for (size_t i = 0; i < n; ++i) z[i] = f(x[i]);
  DTREC_ASSERT_FINITE(out.value(), name);
  return out;
}

}  // namespace

Var Exp(Var a) {
  return MapNode(Op::kExp, a, [](double x) { return std::exp(x); },
                 "ag::Exp");
}

Var Log(Var a) {
  return MapNode(Op::kLog, a, [](double x) { return std::log(x); },
                 "ag::Log");
}

Var Square(Var a) {
  return MapNode(Op::kSquare, a, [](double x) { return x * x; },
                 "ag::Square");
}

Var Relu(Var a) {
  return MapNode(Op::kRelu, a, [](double x) { return x > 0.0 ? x : 0.0; },
                 "ag::Relu");
}

Var Sum(Var a) { return Scalar(Op::kSum, a, a.value().Sum()); }

Var Mean(Var a) {
  DTREC_CHECK(a.valid());
  const double n = static_cast<double>(a.value().size());
  DTREC_CHECK_GT(n, 0.0);
  return Scale(Sum(a), 1.0 / n);
}

Var FrobeniusSq(Var a) {
  return Scalar(Op::kFrobeniusSq, a, a.value().FrobeniusNormSquared());
}

Var GatherRows(Var a, const std::vector<size_t>& rows) {
  DTREC_CHECK(a.valid());
  const Var out =
      a.tape()->AddNode(Op::kGatherRows, rows.size(), a.value().cols(), a);
  Tape::Node& node = a.tape()->MutableNode(out);
  node.indices.assign(rows.begin(), rows.end());
  dtrec::GatherRows(a.value(), rows, &node.value);
  return out;
}

Var HConcat(Var a, Var b) {
  Tape* tape = CheckSameTape(a, b);
  DTREC_CHECK_EQ(a.value().rows(), b.value().rows());
  const Var out = tape->AddNode(Op::kHConcat, a.value().rows(),
                                a.value().cols() + b.value().cols(), a, b);
  dtrec::HConcat(a.value(), b.value(), &ValueOfNew(out));
  return out;
}

Var PairFeatures(Var a, Var b) {
  Tape* tape = CheckSameTape(a, b);
  CheckSameShape(a.value(), b.value());
  const size_t rows = a.value().rows(), k = a.value().cols();
  const Var out = tape->AddNode(Op::kPairFeatures, rows, 3 * k, a, b);
  const double* x = a.value().data();
  const double* y = b.value().data();
  double* z = ValueOfNew(out).data();
  for (size_t r = 0; r < rows; ++r) {
    const double* xr = x + r * k;
    const double* yr = y + r * k;
    double* zr = z + r * 3 * k;
    for (size_t c = 0; c < k; ++c) zr[c] = xr[c];
    for (size_t c = 0; c < k; ++c) zr[k + c] = yr[c];
    for (size_t c = 0; c < k; ++c) zr[2 * k + c] = xr[c] * yr[c];
  }
  DTREC_ASSERT_FINITE(out.value(), "ag::PairFeatures");
  return out;
}

Var RowwiseDot(Var a, Var b) {
  Tape* tape = CheckSameTape(a, b);
  CheckSameShape(a.value(), b.value());
  const Var out =
      tape->AddNode(Op::kRowwiseDot, a.value().rows(), 1, a, b);
  // Batched kernel with one whole-matrix finiteness check, instead of a
  // per-row RowDot each carrying its own guard.
  dtrec::RowwiseDot(a.value(), b.value(), &ValueOfNew(out));
  return out;
}

Var MulConst(Var a, const Matrix& m) {
  DTREC_CHECK(a.valid());
  CheckSameShape(a.value(), m);
  const Var out = Unary(Op::kMulConst, a);
  Tape::Node& node = a.tape()->MutableNode(out);
  node.operand[0] = m;
  Hadamard(a.value(), m, &node.value);
  return out;
}

Var WeightedSumElems(Var a, const Matrix& w) {
  DTREC_CHECK(a.valid());
  CheckSameShape(a.value(), w);
  const Var out = Scalar(Op::kWeightedSumElems, a, FlatDot(a.value(), w));
  a.tape()->MutableNode(out).operand[0] = w;
  return out;
}

Var Detach(Var a) {
  DTREC_CHECK(a.valid());
  return a.tape()->Constant(a.value());
}

Var AddRowBroadcast(Var a, Var row) {
  Tape* tape = CheckSameTape(a, row);
  DTREC_CHECK_EQ(row.value().rows(), 1u);
  DTREC_CHECK_EQ(row.value().cols(), a.value().cols());
  const size_t rows = a.value().rows(), cols = a.value().cols();
  const Var out = tape->AddNode(Op::kAddRowBroadcast, rows, cols, a, row);
  const double* x = a.value().data();
  const double* bias = row.value().data();
  double* z = ValueOfNew(out).data();
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) z[r * cols + c] = x[r * cols + c] + bias[c];
  }
  return out;
}

Var GramFrobeniusSq(Var a, Var b) {
  Tape* tape = CheckSameTape(a, b);
  DTREC_CHECK_EQ(a.value().cols(), b.value().cols());
  const Var out = tape->AddNode(Op::kGramFrobeniusSq, 1, 1, a, b);
  Tape::Node& node = tape->MutableNode(out);
  Matrix& gram_a = node.operand[0];  // C×C
  Matrix& gram_b = node.operand[1];  // C×C
  MatMulTransA(a.value(), a.value(), &gram_a);
  MatMulTransA(b.value(), b.value(), &gram_b);
  const size_t c = gram_a.rows();
  const double* ga = gram_a.data();
  const double* gb = gram_b.data();
  double trace = 0.0;
  for (size_t i = 0; i < c; ++i) {
    for (size_t j = 0; j < c; ++j) trace += ga[i * c + j] * gb[j * c + i];
  }
  node.value(0, 0) = trace;
  return out;
}

Var SigmoidBceSum(Var logits, const Matrix& targets, const Matrix& weights) {
  DTREC_CHECK(logits.valid());
  CheckSameShape(logits.value(), targets);
  CheckSameShape(logits.value(), weights);
  const double* l = logits.value().data();
  const double* y = targets.data();
  const double* w = weights.data();
  const size_t n = logits.value().size();
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += w[i] * (dtrec::Log1pExp(l[i]) - y[i] * l[i]);
  }
  const Var out = Scalar(Op::kSigmoidBceSum, logits, total);
  Tape::Node& node = logits.tape()->MutableNode(out);
  node.operand[0] = targets;
  node.operand[1] = weights;
  return out;
}

Var SigmoidSquaredErrorSum(Var logits, const Matrix& labels,
                           const Matrix& weights) {
  DTREC_CHECK(logits.valid());
  CheckSameShape(logits.value(), labels);
  CheckSameShape(logits.value(), weights);
  const double* l = logits.value().data();
  const double* y = labels.data();
  const double* w = weights.data();
  const size_t n = logits.value().size();
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double r = y[i] - dtrec::Sigmoid(l[i]);
    total += (r * r) * w[i];
  }
  DTREC_ASSERT_FINITE_VAL(total, "ag::SigmoidSquaredErrorSum");
  const Var out = Scalar(Op::kSigmoidSquaredErrorSum, logits, total);
  Tape::Node& node = logits.tape()->MutableNode(out);
  node.operand[0] = labels;
  node.operand[1] = weights;
  return out;
}

namespace internal {
namespace {

/// a's grad[i] += f(i) over every element: most unary backward rules.
template <typename F>
void AccumulateElems(const Tape::Node& node, Tape::Node* a, F f) {
  CheckSameShape(a->grad, node.grad);
  double* ga = a->grad.data();
  const size_t n = node.grad.size();
  for (size_t i = 0; i < n; ++i) ga[i] += f(i);
}

}  // namespace

void Backprop(const Tape::Node& node, Tape::Node* a, Tape::Node* b,
              Matrix* scratch) {
  const Matrix& grad = node.grad;
  const double* g = grad.data();
  const size_t n = grad.size();
  switch (node.op) {
    case Op::kLeaf:
    case Op::kConstant:
      return;
    case Op::kAdd:
      AddScaledInPlace(&a->grad, grad, 1.0);
      AddScaledInPlace(&b->grad, grad, 1.0);
      return;
    case Op::kSub:
      AddScaledInPlace(&a->grad, grad, 1.0);
      AddScaledInPlace(&b->grad, grad, -1.0);
      return;
    case Op::kMul: {
      CheckSameShape(a->grad, grad);
      CheckSameShape(b->grad, grad);
      // a and b may be one node: no restrict, and per element the a-term
      // is added before the b-term, as the unfused loop did.
      double* ga = a->grad.data();
      double* gb = b->grad.data();
      const double* va = a->value.data();
      const double* vb = b->value.data();
      for (size_t i = 0; i < n; ++i) {
        ga[i] += g[i] * vb[i];
        gb[i] += g[i] * va[i];
      }
      return;
    }
    case Op::kDiv: {
      CheckSameShape(a->grad, grad);
      CheckSameShape(b->grad, grad);
      const double* out = node.value.data();  // a/b
      double* ga = a->grad.data();
      double* gb = b->grad.data();
      const double* vb = b->value.data();
      for (size_t i = 0; i < n; ++i) {
        const double inv_b = 1.0 / vb[i];
        ga[i] += g[i] * inv_b;
        gb[i] -= g[i] * out[i] * inv_b;
      }
      return;
    }
    case Op::kDivScalar: {
      const double* out = node.value.data();  // a/s
      const double sv = b->value(0, 0);
      double gs_accum = 0.0;
      CheckSameShape(a->grad, grad);
      double* ga = a->grad.data();
      for (size_t i = 0; i < n; ++i) {
        ga[i] += g[i] / sv;
        gs_accum -= g[i] * out[i] / sv;
      }
      b->grad(0, 0) += gs_accum;
      return;
    }
    case Op::kMatMul:
      // dA = g·Bᵀ ; dB = Aᵀ·g
      MatMulTransB(grad, b->value, scratch);
      AddScaledInPlace(&a->grad, *scratch, 1.0);
      MatMulTransA(a->value, grad, scratch);
      AddScaledInPlace(&b->grad, *scratch, 1.0);
      return;
    case Op::kTranspose:
      grad.TransposeInto(scratch);
      AddScaledInPlace(&a->grad, *scratch, 1.0);
      return;
    case Op::kScale:
      AddScaledInPlace(&a->grad, grad, node.scalar);
      return;
    case Op::kAddScalar:
      AddScaledInPlace(&a->grad, grad, 1.0);
      return;
    case Op::kSigmoid: {
      const double* s = node.value.data();
      AccumulateElems(node, a, [&](size_t i) {
        return g[i] * s[i] * (1.0 - s[i]);
      });
      return;
    }
    case Op::kExp: {
      const double* out = node.value.data();
      AccumulateElems(node, a, [&](size_t i) { return g[i] * out[i]; });
      return;
    }
    case Op::kLog: {
      const double* in = a->value.data();
      AccumulateElems(node, a, [&](size_t i) { return g[i] / in[i]; });
      return;
    }
    case Op::kSquare: {
      const double* in = a->value.data();
      AccumulateElems(node, a,
                      [&](size_t i) { return 2.0 * g[i] * in[i]; });
      return;
    }
    case Op::kRelu: {
      const double* in = a->value.data();
      CheckSameShape(a->grad, grad);
      double* ga = a->grad.data();
      for (size_t i = 0; i < n; ++i) {
        if (in[i] > 0.0) ga[i] += g[i];
      }
      return;
    }
    case Op::kSum: {
      const double g0 = g[0];
      double* ga = a->grad.data();
      const size_t m = a->grad.size();
      for (size_t i = 0; i < m; ++i) ga[i] += g0;
      return;
    }
    case Op::kFrobeniusSq: {
      const double g0 = g[0];
      const double* in = a->value.data();
      double* ga = a->grad.data();
      const size_t m = a->grad.size();
      for (size_t i = 0; i < m; ++i) ga[i] += 2.0 * g0 * in[i];
      return;
    }
    case Op::kGatherRows:
      ScatterAddRows(&a->grad, node.indices, grad);
      return;
    case Op::kHConcat: {
      const size_t rows = grad.rows(), cols = grad.cols();
      const size_t a_cols = a->grad.cols(), b_cols = b->grad.cols();
      DTREC_CHECK_EQ(a_cols + b_cols, cols);
      DTREC_CHECK_EQ(a->grad.rows(), rows);
      DTREC_CHECK_EQ(b->grad.rows(), rows);
      double* ga = a->grad.data();
      double* gb = b->grad.data();
      for (size_t r = 0; r < rows; ++r) {
        const double* grow = g + r * cols;
        double* garow = ga + r * a_cols;
        double* gbrow = gb + r * b_cols;
        for (size_t c = 0; c < a_cols; ++c) garow[c] += grow[c];
        for (size_t c = 0; c < b_cols; ++c) gbrow[c] += grow[a_cols + c];
      }
      return;
    }
    case Op::kPairFeatures: {
      // Replaces HConcat(HConcat(a, b), Mul(a, b)). Unfused, the reverse
      // sweep ran the Mul rule on its zero-initialized gradient 0.0 + g_m,
      // then the inner HConcat rule added 0.0 + g_a and 0.0 + g_b; per
      // element that order is kept here, so a == b accumulates alike.
      const size_t rows = a->grad.rows(), k = a->grad.cols();
      CheckSameShape(a->grad, b->grad);
      DTREC_CHECK_EQ(grad.rows(), rows);
      DTREC_CHECK_EQ(grad.cols(), 3 * k);
      double* ga = a->grad.data();
      double* gb = b->grad.data();
      const double* va = a->value.data();
      const double* vb = b->value.data();
      for (size_t r = 0; r < rows; ++r) {
        const double* grow = g + r * 3 * k;
        const size_t base = r * k;
        for (size_t c = 0; c < k; ++c) {
          const double gm = 0.0 + grow[2 * k + c];
          ga[base + c] += gm * vb[base + c];
          gb[base + c] += gm * va[base + c];
          ga[base + c] += 0.0 + grow[c];
          gb[base + c] += 0.0 + grow[k + c];
        }
      }
      return;
    }
    case Op::kRowwiseDot: {
      const Matrix& va = a->value;
      const Matrix& vb = b->value;
      const size_t rows = va.rows(), k = va.cols();
      CheckSameShape(a->grad, va);
      CheckSameShape(b->grad, vb);
      DTREC_CHECK_EQ(n, rows);
      double* ga = a->grad.data();
      double* gb = b->grad.data();
      for (size_t r = 0; r < rows; ++r) {
        const double gr = g[r];
        const double* arow = va.data() + r * k;
        const double* brow = vb.data() + r * k;
        double* garow = ga + r * k;
        double* gbrow = gb + r * k;
        for (size_t c = 0; c < k; ++c) {
          garow[c] += gr * brow[c];
          gbrow[c] += gr * arow[c];
        }
      }
      return;
    }
    case Op::kMulConst: {
      const double* m = node.operand[0].data();
      AccumulateElems(node, a, [&](size_t i) { return g[i] * m[i]; });
      return;
    }
    case Op::kWeightedSumElems: {
      const double g0 = g[0];
      const double* w = node.operand[0].data();
      double* ga = a->grad.data();
      const size_t m = a->grad.size();
      for (size_t i = 0; i < m; ++i) ga[i] += g0 * w[i];
      return;
    }
    case Op::kAddRowBroadcast: {
      AddScaledInPlace(&a->grad, grad, 1.0);
      const size_t rows = grad.rows(), cols = grad.cols();
      DTREC_CHECK_EQ(b->grad.cols(), cols);
      double* brow = b->grad.data();
      for (size_t r = 0; r < rows; ++r) {
        const double* grow = g + r * cols;
        for (size_t c = 0; c < cols; ++c) brow[c] += grow[c];
      }
      return;
    }
    case Op::kGramFrobeniusSq: {
      const double g0 = g[0];
      dtrec::MatMul(a->value, node.operand[1], scratch);  // A·(BᵀB)
      AddScaledInPlace(&a->grad, *scratch, 2.0 * g0);
      dtrec::MatMul(b->value, node.operand[0], scratch);  // B·(AᵀA)
      AddScaledInPlace(&b->grad, *scratch, 2.0 * g0);
      return;
    }
    case Op::kSigmoidBceSum: {
      const double g0 = g[0];
      const double* l = a->value.data();
      const double* y = node.operand[0].data();
      const double* w = node.operand[1].data();
      double* gl = a->grad.data();
      const size_t m = a->grad.size();
      for (size_t i = 0; i < m; ++i) {
        gl[i] += g0 * w[i] * (dtrec::Sigmoid(l[i]) - y[i]);
      }
      return;
    }
    case Op::kSigmoidSquaredErrorSum: {
      // Replaces WeightedSumElems(Square(Sub(Constant(y), Sigmoid(l))), w):
      // each zero-initialized intermediate gradient contributes 0.0 + x,
      // and Sub passed −1.0·g to its second operand.
      const double g0 = g[0];
      const double* l = a->value.data();
      const double* y = node.operand[0].data();
      const double* w = node.operand[1].data();
      double* gl = a->grad.data();
      const size_t m = a->grad.size();
      for (size_t i = 0; i < m; ++i) {
        const double s = dtrec::Sigmoid(l[i]);
        const double r = y[i] - s;
        const double g_e = 0.0 + g0 * w[i];
        const double g_r = 0.0 + 2.0 * g_e * r;
        const double g_s = 0.0 + -1.0 * g_r;
        gl[i] += g_s * s * (1.0 - s);
      }
      return;
    }
  }
}

}  // namespace internal
}  // namespace dtrec::ag
