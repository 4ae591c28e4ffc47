#ifndef DTREC_AUTOGRAD_OPS_H_
#define DTREC_AUTOGRAD_OPS_H_

#include <vector>

#include "autograd/tape.h"

namespace dtrec::ag {

// Differentiable ops over tape Vars. Each records a typed node (see
// ag::Op) whose backward rule accumulates into its parents. Shapes are
// validated eagerly. Both operands must live on the same tape. Constant
// Matrix operands are copied into the node, so the caller's matrix may
// change or die right after the call.

/// c = a + b (element-wise; shapes must match).
Var Add(Var a, Var b);

/// c = a - b.
Var Sub(Var a, Var b);

/// c = a ∘ b (Hadamard).
Var Mul(Var a, Var b);

/// c = a ./ b. Caller guarantees b is bounded away from zero.
Var Div(Var a, Var b);

/// c = a / s where s is a 1×1 scalar Var broadcast over a. Caller
/// guarantees s is bounded away from zero.
Var DivScalar(Var a, Var s);

/// c = A·B (matrix product).
Var MatMul(Var a, Var b);

/// c = Aᵀ.
Var Transpose(Var a);

/// c = alpha * a.
Var Scale(Var a, double alpha);

/// c = a + alpha (element-wise scalar shift).
Var AddScalar(Var a, double alpha);

/// c = sigmoid(a), numerically stable.
Var Sigmoid(Var a);

/// c = exp(a).
Var Exp(Var a);

/// c = log(a). Caller guarantees positivity.
Var Log(Var a);

/// c = a² element-wise.
Var Square(Var a);

/// 1×1 sum of all entries.
Var Sum(Var a);

/// 1×1 mean of all entries.
Var Mean(Var a);

/// 1×1 squared Frobenius norm: Σ a_ij².
Var FrobeniusSq(Var a);

/// Gathers the listed rows; duplicates allowed. Backward scatter-adds.
Var GatherRows(Var a, const std::vector<size_t>& rows);

/// Horizontal concatenation [A | B].
Var HConcat(Var a, Var b);

/// Pairwise interaction features [A | B | A∘B] of two equal-shape B×K
/// inputs -> B×3K: the input of the MLP towers over a (user, item) pair.
/// One node, bit-identical in value and gradients to
/// HConcat(HConcat(a, b), Mul(a, b)) built in that order.
Var PairFeatures(Var a, Var b);

/// Per-row dot product of two equal-shape B×K inputs -> B×1. This is the
/// matrix-factorization scoring primitive: batch of user rows · batch of
/// item rows.
Var RowwiseDot(Var a, Var b);

/// c = a ∘ m where m is a constant weight matrix (no gradient to m).
Var MulConst(Var a, const Matrix& m);

/// 1×1 Σ_ij w_ij·a_ij with constant weights w (shape of a).
Var WeightedSumElems(Var a, const Matrix& w);

/// Stops gradient: returns a constant node holding a's current value.
Var Detach(Var a);

/// c = a + 1⊗row: adds a 1×C row vector to every row of the B×C input
/// (bias broadcast for MLP layers).
Var AddRowBroadcast(Var a, Var row);

/// c = max(a, 0) element-wise; subgradient 0 at 0.
Var Relu(Var a);

/// 1×1 ‖A·Bᵀ‖_F² computed WITHOUT materializing the R_a×R_b product, via
/// the Gram identity ‖ABᵀ‖_F² = trace((AᵀA)(BᵀB)). A is R_a×C, B is
/// R_b×C (same C). Gradients: dA = 2·g·A(BᵀB), dB = 2·g·B(AᵀA).
///
/// This is the kernel behind the paper's regularization loss
/// ‖P'Q'ᵀ‖_F² + ‖P''Q''ᵀ‖_F² — the naive product is |U|×|I| and dominates
/// training time (paper Table VI); the Gram form is O((|U|+|I|)·A²).
Var GramFrobeniusSq(Var a, Var b);

/// Numerically stable weighted binary-cross-entropy on logits:
///   out = Σ_i w_i · [ log(1+e^{l_i}) − y_i·l_i ]        (1×1)
/// which equals Σ w·BCE(σ(l), y). Gradient w.r.t. logits: w·(σ(l) − y).
/// `targets` and `weights` are constants with a's shape.
Var SigmoidBceSum(Var logits, const Matrix& targets, const Matrix& weights);

/// Weighted squared error of the predicted probability against labels:
///   out = Σ_i w_i · (y_i − σ(l_i))²                        (1×1)
/// the rating loss of the IPS estimator (per-cell weights o/p̂/B) and of
/// its naive / SNIPS variants. One node, bit-identical in value and
/// gradient to WeightedSumElems(Square(Sub(Constant(y), Sigmoid(l))), w).
Var SigmoidSquaredErrorSum(Var logits, const Matrix& labels,
                           const Matrix& weights);

}  // namespace dtrec::ag

#endif  // DTREC_AUTOGRAD_OPS_H_
