#ifndef DTREC_MODELS_MLP_H_
#define DTREC_MODELS_MLP_H_

#include <array>
#include <cstdint>

#include "autograd/ops.h"
#include "autograd/tape.h"
#include "tensor/matrix.h"

namespace dtrec {

class Rng;

/// Small fully-connected head mapping a B×in batch to B×1 logits through
/// one ReLU hidden layer:
///   h = relu(X·W1 + b1);  logit = h·W2 + b2
///
/// This is the "shallow MLP after the embedding layer" the paper uses to
/// realize the shared-embedding multi-task baselines (Multi-IPS/DR, ESMM,
/// ESCM², IPS-V2/DR-V2) when MF alone would make the towers identical
/// (Section VI-D).
class MlpHead {
 public:
  MlpHead() = default;
  MlpHead(size_t input_dim, size_t hidden_dim, double init_scale, Rng* rng);

  /// Tape leaves / parameter matrices, both in order W1, b1, W2, b2.
  using Leaves = std::array<ag::Var, 4>;
  using ParamList = std::array<Matrix*, 4>;

  Leaves MakeLeaves(ag::Tape* tape) const;

  /// B×1 logits from a B×input batch Var.
  ag::Var Forward(const Leaves& leaves, ag::Var input) const;

  /// Plain (non-autograd) forward for inference.
  double Forward(const Matrix& input_row) const;

  ParamList Params();
  size_t NumParameters() const;

  size_t input_dim() const { return w1_.rows(); }
  size_t hidden_dim() const { return w1_.cols(); }

 private:
  Matrix w1_;  // in×hidden
  Matrix b1_;  // 1×hidden
  Matrix w2_;  // hidden×1
  Matrix b2_;  // 1×1
};

}  // namespace dtrec

#endif  // DTREC_MODELS_MLP_H_
