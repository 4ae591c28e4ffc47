#include "models/mlp.h"

#include <cmath>

#include "tensor/ops.h"
#include "util/logging.h"
#include "util/random.h"

namespace dtrec {

MlpHead::MlpHead(size_t input_dim, size_t hidden_dim, double init_scale,
                 Rng* rng) {
  DTREC_CHECK_GT(input_dim, 0u);
  DTREC_CHECK_GT(hidden_dim, 0u);
  DTREC_CHECK(rng != nullptr);
  w1_ = Matrix::RandomNormal(input_dim, hidden_dim, init_scale, rng);
  b1_ = Matrix(1, hidden_dim);
  w2_ = Matrix::RandomNormal(hidden_dim, 1, init_scale, rng);
  b2_ = Matrix(1, 1);
}

MlpHead::Leaves MlpHead::MakeLeaves(ag::Tape* tape) const {
  DTREC_CHECK(tape != nullptr);
  return {tape->Leaf(w1_), tape->Leaf(b1_), tape->Leaf(w2_),
          tape->Leaf(b2_)};
}

ag::Var MlpHead::Forward(const Leaves& leaves, ag::Var input) const {
  ag::Var hidden = ag::Relu(
      ag::AddRowBroadcast(ag::MatMul(input, leaves[0]), leaves[1]));
  return ag::AddRowBroadcast(ag::MatMul(hidden, leaves[2]), leaves[3]);
}

double MlpHead::Forward(const Matrix& input_row) const {
  DTREC_CHECK_EQ(input_row.rows(), 1u);
  DTREC_CHECK_EQ(input_row.cols(), w1_.rows());
  Matrix hidden = MatMul(input_row, w1_);
  for (size_t j = 0; j < hidden.cols(); ++j) {
    double h = hidden(0, j) + b1_(0, j);
    hidden(0, j) = h > 0.0 ? h : 0.0;
  }
  double out = b2_(0, 0);
  for (size_t j = 0; j < hidden.cols(); ++j) {
    out += hidden(0, j) * w2_(j, 0);
  }
  return out;
}

MlpHead::ParamList MlpHead::Params() { return {&w1_, &b1_, &w2_, &b2_}; }

size_t MlpHead::NumParameters() const {
  return w1_.size() + b1_.size() + w2_.size() + b2_.size();
}

}  // namespace dtrec
