#include "optim/sgd.h"

#include "tensor/serialization.h"
#include "util/logging.h"

namespace dtrec {

Sgd::Sgd(double learning_rate, double momentum, double weight_decay)
    : Optimizer(learning_rate),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  DTREC_CHECK_GE(momentum, 0.0);
  DTREC_CHECK_LT(momentum, 1.0);
}

void Sgd::Step(Matrix* param, const Matrix& grad) {
  DTREC_CHECK(param != nullptr);
  DTREC_CHECK_EQ(param->rows(), grad.rows());
  DTREC_CHECK_EQ(param->cols(), grad.cols());

  double* p = param->data();
  const double* gr = grad.data();
  const size_t n = param->size();
  if (momentum_ == 0.0) {
    for (size_t i = 0; i < n; ++i) {
      const double g = gr[i] + weight_decay_ * p[i];
      p[i] -= lr_ * g;
    }
    return;
  }

  auto [it, inserted] = velocity_.try_emplace(param);
  Matrix& velocity = it->second;
  if (inserted) velocity = Matrix(param->rows(), param->cols());
  DTREC_CHECK_EQ(velocity.rows(), param->rows());
  DTREC_CHECK_EQ(velocity.cols(), param->cols());
  double* v = velocity.data();
  for (size_t i = 0; i < n; ++i) {
    const double g = gr[i] + weight_decay_ * p[i];
    v[i] = momentum_ * v[i] + g;
    p[i] -= lr_ * v[i];
  }
}

void Sgd::Reset() { velocity_.clear(); }

Status Sgd::SaveSlots(const std::vector<const Matrix*>& params,
                      std::ostream* out) const {
  for (const Matrix* param : params) {
    const auto it = velocity_.find(param);
    DTREC_RETURN_IF_ERROR(
        optim_internal::WriteSlotFlag(it != velocity_.end(), out));
    if (it != velocity_.end()) {
      DTREC_RETURN_IF_ERROR(SaveMatrix(it->second, out));
    }
  }
  return Status::OK();
}

Status Sgd::LoadSlots(const std::vector<Matrix*>& params, std::istream* in) {
  velocity_.clear();
  for (Matrix* param : params) {
    auto present = optim_internal::ReadSlotFlag(in);
    if (!present.ok()) return present.status();
    if (!present.value()) continue;
    Matrix v;
    DTREC_RETURN_IF_ERROR(optim_internal::LoadSlotMatrix(in, *param, &v));
    velocity_.emplace(param, std::move(v));
  }
  return Status::OK();
}

}  // namespace dtrec
