#include "optim/adagrad.h"

#include <cmath>

#include "tensor/serialization.h"
#include "util/logging.h"

namespace dtrec {

AdaGrad::AdaGrad(double learning_rate, double epsilon, double weight_decay)
    : Optimizer(learning_rate),
      epsilon_(epsilon),
      weight_decay_(weight_decay) {
  DTREC_CHECK_GT(epsilon, 0.0);
}

void AdaGrad::Step(Matrix* param, const Matrix& grad) {
  DTREC_CHECK(param != nullptr);
  DTREC_CHECK_EQ(param->rows(), grad.rows());
  DTREC_CHECK_EQ(param->cols(), grad.cols());

  auto [it, inserted] = accum_.try_emplace(param);
  if (inserted) it->second = Matrix(param->rows(), param->cols());
  DTREC_CHECK_EQ(it->second.size(), param->size());
  double* acc = it->second.data();
  double* p = param->data();
  const double* gr = grad.data();
  const size_t n = param->size();
  for (size_t i = 0; i < n; ++i) {
    const double g = gr[i] + weight_decay_ * p[i];
    acc[i] += g * g;
    p[i] -= lr_ * g / (std::sqrt(acc[i]) + epsilon_);
  }
}

void AdaGrad::Reset() { accum_.clear(); }

Status AdaGrad::SaveSlots(const std::vector<const Matrix*>& params,
                          std::ostream* out) const {
  for (const Matrix* param : params) {
    const auto it = accum_.find(param);
    DTREC_RETURN_IF_ERROR(
        optim_internal::WriteSlotFlag(it != accum_.end(), out));
    if (it != accum_.end()) {
      DTREC_RETURN_IF_ERROR(SaveMatrix(it->second, out));
    }
  }
  return Status::OK();
}

Status AdaGrad::LoadSlots(const std::vector<Matrix*>& params,
                          std::istream* in) {
  accum_.clear();
  for (Matrix* param : params) {
    auto present = optim_internal::ReadSlotFlag(in);
    if (!present.ok()) return present.status();
    if (!present.value()) continue;
    Matrix acc;
    DTREC_RETURN_IF_ERROR(optim_internal::LoadSlotMatrix(in, *param, &acc));
    accum_.emplace(param, std::move(acc));
  }
  return Status::OK();
}

}  // namespace dtrec
