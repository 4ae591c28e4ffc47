#include "optim/adam.h"

#include <cmath>

#include "tensor/serialization.h"
#include "util/logging.h"

namespace dtrec {

Adam::Adam(double learning_rate, double beta1, double beta2, double epsilon,
           double weight_decay)
    : Optimizer(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon),
      weight_decay_(weight_decay) {
  DTREC_CHECK_GT(beta1, 0.0);
  DTREC_CHECK_LT(beta1, 1.0);
  DTREC_CHECK_GT(beta2, 0.0);
  DTREC_CHECK_LT(beta2, 1.0);
  DTREC_CHECK_GT(epsilon, 0.0);
}

void Adam::Step(Matrix* param, const Matrix& grad) {
  DTREC_CHECK(param != nullptr);
  DTREC_CHECK_EQ(param->rows(), grad.rows());
  DTREC_CHECK_EQ(param->cols(), grad.cols());

  auto [it, inserted] = slots_.try_emplace(param);
  Slot& slot = it->second;
  if (inserted) {
    slot.m = Matrix(param->rows(), param->cols());
    slot.v = Matrix(param->rows(), param->cols());
  }
  slot.t += 1;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(slot.t));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(slot.t));

  DTREC_CHECK_EQ(slot.m.size(), param->size());
  DTREC_CHECK_EQ(slot.v.size(), param->size());
  double* p = param->data();
  const double* gr = grad.data();
  double* m = slot.m.data();
  double* v = slot.v.data();
  const size_t n = param->size();
  for (size_t i = 0; i < n; ++i) {
    const double g = gr[i] + weight_decay_ * p[i];
    m[i] = beta1_ * m[i] + (1.0 - beta1_) * g;
    v[i] = beta2_ * v[i] + (1.0 - beta2_) * g * g;
    const double m_hat = m[i] / bc1;
    const double v_hat = v[i] / bc2;
    p[i] -= lr_ * m_hat / (std::sqrt(v_hat) + epsilon_);
  }
}

void Adam::Reset() { slots_.clear(); }

Status Adam::SaveSlots(const std::vector<const Matrix*>& params,
                       std::ostream* out) const {
  for (const Matrix* param : params) {
    const auto it = slots_.find(param);
    DTREC_RETURN_IF_ERROR(
        optim_internal::WriteSlotFlag(it != slots_.end(), out));
    if (it == slots_.end()) continue;
    const Slot& slot = it->second;
    DTREC_RETURN_IF_ERROR(SaveMatrix(slot.m, out));
    DTREC_RETURN_IF_ERROR(SaveMatrix(slot.v, out));
    out->write(reinterpret_cast<const char*>(&slot.t), sizeof(slot.t));
    if (!out->good()) return Status::Internal("adam slot write failed");
  }
  return Status::OK();
}

Status Adam::LoadSlots(const std::vector<Matrix*>& params, std::istream* in) {
  slots_.clear();
  for (Matrix* param : params) {
    auto present = optim_internal::ReadSlotFlag(in);
    if (!present.ok()) return present.status();
    if (!present.value()) continue;
    Slot slot;
    DTREC_RETURN_IF_ERROR(optim_internal::LoadSlotMatrix(in, *param, &slot.m));
    DTREC_RETURN_IF_ERROR(optim_internal::LoadSlotMatrix(in, *param, &slot.v));
    in->read(reinterpret_cast<char*>(&slot.t), sizeof(slot.t));
    if (in->gcount() != static_cast<std::streamsize>(sizeof(slot.t)) ||
        slot.t < 0) {
      return Status::InvalidArgument("truncated or corrupt adam step counter");
    }
    slots_.emplace(param, std::move(slot));
  }
  return Status::OK();
}

}  // namespace dtrec
