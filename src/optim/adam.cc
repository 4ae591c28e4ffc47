#include "optim/adam.h"

#include <cmath>

#if defined(__SSE2__) && !defined(__FMA__)
#include <emmintrin.h>
#endif

#include "tensor/serialization.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace dtrec {

namespace {

/// u8 slot presence flag (0 or 1).
Status WriteSlotFlag(bool present, std::ostream* out) {
  const char flag = present ? 1 : 0;
  out->write(&flag, 1);
  if (!out->good()) return Status::Internal("slot flag write failed");
  return Status::OK();
}

Result<bool> ReadSlotFlag(std::istream* in) {
  char flag = 0;
  in->read(&flag, 1);
  if (in->gcount() != 1) {
    return Status::InvalidArgument("truncated optimizer slot flag");
  }
  if (flag != 0 && flag != 1) {
    return Status::InvalidArgument("corrupt optimizer slot flag");
  }
  return flag == 1;
}

/// Loads one matrix and verifies it matches `like`'s shape.
Status LoadSlotMatrix(std::istream* in, const Matrix& like, Matrix* out) {
  auto loaded = LoadMatrix(in);
  if (!loaded.ok()) return loaded.status();
  Matrix& m = loaded.value();
  if (m.rows() != like.rows() || m.cols() != like.cols()) {
    return Status::FailedPrecondition(StrFormat(
        "optimizer slot is %zux%zu but its parameter is %zux%zu", m.rows(),
        m.cols(), like.rows(), like.cols()));
  }
  *out = std::move(m);
  return Status::OK();
}

}  // namespace

Adam::Adam(double learning_rate, double beta1, double beta2, double epsilon,
           double weight_decay)
    : lr_(learning_rate),
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
  // Locals, so stores through p, m and v do not force the members to be
  // reloaded per element.
  const double b1 = beta1_, b2 = beta2_, c1 = 1.0 - beta1_,
               c2 = 1.0 - beta2_, eps = epsilon_, wd = weight_decay_,
               lr = lr_;
  size_t i = 0;
#if defined(__SSE2__) && !defined(__FMA__)
  // Two lanes per step, each op in the scalar loop's order. The lane ops
  // round exactly as their scalar forms, and without FMA in the target
  // (this file is built for the baseline ISA) no multiply-add is fused, so
  // the update is bit-identical to the tail loop's.
  const __m128d vb1 = _mm_set1_pd(b1), vb2 = _mm_set1_pd(b2);
  const __m128d vc1 = _mm_set1_pd(c1), vc2 = _mm_set1_pd(c2);
  const __m128d vbc1 = _mm_set1_pd(bc1), vbc2 = _mm_set1_pd(bc2);
  const __m128d veps = _mm_set1_pd(eps), vwd = _mm_set1_pd(wd);
  const __m128d vlr = _mm_set1_pd(lr);
  for (; i + 2 <= n; i += 2) {
    const __m128d pv = _mm_loadu_pd(p + i);
    const __m128d g = _mm_add_pd(_mm_loadu_pd(gr + i), _mm_mul_pd(vwd, pv));
    const __m128d mv = _mm_add_pd(_mm_mul_pd(vb1, _mm_loadu_pd(m + i)),
                                  _mm_mul_pd(vc1, g));
    const __m128d vv = _mm_add_pd(_mm_mul_pd(vb2, _mm_loadu_pd(v + i)),
                                  _mm_mul_pd(_mm_mul_pd(vc2, g), g));
    _mm_storeu_pd(m + i, mv);
    _mm_storeu_pd(v + i, vv);
    const __m128d m_hat = _mm_div_pd(mv, vbc1);
    const __m128d v_hat = _mm_div_pd(vv, vbc2);
    const __m128d step = _mm_div_pd(_mm_mul_pd(vlr, m_hat),
                                    _mm_add_pd(_mm_sqrt_pd(v_hat), veps));
    _mm_storeu_pd(p + i, _mm_sub_pd(pv, step));
  }
#endif
  for (; i < n; ++i) {
    const double g = gr[i] + wd * p[i];
    m[i] = b1 * m[i] + c1 * g;
    v[i] = b2 * v[i] + c2 * g * g;
    const double m_hat = m[i] / bc1;
    const double v_hat = v[i] / bc2;
    p[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

Status Adam::SaveSlots(const std::vector<const Matrix*>& params,
                       std::ostream* out) const {
  for (const Matrix* param : params) {
    const auto it = slots_.find(param);
    DTREC_RETURN_IF_ERROR(WriteSlotFlag(it != slots_.end(), out));
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
    auto present = ReadSlotFlag(in);
    if (!present.ok()) return present.status();
    if (!present.value()) continue;
    Slot slot;
    DTREC_RETURN_IF_ERROR(LoadSlotMatrix(in, *param, &slot.m));
    DTREC_RETURN_IF_ERROR(LoadSlotMatrix(in, *param, &slot.v));
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
