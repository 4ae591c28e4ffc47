#ifndef DTREC_OPTIM_ADAM_H_
#define DTREC_OPTIM_ADAM_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "tensor/matrix.h"
#include "util/status.h"

namespace dtrec {

/// Adam (Kingma & Ba, 2015) with bias correction and optional L2 weight
/// decay folded into the gradient — matching the paper's training setup
/// ("implemented on PyTorch with Adam as the optimizer"). It is the one
/// optimizer every trainer steps with.
///
/// Trainers own their parameter matrices; Adam keeps per-parameter slot
/// state (both moments and the step count) keyed by the parameter's
/// address, so a parameter must live at a stable address for the lifetime
/// of training.
class Adam {
 public:
  explicit Adam(double learning_rate, double beta1 = 0.9,
                double beta2 = 0.999, double epsilon = 1e-8,
                double weight_decay = 0.0);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one in-place update to `param` given its gradient.
  void Step(Matrix* param, const Matrix& grad);

  /// The name a training checkpoint records for this optimizer's groups.
  std::string name() const { return "adam"; }

  /// Serializes the slot state for each matrix in `params`, positionally.
  /// Slots are keyed by parameter address in memory, which means nothing
  /// on disk — so the caller fixes an ordering (the trainer's checkpoint
  /// param list) and Adam emits, per parameter, a u8 presence flag and,
  /// when present, the first moment m, the second moment v (matrices in
  /// tensor/serialization format) and the i64 step counter t (bias
  /// correction depends on it). Parameters never stepped get flag 0.
  Status SaveSlots(const std::vector<const Matrix*>& params,
                   std::ostream* out) const;

  /// Restores slot state written by SaveSlots against the same parameter
  /// list (now the live, mutable matrices). Drops all existing slots first;
  /// rejects shape mismatches with FailedPrecondition.
  Status LoadSlots(const std::vector<Matrix*>& params, std::istream* in);

 private:
  struct Slot {
    Matrix m;  // first moment
    Matrix v;  // second moment
    int64_t t = 0;
  };

  double lr_;
  double beta1_;
  double beta2_;
  double epsilon_;
  double weight_decay_;
  std::unordered_map<const Matrix*, Slot> slots_;
};

}  // namespace dtrec

#endif  // DTREC_OPTIM_ADAM_H_
