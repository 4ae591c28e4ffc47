#include "baselines/snips.h"

#include "propensity/propensity.h"
#include "util/numeric_guard.h"

namespace dtrec {

void SnipsTrainer::TrainStep(const Batch& batch) {
  // Self-normalization: weights o_i/p̂_i scaled by Σ_j o_j/p̂_j rather
  // than the batch size.
  double weight_sum = 0.0;
  Matrix w(batch.size(), 1);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch.observed(i, 0) == 0.0) continue;
    const double p = ClipPropensity(BatchPropensity(batch, i),
                                    config_.propensity_clip);
    DTREC_ASSERT_PROPENSITY(p);
    w(i, 0) = 1.0 / p;
    weight_sum += w(i, 0);
  }
  if (weight_sum == 0.0) return;
  for (size_t i = 0; i < batch.size(); ++i) w(i, 0) /= weight_sum;
  DTREC_ASSERT_FINITE(w, "SnipsTrainer self-normalized weights");

  ag::Tape& tape = *FreshTape();
  std::vector<ag::Var> leaves = pred_.MakeLeaves(&tape);
  ag::Var logits = pred_.BatchLogits(&tape, leaves, batch.users, batch.items);
  ag::Var loss = ag::SigmoidSquaredErrorSum(logits, batch.ratings, w);
  BackwardAndStep(&tape, loss, leaves, pred_.Params());
}

}  // namespace dtrec
