#include "baselines/ips_v2.h"

#include "tensor/ops.h"
#include "util/math_util.h"
#include "util/numeric_guard.h"

namespace dtrec {

ag::Var IpsV2Trainer::SoftClip(ag::Var prob) const {
  const double c = config_.propensity_clip;
  return ag::AddScalar(ag::Scale(prob, 1.0 - c), c);
}

ag::Var IpsV2Trainer::BalanceTerm(ag::Tape* tape, const Batch& batch,
                                  ag::Var prob, ag::Var features) const {
  const size_t b = batch.size();
  const double inv_b = 1.0 / static_cast<double>(b);
  // o_i / B as constants; division by the live clipped propensity keeps
  // the gradient path into the propensity tower.
  Matrix o_scaled(b, 1);
  for (size_t i = 0; i < b; ++i) {
    o_scaled(i, 0) = batch.observed(i, 0) * inv_b;
  }
  ag::Var weights =
      ag::Div(tape->Constant(o_scaled), SoftClip(prob));  // B×1

  // Features are stop-gradient: balancing shapes the propensity, not the
  // representation.
  ag::Var phi = tape->Constant(features.value());
  ag::Var weighted_mean = ag::MatMul(ag::Transpose(weights), phi);  // 1×F
  Matrix mean_row = ColSums(features.value());
  ScaleInPlace(&mean_row, inv_b);
  ag::Var diff = ag::Sub(weighted_mean, tape->Constant(mean_row));
  return ag::FrobeniusSq(diff);
}

void IpsV2Trainer::TrainStep(const Batch& batch) {
  ag::Tape& tape = *FreshTape();
  TowerGraph graph = BuildGraph(&tape, batch);
  ag::Var ctr_prob = ag::Sigmoid(graph.ctr_logits);
  ag::Var cvr_prob = ag::Sigmoid(graph.cvr_logits);

  const Matrix& p_hat = ctr_prob.value();
  const Matrix w = IpsWeights(batch, [&](size_t i) { return p_hat(i, 0); });
  ag::Var e = ag::Square(ag::Sub(tape.Constant(batch.ratings), cvr_prob));
  ag::Var ips_loss = ag::WeightedSumElems(e, w);

  ag::Var loss = ag::Add(
      ips_loss,
      ag::Add(ag::Scale(BceMean(&tape, ctr_prob, batch.observed),
                        config_.alpha),
              ag::Scale(BalanceTerm(&tape, batch, ctr_prob, graph.features),
                        config_.lambda2)));
  StepAll(&tape, loss, graph);
}

void DrV2Trainer::TrainStep(const Batch& batch) {
  ag::Tape& tape = *FreshTape();
  TowerGraph graph = BuildGraph(&tape, batch);
  ag::Var ctr_prob = ag::Sigmoid(graph.ctr_logits);
  ag::Var cvr_prob = ag::Sigmoid(graph.cvr_logits);
  ag::Var imp_prob = ag::Sigmoid(graph.imp_logits);

  const size_t b = batch.size();
  const double inv_b = 1.0 / static_cast<double>(b);
  const Matrix& p_hat = ctr_prob.value();
  Matrix w_imputed(b, 1), w_observed(b, 1);
  for (size_t i = 0; i < b; ++i) {
    const double p = ClipPropensity(p_hat(i, 0), config_.propensity_clip);
    DTREC_ASSERT_PROPENSITY(p);
    const double o_over_p = batch.observed(i, 0) / p;
    w_imputed(i, 0) = (1.0 - o_over_p) * inv_b;
    w_observed(i, 0) = o_over_p * inv_b;
  }
  DTREC_ASSERT_FINITE(w_observed, "DrV2Trainer weights");

  ag::Var e = ag::Square(ag::Sub(tape.Constant(batch.ratings), cvr_prob));
  ag::Var e_hat_pred = ag::Square(ag::Sub(ag::Detach(imp_prob), cvr_prob));
  ag::Var dr_loss = ag::Add(ag::WeightedSumElems(e_hat_pred, w_imputed),
                            ag::WeightedSumElems(e, w_observed));
  ag::Var e_hat_imp = ag::Square(ag::Sub(imp_prob, ag::Detach(cvr_prob)));
  ag::Var imp_loss = ag::WeightedSumElems(
      ag::Square(ag::Sub(ag::Detach(e), e_hat_imp)), w_observed);

  ag::Var loss = ag::Add(
      ag::Add(dr_loss, imp_loss),
      ag::Add(ag::Scale(BceMean(&tape, ctr_prob, batch.observed),
                        config_.alpha),
              ag::Scale(BalanceTerm(&tape, batch, ctr_prob, graph.features),
                        config_.lambda2)));
  StepAll(&tape, loss, graph);
}

}  // namespace dtrec
