#include "baselines/multi_ips_dr.h"

#include "util/math_util.h"
#include "util/numeric_guard.h"

namespace dtrec {

void MultiIpsTrainer::TrainStep(const Batch& batch) {
  ag::Tape& tape = *FreshTape();
  TowerGraph graph = BuildGraph(&tape, batch);
  ag::Var ctr_prob = ag::Sigmoid(graph.ctr_logits);

  // IPS weights from the ctr tower's current propensities (stop-grad).
  const Matrix& p_hat = ctr_prob.value();
  const Matrix w = IpsWeights(
      batch, [&](size_t i) { return p_hat(i, 0); });

  ag::Var cvr_prob = ag::Sigmoid(graph.cvr_logits);
  ag::Var e =
      ag::Square(ag::Sub(tape.Constant(batch.ratings), cvr_prob));
  ag::Var ips_loss = ag::WeightedSumElems(e, w);
  ag::Var prop_loss = BceMean(&tape, ctr_prob, batch.observed);
  ag::Var loss = ag::Add(ips_loss, ag::Scale(prop_loss, config_.alpha));
  StepAll(&tape, loss, graph);
}

void MultiDrTrainer::TrainStep(const Batch& batch) {
  ag::Tape& tape = *FreshTape();
  TowerGraph graph = BuildGraph(&tape, batch);
  ag::Var ctr_prob = ag::Sigmoid(graph.ctr_logits);
  ag::Var cvr_prob = ag::Sigmoid(graph.cvr_logits);
  ag::Var imp_prob = ag::Sigmoid(graph.imp_logits);

  const size_t b = batch.size();
  const double inv_b = 1.0 / static_cast<double>(b);
  const Matrix& p_hat = ctr_prob.value();
  Matrix w_imputed(b, 1);
  Matrix w_observed(b, 1);
  Matrix w_resid(b, 1);
  for (size_t i = 0; i < b; ++i) {
    const double p = ClipPropensity(p_hat(i, 0), config_.propensity_clip);
    DTREC_ASSERT_PROPENSITY(p);
    const double o_over_p = batch.observed(i, 0) / p;
    w_imputed(i, 0) = (1.0 - o_over_p) * inv_b;
    w_observed(i, 0) = o_over_p * inv_b;
    w_resid(i, 0) = o_over_p * inv_b;
  }
  DTREC_ASSERT_FINITE(w_observed, "MultiDrTrainer weights");

  ag::Var e = ag::Square(ag::Sub(tape.Constant(batch.ratings), cvr_prob));
  // ê for the prediction tower: pseudo-label tower detached.
  ag::Var e_hat_pred =
      ag::Square(ag::Sub(ag::Detach(imp_prob), cvr_prob));
  ag::Var dr_loss = ag::Add(ag::WeightedSumElems(e_hat_pred, w_imputed),
                            ag::WeightedSumElems(e, w_observed));

  // Imputation tower regression: prediction tower detached.
  ag::Var e_hat_imp = ag::Square(ag::Sub(imp_prob, ag::Detach(cvr_prob)));
  ag::Var imp_loss = ag::WeightedSumElems(
      ag::Square(ag::Sub(ag::Detach(e), e_hat_imp)), w_resid);

  ag::Var prop_loss = BceMean(&tape, ctr_prob, batch.observed);
  ag::Var loss = ag::Add(ag::Add(dr_loss, imp_loss),
                         ag::Scale(prop_loss, config_.alpha));
  StepAll(&tape, loss, graph);
}

}  // namespace dtrec
