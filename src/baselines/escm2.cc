#include "baselines/escm2.h"

#include "util/math_util.h"
#include "util/numeric_guard.h"

namespace dtrec {
namespace {

Matrix JointLabel(const Batch& batch) {
  Matrix joint(batch.size(), 1);
  for (size_t i = 0; i < batch.size(); ++i) {
    joint(i, 0) = batch.observed(i, 0) * batch.ratings(i, 0);
  }
  return joint;
}

}  // namespace

void Escm2IpsTrainer::TrainStep(const Batch& batch) {
  ag::Tape& tape = *FreshTape();
  TowerGraph graph = BuildGraph(&tape, batch);
  ag::Var ctr_prob = ag::Sigmoid(graph.ctr_logits);
  ag::Var cvr_prob = ag::Sigmoid(graph.cvr_logits);
  ag::Var ctcvr_prob = ag::Mul(ctr_prob, cvr_prob);

  const Matrix& p_hat = ctr_prob.value();
  const Matrix w = IpsWeights(batch, [&](size_t i) { return p_hat(i, 0); });
  ag::Var e = ag::Square(ag::Sub(tape.Constant(batch.ratings), cvr_prob));
  ag::Var cvr_ips = ag::WeightedSumElems(e, w);

  ag::Var loss = ag::Add(
      BceMean(&tape, ctr_prob, batch.observed),
      ag::Add(ag::Scale(cvr_ips, config_.lambda1),
              ag::Scale(BceMean(&tape, ctcvr_prob, JointLabel(batch)),
                        config_.lambda2)));
  StepAll(&tape, loss, graph);
}

void Escm2DrTrainer::TrainStep(const Batch& batch) {
  ag::Tape& tape = *FreshTape();
  TowerGraph graph = BuildGraph(&tape, batch);
  ag::Var ctr_prob = ag::Sigmoid(graph.ctr_logits);
  ag::Var cvr_prob = ag::Sigmoid(graph.cvr_logits);
  ag::Var imp_prob = ag::Sigmoid(graph.imp_logits);
  ag::Var ctcvr_prob = ag::Mul(ctr_prob, cvr_prob);

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
  DTREC_ASSERT_FINITE(w_observed, "Escm2DrTrainer weights");

  ag::Var e = ag::Square(ag::Sub(tape.Constant(batch.ratings), cvr_prob));
  ag::Var e_hat_pred = ag::Square(ag::Sub(ag::Detach(imp_prob), cvr_prob));
  ag::Var cvr_dr = ag::Add(ag::WeightedSumElems(e_hat_pred, w_imputed),
                           ag::WeightedSumElems(e, w_observed));
  // Imputation tower residual (prediction tower detached).
  ag::Var e_hat_imp = ag::Square(ag::Sub(imp_prob, ag::Detach(cvr_prob)));
  ag::Var imp_loss = ag::WeightedSumElems(
      ag::Square(ag::Sub(ag::Detach(e), e_hat_imp)), w_observed);

  ag::Var loss = ag::Add(
      BceMean(&tape, ctr_prob, batch.observed),
      ag::Add(ag::Scale(ag::Add(cvr_dr, imp_loss), config_.lambda1),
              ag::Scale(BceMean(&tape, ctcvr_prob, JointLabel(batch)),
                        config_.lambda2)));
  StepAll(&tape, loss, graph);
}

}  // namespace dtrec
