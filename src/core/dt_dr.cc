#include "core/dt_dr.h"

#include "obs/trace.h"
#include "util/math_util.h"
#include "util/numeric_guard.h"

namespace dtrec {

Status DtDrTrainer::Setup(const RatingDataset& dataset) {
  DTREC_RETURN_IF_ERROR(DtIpsTrainer::Setup(dataset));
  imp_ = MfModel(PredModelConfig(dataset, rng_.NextUint64()));
  imp_opt_ = MakeOptimizer(config_.optimizer, config_.learning_rate,
                           config_.weight_decay);
  return Status::OK();
}

size_t DtDrTrainer::NumParameters() const {
  return DtIpsTrainer::NumParameters() + imp_.NumParameters();
}

std::vector<CheckpointGroup> DtDrTrainer::CheckpointGroups() {
  auto groups = DtIpsTrainer::CheckpointGroups();
  groups.push_back(CheckpointGroup{imp_.Params(), imp_opt_.get()});
  return groups;
}

ParamBudget DtDrTrainer::Budget() const {
  ParamBudget budget = DtIpsTrainer::Budget();
  budget.embedding_params += imp_.NumParameters();
  return budget;
}

void DtDrTrainer::TrainStep(const Batch& batch) {
  DtIpsTrainer::TrainStep(batch);
  ImputationStep(batch);
}

ag::Var DtDrTrainer::EstimatorLoss(ag::Tape* tape, const Batch& batch,
                                   const DisentangledGraph& graph) {
  const size_t b = batch.size();
  const double inv_b = 1.0 / static_cast<double>(b);

  // Constants of the prediction step: clipped learned MNAR propensities
  // and the imputation model's pseudo-labels.
  clipped_p_.Resize(b, 1);
  pseudo_.Resize(b, 1);
  w_imputed_.Resize(b, 1);
  w_observed_.Resize(b, 1);
  const Matrix& prop_logits = graph.prop_logits.value();
  for (size_t i = 0; i < b; ++i) {
    clipped_p_(i, 0) = ClipPropensity(Sigmoid(prop_logits(i, 0)),
                                      config_.propensity_clip);
    DTREC_ASSERT_PROPENSITY(clipped_p_(i, 0));
    pseudo_(i, 0) = imp_.PredictProbability(batch.users[i], batch.items[i]);
    const double o_over_p = batch.observed(i, 0) / clipped_p_(i, 0);
    w_imputed_(i, 0) = (1.0 - o_over_p) * inv_b;
    w_observed_(i, 0) = o_over_p * inv_b;
  }
  DTREC_ASSERT_FINITE(w_observed_, "DtDrTrainer DR weights");

  ag::Var probs = ag::Sigmoid(graph.rating_logits);
  ag::Var e = ag::Square(ag::Sub(tape->Constant(batch.ratings), probs));
  ag::Var e_hat = ag::Square(ag::Sub(tape->Constant(pseudo_), probs));
  return ag::Add(ag::WeightedSumElems(e_hat, w_imputed_),
                 ag::WeightedSumElems(e, w_observed_));
}

void DtDrTrainer::ImputationStep(const Batch& batch) {
  const size_t b = batch.size();
  const double inv_b = 1.0 / static_cast<double>(b);
  Matrix pred_probs(b, 1), target_e(b, 1), w(b, 1);
  double total = 0.0;
  for (size_t i = 0; i < b; ++i) {
    const double prob = Predict(batch.users[i], batch.items[i]);
    pred_probs(i, 0) = prob;
    const double diff = batch.ratings(i, 0) - prob;
    target_e(i, 0) = diff * diff;
    w(i, 0) = ImputationWeight(batch.observed(i, 0), clipped_p_(i, 0)) *
              inv_b;
    total += w(i, 0);
  }
  if (total == 0.0) return;

  DTREC_TRACE_SPAN("imputation");
  ag::Tape& tape = *FreshTape();
  std::vector<ag::Var> leaves = imp_.MakeLeaves(&tape);
  ag::Var logits = imp_.BatchLogits(&tape, leaves, batch.users, batch.items);
  ag::Var pseudo = ag::Sigmoid(logits);
  ag::Var e_hat = ag::Square(ag::Sub(pseudo, tape.Constant(pred_probs)));
  ag::Var loss = ag::WeightedSumElems(
      ag::Square(ag::Sub(tape.Constant(target_e), e_hat)), w);
  if (collect_epoch_stats_) RecordEpochLoss("imputation", loss.value()(0, 0));
  tape.Backward(loss);
  const std::vector<Matrix*> params = imp_.Params();
  for (size_t i = 0; i < leaves.size(); ++i) {
    imp_opt_->Step(params[i], tape.GradOf(leaves[i]));
  }
}

}  // namespace dtrec
