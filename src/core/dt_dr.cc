#include "core/dt_dr.h"

#include "obs/prop_stats.h"
#include "obs/trace.h"
#include "util/math_util.h"
#include "util/numeric_guard.h"

namespace dtrec {

Status DtDrTrainer::Setup(const RatingDataset& dataset) {
  DTREC_RETURN_IF_ERROR(DtIpsTrainer::Setup(dataset));
  imp_ = MfModel(PredModelConfig(dataset, rng_.NextUint64()));
  imp_opt_ = MakeAdam();
  imp_params_ = imp_.Params();
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
  obs::PropensityClipTally clips;
  for (size_t i = 0; i < b; ++i) {
    clipped_p_(i, 0) = ClipPropensity(Sigmoid(prop_logits(i, 0)),
                                      config_.propensity_clip, &clips);
    DTREC_ASSERT_PROPENSITY(clipped_p_(i, 0));
    pseudo_(i, 0) = imp_.PredictProbability(batch.users[i], batch.items[i]);
    const double o_over_p = batch.observed(i, 0) / clipped_p_(i, 0);
    w_imputed_(i, 0) = (1.0 - o_over_p) * inv_b;
    w_observed_(i, 0) = o_over_p * inv_b;
  }
  obs::RecordPropensityClips(clips);
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
  imp_pred_probs_.Resize(b, 1);
  imp_target_e_.Resize(b, 1);
  imp_weights_.Resize(b, 1);
  double total = 0.0;
  for (size_t i = 0; i < b; ++i) {
    const double prob = Predict(batch.users[i], batch.items[i]);
    imp_pred_probs_(i, 0) = prob;
    const double diff = batch.ratings(i, 0) - prob;
    imp_target_e_(i, 0) = diff * diff;
    imp_weights_(i, 0) =
        ImputationWeight(batch.observed(i, 0), clipped_p_(i, 0)) * inv_b;
    total += imp_weights_(i, 0);
  }
  if (total == 0.0) return;

  DTREC_TRACE_SPAN("imputation");
  ag::Tape& tape = *FreshTape();
  // The leaves MfModel::MakeLeaves would return, in Params() order.
  imp_leaves_.clear();
  for (const Matrix* param : imp_params_) {
    imp_leaves_.push_back(tape.Leaf(*param));
  }
  ag::Var logits =
      imp_.BatchLogits(&tape, imp_leaves_, batch.users, batch.items);
  ag::Var pseudo = ag::Sigmoid(logits);
  ag::Var e_hat =
      ag::Square(ag::Sub(pseudo, tape.Constant(imp_pred_probs_)));
  ag::Var loss = ag::WeightedSumElems(
      ag::Square(ag::Sub(tape.Constant(imp_target_e_), e_hat)),
      imp_weights_);
  if (collect_epoch_stats_) RecordEpochLoss("imputation", loss.value()(0, 0));
  tape.Backward(loss);
  for (size_t i = 0; i < imp_leaves_.size(); ++i) {
    imp_opt_->Step(imp_params_[i], tape.GradOf(imp_leaves_[i]));
  }
}

}  // namespace dtrec
