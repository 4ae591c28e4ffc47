#include "baselines/dr.h"

#include "util/math_util.h"
#include "util/numeric_guard.h"

namespace dtrec {

DrTrainerBase::DrTrainerBase(const TrainConfig& config, bool joint_learning)
    : IpsTrainer(config), joint_learning_(joint_learning) {}

size_t DrTrainerBase::NumParameters() const {
  return IpsTrainer::NumParameters() + imp_.NumParameters();
}

ParamBudget DrTrainerBase::Budget() const {
  ParamBudget budget;
  budget.embedding_params = pred_.NumParameters() + imp_.NumParameters();
  budget.other_params = IpsTrainer::NumParameters() - pred_.NumParameters();
  return budget;
}

Status DrTrainerBase::Setup(const RatingDataset& dataset) {
  DTREC_RETURN_IF_ERROR(IpsTrainer::Setup(dataset));
  MfModelConfig mc = PredModelConfig(dataset, rng_.NextUint64());
  imp_ = MfModel(mc);
  imp_opt_ = MakeAdam();

  if (!joint_learning_) {
    // Vanilla DR: pre-train the pseudo-label model on observed ratings
    // (a naive fit — its extrapolation error is exactly what the DR
    // correction term is supposed to absorb).
    ObservedBatchSampler sampler(dataset, config_.batch_size,
                                 rng_.NextUint64());
    const size_t pretrain_epochs = std::max<size_t>(1, config_.epochs / 2);
    for (size_t epoch = 0; epoch < pretrain_epochs; ++epoch) {
      sampler.NewEpoch();
      Batch batch;
      while (sampler.NextBatch(&batch)) {
        Matrix w(batch.size(), 1,
                 1.0 / static_cast<double>(batch.size()));
        ag::Tape& tape = *FreshTape();
        std::vector<ag::Var> leaves = imp_.MakeLeaves(&tape);
        ag::Var logits =
            imp_.BatchLogits(&tape, leaves, batch.users, batch.items);
        ag::Var loss = ag::SigmoidSquaredErrorSum(logits, batch.ratings, w);
        tape.Backward(loss);
        for (size_t i = 0; i < leaves.size(); ++i) {
          imp_opt_->Step(imp_.Params()[i], tape.GradOf(leaves[i]));
        }
      }
    }
  }
  return Status::OK();
}

double DrTrainerBase::PseudoLabel(size_t user, size_t item) const {
  return imp_.PredictProbability(user, item);
}

std::vector<CheckpointGroup> DrTrainerBase::CheckpointGroups() {
  // Vanilla DR's frozen pre-fit imputation model replays deterministically
  // in Setup, but the joint-learning variants keep stepping it — snapshot
  // it (and its optimizer moments) unconditionally; for the frozen case
  // the restored values simply equal the recomputed ones.
  auto groups = IpsTrainer::CheckpointGroups();
  groups.push_back(CheckpointGroup{imp_.Params(), imp_opt_.get()});
  return groups;
}

void DrTrainerBase::TrainStep(const Batch& batch) {
  PredictionStep(batch);
  if (joint_learning_) ImputationStep(batch);
}

void DrTrainerBase::PredictionStep(const Batch& batch) {
  const size_t b = batch.size();
  const double inv_b = 1.0 / static_cast<double>(b);

  // Constants of this step: clipped propensities and pseudo-labels.
  Matrix pseudo(b, 1);
  Matrix w_imputed(b, 1);   // coefficient of ê: (1 − o/p̂)/B
  Matrix w_observed(b, 1);  // coefficient of e:  (o/p̂)/B
  Matrix w_sn(b, 1);        // StableDR: o/p̂ normalized to sum 1
  double inv_weight_sum = 0.0;
  for (size_t i = 0; i < b; ++i) {
    pseudo(i, 0) = PseudoLabel(batch.users[i], batch.items[i]);
    const double p = ClipPropensity(BatchPropensity(batch, i),
                                    config_.propensity_clip);
    DTREC_ASSERT_PROPENSITY(p);
    const double o_over_p = batch.observed(i, 0) / p;
    w_imputed(i, 0) = (1.0 - o_over_p) * inv_b;
    w_observed(i, 0) = o_over_p * inv_b;
    w_sn(i, 0) = o_over_p;
    inv_weight_sum += o_over_p;
  }
  DTREC_ASSERT_FINITE(w_observed, "DrTrainerBase::PredictionStep weights");

  ag::Tape& tape = *FreshTape();
  std::vector<ag::Var> leaves = pred_.MakeLeaves(&tape);
  ag::Var logits = pred_.BatchLogits(&tape, leaves, batch.users, batch.items);
  ag::Var probs = ag::Sigmoid(logits);
  ag::Var e = ag::Square(ag::Sub(tape.Constant(batch.ratings), probs));
  ag::Var e_hat = ag::Square(ag::Sub(tape.Constant(pseudo), probs));

  ag::Var loss;
  if (SelfNormalized()) {
    // StableDR: (1/B)Σ ê + Σ o(e−ê)/p̂ / Σ o/p̂.
    if (inv_weight_sum > 0.0) {
      for (size_t i = 0; i < b; ++i) w_sn(i, 0) /= inv_weight_sum;
    }
    loss = ag::Add(ag::Mean(e_hat),
                   ag::WeightedSumElems(ag::Sub(e, e_hat), w_sn));
  } else {
    // ê + o(e−ê)/p̂ = ê·(1 − o/p̂) + e·(o/p̂).
    loss = ag::Add(ag::WeightedSumElems(e_hat, w_imputed),
                   ag::WeightedSumElems(e, w_observed));
  }

  if (UseTargeting()) {
    // δ zeroes the empirical bias of the correction term over this batch;
    // it is treated as stop-gradient and consumed by the imputation step.
    double num = 0.0;
    const Matrix& e_val = e.value();
    const Matrix& ehat_val = e_hat.value();
    for (size_t i = 0; i < b; ++i) {
      num += w_sn(i, 0) * (e_val(i, 0) - ehat_val(i, 0));
    }
    last_delta_ = inv_weight_sum > 0.0 && !SelfNormalized()
                      ? num / inv_weight_sum
                      : (SelfNormalized() ? num : 0.0);
  }

  BackwardAndStep(&tape, loss, leaves, pred_.Params());
}

void DrTrainerBase::ImputationStep(const Batch& batch) {
  const size_t b = batch.size();
  const double inv_b = 1.0 / static_cast<double>(b);

  // Constants: the prediction model's current probabilities and errors.
  Matrix pred_probs(b, 1);
  Matrix target_e(b, 1);
  Matrix w(b, 1);
  double total_weight = 0.0;
  for (size_t i = 0; i < b; ++i) {
    const double prob = pred_.PredictProbability(batch.users[i],
                                                 batch.items[i]);
    pred_probs(i, 0) = prob;
    const double diff = batch.ratings(i, 0) - prob;
    target_e(i, 0) = diff * diff - (UseTargeting() ? last_delta_ : 0.0);
    const double p = ClipPropensity(BatchPropensity(batch, i),
                                    config_.propensity_clip);
    DTREC_ASSERT_PROPENSITY(p);
    w(i, 0) = ImputationWeight(batch.observed(i, 0), p) * inv_b;
    total_weight += w(i, 0);
  }
  DTREC_ASSERT_FINITE(w, "DrTrainerBase::ImputationStep weights");
  if (total_weight == 0.0) return;

  ag::Tape& tape = *FreshTape();
  std::vector<ag::Var> leaves = imp_.MakeLeaves(&tape);
  ag::Var logits = imp_.BatchLogits(&tape, leaves, batch.users, batch.items);
  ag::Var pseudo = ag::Sigmoid(logits);
  // ê = (r̃ − σ(pred))², gradients through r̃ only.
  ag::Var e_hat = ag::Square(ag::Sub(pseudo, tape.Constant(pred_probs)));
  ag::Var resid = ag::Sub(tape.Constant(target_e), e_hat);
  ag::Var loss = ag::WeightedSumElems(ag::Square(resid), w);
  tape.Backward(loss);
  for (size_t i = 0; i < leaves.size(); ++i) {
    imp_opt_->Step(imp_.Params()[i], tape.GradOf(leaves[i]));
  }
}

}  // namespace dtrec
