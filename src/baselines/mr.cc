#include "baselines/mr.h"

#include <cmath>

#include "util/math_util.h"
#include "util/numeric_guard.h"

namespace dtrec {
namespace {

/// Softmax of a 1×J logits Var, via exp / Σexp.
ag::Var Softmax(ag::Tape* tape, ag::Var logits) {
  (void)tape;
  ag::Var exps = ag::Exp(logits);
  return ag::DivScalar(exps, ag::Sum(exps));
}

}  // namespace

Status MrTrainer::Setup(const RatingDataset& dataset) {
  propensity_candidates_.clear();
  propensity_candidates_.push_back(std::make_unique<ConstantPropensity>());
  propensity_candidates_.push_back(
      std::make_unique<PopularityPropensity>());
  LogisticPropensityConfig pc;
  pc.seed = rng_.NextUint64();
  propensity_candidates_.push_back(
      std::make_unique<LogisticPropensity>(pc));
  for (auto& candidate : propensity_candidates_) {
    DTREC_RETURN_IF_ERROR(candidate->Fit(dataset));
  }

  imp_ = MfModel(PredModelConfig(dataset, rng_.NextUint64()));
  imp_opt_ = MakeOptimizer(config_.optimizer, config_.learning_rate,
                           config_.weight_decay);
  prop_logits_ = Matrix(1, propensity_candidates_.size());
  imp_logits_ = Matrix(1, 2);

  double total = 0.0;
  for (const auto& t : dataset.train()) total += t.rating;
  mean_label_ = total / static_cast<double>(dataset.train().size());
  return Status::OK();
}

size_t MrTrainer::NumParameters() const {
  return pred_.NumParameters() + imp_.NumParameters() +
         prop_logits_.size() + imp_logits_.size();
}

std::vector<double> MrTrainer::PropensityMixture() const {
  std::vector<double> mix(prop_logits_.size());
  double denom = 0.0;
  for (size_t j = 0; j < mix.size(); ++j) {
    mix[j] = std::exp(prop_logits_(0, j));
    denom += mix[j];
  }
  for (double& v : mix) v /= denom;
  return mix;
}

void MrTrainer::TrainStep(const Batch& batch) {
  const size_t b = batch.size();
  const size_t j_count = propensity_candidates_.size();
  const double inv_b = 1.0 / static_cast<double>(b);

  // Candidate inverse propensities (constants of the step).
  Matrix inv_p_candidates(b, j_count);
  for (size_t i = 0; i < b; ++i) {
    for (size_t j = 0; j < j_count; ++j) {
      const double p = ClipPropensity(
          propensity_candidates_[j]->Propensity(batch.users[i],
                                                batch.items[i]),
          config_.propensity_clip);
      DTREC_ASSERT_PROPENSITY(p);
      inv_p_candidates(i, j) = 1.0 / p;
    }
  }
  DTREC_ASSERT_FINITE(inv_p_candidates, "MrTrainer inverse propensities");
  // Candidate pseudo-labels.
  Matrix mf_pseudo(b, 1);
  for (size_t i = 0; i < b; ++i) {
    mf_pseudo(i, 0) = imp_.PredictProbability(batch.users[i],
                                              batch.items[i]);
  }

  ag::Tape& tape = *FreshTape();
  std::vector<ag::Var> leaves = pred_.MakeLeaves(&tape);
  ag::Var w_prop = tape.Leaf(prop_logits_);
  ag::Var w_imp = tape.Leaf(imp_logits_);

  ag::Var logits = pred_.BatchLogits(&tape, leaves, batch.users, batch.items);
  ag::Var probs = ag::Sigmoid(logits);

  // Mixture inverse propensity: (B×J)·(J×1 softmax) -> B×1.
  ag::Var prop_mix = Softmax(&tape, w_prop);
  ag::Var inv_p =
      ag::MatMul(tape.Constant(inv_p_candidates), ag::Transpose(prop_mix));

  // Mixture pseudo-label: u₀·mean + u₁·MF.
  ag::Var imp_mix = Softmax(&tape, w_imp);  // 1×2
  Matrix candidates(b, 2);
  for (size_t i = 0; i < b; ++i) {
    candidates(i, 0) = mean_label_;
    candidates(i, 1) = mf_pseudo(i, 0);
  }
  ag::Var pseudo =
      ag::MatMul(tape.Constant(candidates), ag::Transpose(imp_mix));

  ag::Var e = ag::Square(ag::Sub(tape.Constant(batch.ratings), probs));
  ag::Var e_hat = ag::Square(ag::Sub(pseudo, probs));

  // DR-style loss with the mixtures: mean[ ê + o·(e−ê)·inv_p ].
  Matrix o_scaled(b, 1);
  for (size_t i = 0; i < b; ++i) {
    o_scaled(i, 0) = batch.observed(i, 0) * inv_b;
  }
  ag::Var correction =
      ag::Sum(ag::MulConst(ag::Mul(ag::Sub(e, e_hat), inv_p), o_scaled));
  ag::Var loss = ag::Add(ag::Mean(e_hat), correction);

  std::vector<Matrix*> params = pred_.Params();
  std::vector<ag::Var> all_leaves = leaves;
  all_leaves.push_back(w_prop);
  params.push_back(&prop_logits_);
  all_leaves.push_back(w_imp);
  params.push_back(&imp_logits_);
  BackwardAndStep(&tape, loss, all_leaves, params);

  // Alternate pseudo-label update with the mixture inverse propensity.
  ImputationStep(batch, inv_p.value());
}

void MrTrainer::ImputationStep(const Batch& batch, const Matrix& inv_p) {
  const size_t b = batch.size();
  const double inv_b = 1.0 / static_cast<double>(b);
  Matrix pred_probs(b, 1);
  Matrix target_e(b, 1);
  Matrix w(b, 1);
  double total = 0.0;
  for (size_t i = 0; i < b; ++i) {
    const double prob =
        pred_.PredictProbability(batch.users[i], batch.items[i]);
    pred_probs(i, 0) = prob;
    const double diff = batch.ratings(i, 0) - prob;
    target_e(i, 0) = diff * diff;
    w(i, 0) = batch.observed(i, 0) * inv_p(i, 0) * inv_b;
    total += w(i, 0);
  }
  if (total == 0.0) return;

  // `inv_p` is a node value of the prediction graph; the loop above has
  // consumed it, so the workspace may now be reset for this graph.
  ag::Tape& tape = *FreshTape();
  std::vector<ag::Var> leaves = imp_.MakeLeaves(&tape);
  ag::Var logits = imp_.BatchLogits(&tape, leaves, batch.users, batch.items);
  ag::Var pseudo = ag::Sigmoid(logits);
  ag::Var e_hat = ag::Square(ag::Sub(pseudo, tape.Constant(pred_probs)));
  ag::Var loss = ag::WeightedSumElems(
      ag::Square(ag::Sub(tape.Constant(target_e), e_hat)), w);
  tape.Backward(loss);
  for (size_t i = 0; i < leaves.size(); ++i) {
    imp_opt_->Step(imp_.Params()[i], tape.GradOf(leaves[i]));
  }
}

}  // namespace dtrec
