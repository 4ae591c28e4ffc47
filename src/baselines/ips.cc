#include "baselines/ips.h"

namespace dtrec {

Status IpsTrainer::Setup(const RatingDataset& dataset) {
  if (propensity_fn_) return Status::OK();
  if (config_.mf_propensity) {
    // The paper's Table II assumes a full MF propensity for IPS/DR (their
    // 2x/3x embedding rows); enable via TrainConfig::mf_propensity.
    MfPropensityConfig pc;
    pc.dim = config_.embedding_dim;
    pc.seed = rng_.NextUint64();
    auto model = std::make_unique<MfPropensity>(pc);
    DTREC_RETURN_IF_ERROR(model->Fit(dataset));
    learned_propensity_params_ = model->NumParameters();
    learned_propensity_ = std::move(model);
    return Status::OK();
  }
  LogisticPropensityConfig pc;
  pc.seed = rng_.NextUint64();
  auto model = std::make_unique<LogisticPropensity>(pc);
  DTREC_RETURN_IF_ERROR(model->Fit(dataset));
  learned_propensity_params_ = model->user_logits().size() +
                               model->item_logits().size() + 1;
  learned_propensity_ = std::move(model);
  return Status::OK();
}

size_t IpsTrainer::NumParameters() const {
  return pred_.NumParameters() + learned_propensity_params_;
}

double IpsTrainer::BatchPropensity(const Batch& batch, size_t i) const {
  if (propensity_fn_) {
    return propensity_fn_(batch.users[i], batch.items[i],
                          batch.ratings(i, 0));
  }
  return learned_propensity_->Propensity(batch.users[i], batch.items[i]);
}

void IpsTrainer::TrainStep(const Batch& batch) {
  const Matrix w =
      IpsWeights(batch, [&](size_t i) { return BatchPropensity(batch, i); });

  ag::Tape& tape = *FreshTape();
  std::vector<ag::Var> leaves = pred_.MakeLeaves(&tape);
  ag::Var logits = pred_.BatchLogits(&tape, leaves, batch.users, batch.items);
  ag::Var loss = ag::SigmoidSquaredErrorSum(logits, batch.ratings, w);
  BackwardAndStep(&tape, loss, leaves, pred_.Params());
}

}  // namespace dtrec
