#include "core/dt_ips.h"

#include "core/losses.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/math_util.h"
#include "util/numeric_guard.h"

namespace dtrec {

Status DtIpsTrainer::Setup(const RatingDataset& dataset) {
  const size_t a = primary_dim();
  if (a == 0 || a >= config_.embedding_dim) {
    return Status::InvalidArgument(
        "DT methods need 0 < disentangle_dim < embedding_dim");
  }
  Rng init_rng(rng_.NextUint64());
  const double rate = Clamp(dataset.TrainDensity(), 1e-6, 1.0 - 1e-6);
  emb_ = DisentangledEmbeddings::Create(
      dataset.num_users(), dataset.num_items(), config_.embedding_dim, a,
      config_.init_scale, Logit(rate), &init_rng, config_.use_bias);
  if (config_.dt_mlp_propensity) {
    // Propensity head over [p_u, q_i, p_u∘q_i] (full embedding incl. the
    // auxiliary block — Figure 1(d)'s z → o edge). The paper's Table II
    // charges DT-IPS one hidden layer; this is it. Set
    // TrainConfig::dt_mlp_propensity=false for the GLM-head ablation.
    prop_tower_ = MlpHead(3 * config_.embedding_dim, config_.mlp_hidden,
                          config_.init_scale, &init_rng);
  }
  step_params_ = emb_.Params();
  if (config_.dt_mlp_propensity) {
    for (Matrix* param : prop_tower_.Params()) step_params_.push_back(param);
  }
  disentangle_history_.clear();
  normalized_history_.clear();
  return Status::OK();
}

double DtIpsTrainer::Predict(size_t user, size_t item) const {
  return Sigmoid(emb_.RatingLogit(user, item));
}

double DtIpsTrainer::PropensityEstimate(size_t user, size_t item) const {
  if (!config_.dt_mlp_propensity) {
    return Sigmoid(emb_.PropensityLogit(user, item));
  }
  const Matrix pu = HConcat(emb_.p_primary.RowCopy(user),
                            emb_.p_auxiliary.RowCopy(user));
  const Matrix qi = HConcat(emb_.q_primary.RowCopy(item),
                            emb_.q_auxiliary.RowCopy(item));
  const Matrix features = HConcat(HConcat(pu, qi), Hadamard(pu, qi));
  return Sigmoid(prop_tower_.Forward(features));
}

size_t DtIpsTrainer::NumParameters() const {
  size_t n = emb_.NumParameters();
  if (config_.dt_mlp_propensity) n += prop_tower_.NumParameters();
  return n;
}

ParamBudget DtIpsTrainer::Budget() const {
  ParamBudget budget;
  budget.embedding_params = emb_.p_primary.size() + emb_.p_auxiliary.size() +
                            emb_.q_primary.size() + emb_.q_auxiliary.size();
  budget.other_params = emb_.NumParameters() - budget.embedding_params;
  if (config_.dt_mlp_propensity) {
    budget.hidden_params = prop_tower_.NumParameters();
  }
  return budget;
}

DisentangledGraph DtIpsTrainer::BuildGraph(ag::Tape* tape,
                                           const Batch& batch) {
  DisentangledGraph graph =
      BuildDisentangledGraph(tape, emb_, batch.users, batch.items);
  step_leaves_.clear();
  AppendDisentangledLeaves(graph, &step_leaves_);
  if (!config_.dt_mlp_propensity) {
    AddGlmPropensityHead(&graph);
    return graph;
  }
  ag::Var pu_full = ag::HConcat(graph.pu_primary, graph.pu_auxiliary);
  ag::Var qi_full = ag::HConcat(graph.qi_primary, graph.qi_auxiliary);
  ag::Var features = ag::PairFeatures(pu_full, qi_full);
  const MlpHead::Leaves tower_leaves = prop_tower_.MakeLeaves(tape);
  graph.prop_logits = prop_tower_.Forward(tower_leaves, features);
  step_leaves_.insert(step_leaves_.end(), tower_leaves.begin(),
                      tower_leaves.end());
  return graph;
}

ag::Var DtIpsTrainer::BuildStepLoss(ag::Tape* tape, const Batch& batch) {
  DisentangledGraph graph;
  ag::Var estimator;
  {
    DTREC_TRACE_SPAN("forward");
    graph = BuildGraph(tape, batch);
    estimator = EstimatorLoss(tape, batch, graph);
  }
  if (collect_epoch_stats_) {
    RecordEpochLoss(estimator_name(), estimator.value()(0, 0));
  }
  return ag::Add(estimator, SharedLossTerms(batch, graph));
}

ag::Var DtIpsTrainer::EstimatorLoss(ag::Tape* /*tape*/, const Batch& batch,
                                    const DisentangledGraph& graph) {
  // IPS term with the learned MNAR propensity (stop-gradient weights: the
  // propensity is trained by L_O, not by the reweighted rating loss).
  ips_weights_.Resize(batch.size(), 1);
  ips_weights_.SetZero();
  const double inv_b = 1.0 / static_cast<double>(batch.size());
  const Matrix& prop_logits = graph.prop_logits.value();
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch.observed(i, 0) == 0.0) continue;
    const double p = ClipPropensity(Sigmoid(prop_logits(i, 0)),
                                    config_.propensity_clip);
    DTREC_ASSERT_PROPENSITY(p);
    ips_weights_(i, 0) = inv_b / p;
  }
  DTREC_ASSERT_FINITE(ips_weights_, "DtIpsTrainer IPS weights");
  return ag::SigmoidSquaredErrorSum(graph.rating_logits, batch.ratings,
                                    ips_weights_);
}

ag::Var DtIpsTrainer::SharedLossTerms(const Batch& batch,
                                      const DisentangledGraph& graph) {
  // Propensity loss L_O: cross entropy of o over the sampled slice of the
  // entire space (stable logit-space form).
  ag::Var shared;
  {
    DTREC_TRACE_SPAN("propensity_bce");
    bce_weights_.Resize(batch.size(), 1);
    bce_weights_.Fill(1.0 / static_cast<double>(batch.size()));
    ag::Var prop_loss = ag::SigmoidBceSum(graph.prop_logits, batch.observed,
                                          bce_weights_);
    shared = ag::Scale(prop_loss, config_.alpha);
    if (collect_epoch_stats_) {
      RecordEpochLoss("propensity_bce", shared.value()(0, 0));
    }
  }
  if (config_.beta != 0.0) {
    DTREC_TRACE_SPAN("disentangle_loss");
    ag::Var term = ag::Scale(DisentangleLoss(graph), config_.beta);
    if (collect_epoch_stats_) {
      RecordEpochLoss("disentangle", term.value()(0, 0));
    }
    shared = ag::Add(shared, term);
  }
  if (config_.gamma != 0.0) {
    DTREC_TRACE_SPAN("reg_loss");
    ag::Var term = ag::Scale(RegularizationLoss(graph), config_.gamma);
    if (collect_epoch_stats_) {
      RecordEpochLoss("regularization", term.value()(0, 0));
    }
    shared = ag::Add(shared, term);
  }
  return shared;
}

void DtIpsTrainer::TrainStep(const Batch& batch) {
  ag::Tape* tape = FreshTape();
  const ag::Var loss = BuildStepLoss(tape, batch);
  BackwardAndStep(tape, loss, step_leaves_, step_params_);
}

void DtIpsTrainer::EpochEnd(size_t epoch) {
  (void)epoch;
  disentangle_history_.push_back(emb_.DisentangleLossValue());
  normalized_history_.push_back(emb_.NormalizedDisentangleValue());
}

std::vector<CheckpointGroup> DtIpsTrainer::CheckpointGroups() {
  // The epoch loop steps the disentangled embeddings and (when configured)
  // the MLP propensity head; the base pred_ model stays at its
  // deterministic init but is cheap to include and keeps group 0 uniform.
  auto groups = MfJointTrainerBase::CheckpointGroups();
  for (Matrix* param : emb_.Params()) groups[0].params.push_back(param);
  if (config_.dt_mlp_propensity) {
    for (Matrix* param : prop_tower_.Params()) {
      groups[0].params.push_back(param);
    }
  }
  return groups;
}

}  // namespace dtrec
