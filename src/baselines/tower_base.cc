#include "baselines/tower_base.h"

#include "tensor/ops.h"
#include "util/math_util.h"

namespace dtrec {

Status TowerTrainerBase::Setup(const RatingDataset& dataset) {
  // Tower input: [p_u, q_i, p_u ∘ q_i]. The element-wise product channel
  // gives the towers the dot-product inductive bias (NeuMF-style), which
  // the pure concatenation lacks — without it the MLP heads memorize the
  // sparse observed cells instead of generalizing.
  const size_t feat_dim = 3 * config_.embedding_dim;
  Rng tower_rng(rng_.NextUint64());
  ctr_tower_ = MlpHead(feat_dim, config_.mlp_hidden, config_.init_scale,
                       &tower_rng);
  cvr_tower_ = MlpHead(feat_dim, config_.mlp_hidden, config_.init_scale,
                       &tower_rng);
  if (has_imputation_) {
    imp_tower_ = MlpHead(feat_dim, config_.mlp_hidden, config_.init_scale,
                         &tower_rng);
  }
  return TowerSetup(dataset);
}

double TowerTrainerBase::Predict(size_t user, size_t item) const {
  const Matrix pu = pred_.p().RowCopy(user);
  const Matrix qi = pred_.q().RowCopy(item);
  const Matrix feat = HConcat(HConcat(pu, qi), Hadamard(pu, qi));
  return Sigmoid(cvr_tower_.Forward(feat));
}

size_t TowerTrainerBase::NumParameters() const {
  size_t n = pred_.p().size() + pred_.q().size() +
             ctr_tower_.NumParameters() + cvr_tower_.NumParameters();
  if (has_imputation_) n += imp_tower_.NumParameters();
  return n;
}

ParamBudget TowerTrainerBase::Budget() const {
  ParamBudget budget;
  budget.embedding_params = pred_.p().size() + pred_.q().size();
  budget.hidden_params =
      ctr_tower_.NumParameters() + cvr_tower_.NumParameters();
  if (has_imputation_) budget.hidden_params += imp_tower_.NumParameters();
  return budget;
}

TowerTrainerBase::TowerGraph TowerTrainerBase::BuildGraph(
    ag::Tape* tape, const Batch& batch) const {
  TowerGraph graph;
  graph.p = tape->Leaf(pred_.p());
  graph.q = tape->Leaf(pred_.q());
  ag::Var pu = ag::GatherRows(graph.p, batch.users);
  ag::Var qi = ag::GatherRows(graph.q, batch.items);
  graph.features = ag::PairFeatures(pu, qi);
  graph.ctr_leaves = ctr_tower_.MakeLeaves(tape);
  graph.cvr_leaves = cvr_tower_.MakeLeaves(tape);
  graph.ctr_logits = ctr_tower_.Forward(graph.ctr_leaves, graph.features);
  graph.cvr_logits = cvr_tower_.Forward(graph.cvr_leaves, graph.features);
  if (has_imputation_) {
    graph.imp_leaves = imp_tower_.MakeLeaves(tape);
    graph.imp_logits = imp_tower_.Forward(graph.imp_leaves, graph.features);
  }
  return graph;
}

void TowerTrainerBase::StepAll(ag::Tape* tape, ag::Var loss,
                               const TowerGraph& graph) {
  std::vector<ag::Var> leaves{graph.p, graph.q};
  std::vector<Matrix*> params{&pred_.p(), &pred_.q()};
  auto append = [&](const MlpHead::Leaves& tower_leaves,
                    const MlpHead::ParamList& tower_params) {
    leaves.insert(leaves.end(), tower_leaves.begin(), tower_leaves.end());
    params.insert(params.end(), tower_params.begin(), tower_params.end());
  };
  append(graph.ctr_leaves, ctr_tower_.Params());
  append(graph.cvr_leaves, cvr_tower_.Params());
  if (has_imputation_) append(graph.imp_leaves, imp_tower_.Params());
  BackwardAndStep(tape, loss, leaves, params);
}

ag::Var TowerTrainerBase::SafeProb(ag::Var prob) {
  constexpr double kEps = 1e-6;
  return ag::AddScalar(ag::Scale(prob, 1.0 - 2.0 * kEps), kEps);
}

ag::Var TowerTrainerBase::BceMean(ag::Tape* tape, ag::Var prob,
                                  const Matrix& labels) {
  ag::Var p = SafeProb(prob);
  ag::Var ones = tape->Constant(Matrix::Ones(labels.rows(), labels.cols()));
  ag::Var pos = ag::MulConst(ag::Log(p), labels);
  Matrix neg_labels(labels.rows(), labels.cols());
  for (size_t i = 0; i < labels.size(); ++i) {
    neg_labels.at_flat(i) = 1.0 - labels.at_flat(i);
  }
  ag::Var neg = ag::MulConst(ag::Log(ag::Sub(ones, p)), neg_labels);
  return ag::Scale(ag::Mean(ag::Add(pos, neg)), -1.0);
}

}  // namespace dtrec
