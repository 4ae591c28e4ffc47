#ifndef DTREC_CORE_DT_IPS_H_
#define DTREC_CORE_DT_IPS_H_

#include <string>
#include <vector>

#include "baselines/trainer_base.h"
#include "core/disentangled_embeddings.h"
#include "models/mlp.h"

namespace dtrec {

/// DT-IPS — the paper's proposed method (Section IV-B), IPS flavor.
///
/// Minimizes, jointly over the disentangled embeddings and the propensity
/// head,
///   L = L_IPS(P′,Q′; θ_r)                       (rating, primary block)
///     + α·L_O(P,Q; θ_o)                         (propensity, full space)
///     + β·(‖P′ᵀP″‖_F² + ‖Q′ᵀQ″‖_F²)             (disentangling)
///     + γ·(‖P′Q′ᵀ‖_F² + ‖P″Q″ᵀ‖_F²)             (regularization)
/// where L_IPS reweights observed squared errors by the *learned MNAR
/// propensity* p̂ = σ(θ_o over [x, z]) (stop-gradient in the weights).
/// α/β/γ/A map to TrainConfig::{alpha, beta, gamma, disentangle_dim}.
///
/// Unlike every IPS/DR baseline, the propensity here conditions on the
/// auxiliary block z, which Lemma 3 / Theorem 1 show makes the MNAR
/// propensity identifiable once z ⟂ r | x is enforced by the
/// disentangling term.
class DtIpsTrainer : public MfJointTrainerBase {
 public:
  explicit DtIpsTrainer(const TrainConfig& config)
      : MfJointTrainerBase(config) {}

  std::string name() const override { return "DT-IPS"; }
  LossInventory Losses() const override {
    LossInventory inv;
    inv.propensity_loss = true;
    inv.disentangle_loss = true;
    return inv;
  }

  double Predict(size_t user, size_t item) const override;
  size_t NumParameters() const override;
  ParamBudget Budget() const override;

  /// Learned MNAR propensity p̂(u,i) (diagnostics and oracle comparisons).
  double PropensityEstimate(size_t user, size_t item) const;

  /// Disentangling-loss value recorded at the end of each epoch
  /// (regenerates Figure 4(c)/(d)).
  const std::vector<double>& disentangle_history() const {
    return disentangle_history_;
  }

  /// Scale-invariant orthogonality per epoch (see
  /// DisentangledEmbeddings::NormalizedDisentangleValue).
  const std::vector<double>& normalized_disentangle_history() const {
    return normalized_history_;
  }

  const DisentangledEmbeddings& embeddings() const { return emb_; }

 protected:
  Status Setup(const RatingDataset& dataset) override;
  void TrainStep(const Batch& batch) override;
  void EpochEnd(size_t epoch) override;
  std::vector<CheckpointGroup> CheckpointGroups() override;

  /// Builds the whole step loss on `tape`: the graph, the estimator term
  /// (EstimatorLoss) and the shared propensity / disentangling /
  /// regularization terms. The graph's leaves land in step_leaves_, paired
  /// with step_params_ for the optimizer step.
  ag::Var BuildStepLoss(ag::Tape* tape, const Batch& batch);

  /// The estimator term over the built graph: L_IPS here, the DR pair in
  /// DtDrTrainer. Recorded in the event stream as estimator_name().
  virtual ag::Var EstimatorLoss(ag::Tape* tape, const Batch& batch,
                                const DisentangledGraph& graph);
  virtual const char* estimator_name() const { return "ips"; }

  /// The three shared loss terms, summed.
  ag::Var SharedLossTerms(const Batch& batch, const DisentangledGraph& graph);

  size_t primary_dim() const {
    // Default split A = 3K/4: the auxiliary block only needs enough width
    // to absorb the observation-specific signal, while the rating head
    // keeps most of the capacity (A is the paper's tuned hyper-parameter).
    return config_.disentangle_dim > 0 ? config_.disentangle_dim
                                       : (3 * config_.embedding_dim) / 4;
  }

  /// Builds the per-batch graph with the MLP propensity head when
  /// configured, else the per-dimension GLM head (the ablation fallback).
  /// Only the chosen head is built; the GLM head's two leaves are made
  /// either way so the optimizer steps every parameter alike.
  DisentangledGraph BuildGraph(ag::Tape* tape, const Batch& batch);

  DisentangledEmbeddings emb_;
  MlpHead prop_tower_;  // used iff config_.dt_mlp_propensity
  std::vector<double> disentangle_history_;
  std::vector<double> normalized_history_;

  // Per-step buffers kept across steps so a step allocates nothing: the
  // leaves of the current graph and the parameters they pair with (fixed
  // by Setup), and the constant IPS / BCE weights.
  std::vector<ag::Var> step_leaves_;
  std::vector<Matrix*> step_params_;
  Matrix ips_weights_;
  Matrix bce_weights_;
};

}  // namespace dtrec

#endif  // DTREC_CORE_DT_IPS_H_
